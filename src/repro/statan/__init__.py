"""statan — static analysis for deterministic simulation code.

An AST-based lint framework specialised for this repository's
discrete-event kernel: determinism (no ambient time or randomness),
generator-protocol discipline for sim processes, resource-slot safety,
float-time hygiene, ``__slots__`` enforcement on kernel hot paths, and
delay-literal validation — plus whole-program passes that compose
per-function summaries along the call graph: interprocedural seed
provenance (SEED002/SEED003), a yield-point race detector for process
generators (RACE001-003), and escaped-acquisition lifetime tracking
(RES003).

Programmatic entry points::

    from repro.statan import check_paths, render_text

    result = check_paths(["src/repro"])
    print(render_text(result))

Command line: ``repro-lb statan [paths ...]`` (see ``--help``).
CI gating uses a committed fingerprint baseline
(``--baseline statan-baseline.json``) and SARIF output
(``--format sarif``); see :mod:`repro.statan.sarif`.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.statan.engine": ("Context", "Finding", "Result", "Rule",
                            "Severity", "StatanError", "check_paths",
                            "check_source", "render_json", "render_text"),
    "repro.statan.rules": ("RULES", "default_rules"),
    "repro.statan.program": ("ProgramIndex", "ProgramRule", "PROGRAM_RULES",
                             "default_program_rules"),
    "repro.statan.sarif": ("render_sarif", "render_baseline",
                           "load_baseline", "write_baseline"),
})
