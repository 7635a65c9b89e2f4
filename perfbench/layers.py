"""Module-to-layer table and cProfile self-time attribution.

Every module under ``src/repro`` belongs to exactly one layer.  Keys of
:data:`MODULE_LAYERS` are either a subpackage of ``repro`` (which then
covers every module inside it) or one exact module; a more specific key
wins.  A module no key covers is an error, so a new package cannot slip
into the profile unattributed.

Self time of code outside ``repro`` (builtins, numpy, the standard
library) is charged to the ``repro`` layer that called it, walking up
through chains of foreign callers, so the layers sum to the profiled
total and there is no "other" bucket.
"""

from __future__ import annotations

import pathlib
from collections import defaultdict

#: Layers in report order.  ``controlplane`` and ``resilience`` are off
#: in every workload; ``tools`` is code that never runs inside a
#: simulation (CLI, analysis, static analyzer, process pool, package
#: root).
LAYERS = ("sim", "workload", "aggregate", "osmodel", "tiers", "core",
          "netmodel", "metrics", "tracing", "cluster", "controlplane",
          "resilience", "tools")

MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.workload": "workload",
    "repro.workload.aggregate": "aggregate",
    "repro.osmodel": "osmodel",
    "repro.tiers": "tiers",
    "repro.core": "core",
    "repro.netmodel": "netmodel",
    "repro.metrics": "metrics",
    "repro.tracing": "tracing",
    "repro.cluster": "cluster",
    "repro.controlplane": "controlplane",
    "repro.resilience": "resilience",
    "repro.analysis": "tools",
    "repro.statan": "tools",
    "repro.cli": "tools",
    "repro.parallel": "tools",
    # The kernel's StopSimulation signal lives with the error types.
    "repro.errors": "sim",
    "repro": "tools",
}


class UnmappedModule(LookupError):
    """A ``repro`` module that :data:`MODULE_LAYERS` does not cover."""


def layer_of(module: str) -> str:
    """The layer of dotted module name ``module`` (e.g. ``repro.sim.core``).

    Tries the module itself, then its enclosing packages, but never the
    bare ``repro`` root for a submodule: only ``repro/__init__.py``
    itself maps through the ``"repro"`` key.
    """
    parts = module.split(".")
    for end in range(len(parts), 1 if len(parts) > 1 else 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    raise UnmappedModule(module)


def source_modules(src: pathlib.Path) -> list[str]:
    """Dotted names of every module under ``src/repro``."""
    modules = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules.append(".".join(parts))
    return modules


def _module_of(code, src_prefix: str):
    """Dotted module of a profiled code object, ``None`` if not repro."""
    filename = getattr(code, "co_filename", None)
    if filename is None or not filename.startswith(src_prefix):
        return None
    parts = filename[len(src_prefix):].removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts)


def attribute(stats, src: pathlib.Path, root_layer: str):
    """Per-layer self time and call counts from ``Profile.getstats()``.

    Returns ``(self_s, calls, total_s)``: dicts keyed by every layer in
    :data:`LAYERS`, plus the profiled total (sum of all self time, the
    profiler's own ``disable`` call excluded).  Foreign self time goes
    to callers in proportion to the time each caller spent in it;
    foreign time with no caller at all is charged to ``root_layer``,
    the layer of the profiled entry point.
    """
    src_prefix = str((src / "repro").resolve()) + "/"
    layer = {}
    for entry in stats:
        module = _module_of(entry.code, src_prefix)
        layer[entry.code] = None if module is None else layer_of(module)

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total = 0.0
    # Per foreign callee, one (caller, seconds, calls) edge per caller:
    # the callee's own time, and the time below it, for that caller.
    inline_edges = defaultdict(list)
    sub_edges = defaultdict(list)
    own = {}
    for entry in stats:
        code = entry.code
        if isinstance(code, str) and "_lsprof.Profiler" in code:
            continue
        total += entry.inlinetime
        if layer[code] is not None:
            self_s[layer[code]] += entry.inlinetime
            calls[layer[code]] += entry.callcount
        else:
            own[code] = entry.inlinetime
        for sub in entry.calls or ():
            if sub.code in layer and layer[sub.code] is None:
                inline_edges[sub.code].append((code, sub.inlinetime,
                                               sub.callcount))
                sub_edges[sub.code].append(
                    (code, sub.totaltime - sub.inlinetime, sub.callcount))

    def shares(edges):
        weight = sum(w for _, w, _ in edges)
        if weight > 0:
            return [(caller, w / weight) for caller, w, _ in edges]
        count = sum(n for _, _, n in edges)
        return [(caller, n / count) for caller, _, n in edges]

    def push(mass, edges, pending):
        if not edges:
            self_s[root_layer] += mass
            return
        for caller, share in shares(edges):
            if layer[caller] is None:
                pending[caller] += mass * share
            else:
                self_s[layer[caller]] += mass * share

    pending = defaultdict(float)
    for code, mass in own.items():
        push(mass, inline_edges[code], pending)
    # Time received from foreign callees moves up by the subcall
    # shares; foreign cycles converge geometrically.
    for _ in range(1000):
        if not pending:
            break
        moving, pending = pending, defaultdict(float)
        for code, mass in moving.items():
            if mass > 1e-15:
                push(mass, sub_edges[code], pending)
    for mass in pending.values():
        self_s[root_layer] += mass
    return self_s, calls, total
