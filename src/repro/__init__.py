"""repro — reproduction of the ICDCS 2017 millibottleneck load-balancing study.

This package implements, in pure Python, everything needed to reproduce
"Limitations of Load Balancing Mechanisms for N-Tier Systems in the
Presence of Millibottlenecks" (Zhu et al., ICDCS 2017): a discrete-event
simulation kernel (:mod:`repro.sim`), an OS model whose dirty-page
flushing produces millibottlenecks (:mod:`repro.osmodel`), a network
model whose accept-queue drops produce VLRT requests
(:mod:`repro.netmodel`), Apache/Tomcat/MySQL tier models
(:mod:`repro.tiers`), the mod_jk two-level load balancer with the
paper's policies and remedies (:mod:`repro.core`), the RUBBoS workload
(:mod:`repro.workload`), experiment wiring (:mod:`repro.cluster`), and
the paper's fine-grained analysis methodology (:mod:`repro.analysis`).

Quickstart::

    from repro import ExperimentRunner, Scenario

    result = ExperimentRunner(Scenario.named("table1/current_load")).run()
    print(result.summary())

Importing a package loads none of its modules: every package's public
names resolve on first use (see :func:`lazy_exports`), so a run loads
only the layers it calls into.
"""

from __future__ import annotations

import sys
from importlib import import_module

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for a re-exporting package.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it; it is the package's only list of public names.
    A name's module is imported when the name is first read (PEP 562),
    and the object is then cached in the package's globals, so
    ``from package import Name`` returns the defining module's object
    and later reads never reach ``__getattr__``.
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError("module {!r} has no attribute {!r}".format(
                package, name))
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    # experiments
    "repro.cluster.runner": ("ExperimentConfig", "ExperimentResult",
                             "ExperimentRunner", "compare_policies"),
    "repro.cluster.scenarios": ("Scenario",),
    "repro.cluster.config": ("ScaleProfile",),
    "repro.cluster.topology": ("NTierSystem", "build_system",
                               "build_from_spec"),
    "repro.cluster.spec": ("TopologySpec",),
    "repro.parallel": ("ExperimentSummary", "Replication", "replicate",
                       "run_experiments", "summarize"),
    # the contribution
    "repro.core.balancer": ("LoadBalancer", "DirectDispatcher",
                            "BalancerConfig"),
    "repro.core.policies": ("Policy", "TotalRequestPolicy",
                            "TotalTrafficPolicy", "CurrentLoadPolicy",
                            "make_policy"),
    "repro.core.mechanism": ("OriginalGetEndpoint", "ModifiedGetEndpoint"),
    "repro.core.remedies": ("RemedyBundle", "TABLE1_BUNDLES", "get_bundle"),
    # supporting
    "repro.osmodel.profiles": ("MillibottleneckProfile",),
    "repro.metrics.stats": ("ResponseTimeStats",),
    "repro.workload.mix": ("browsing_only_mix", "read_write_mix"),
    # errors
    "repro.errors": ("ReproError", "SimulationError", "ConfigurationError",
                     "WorkloadError", "BalancerError", "NoCandidateError",
                     "AnalysisError"),
})
__all__.insert(0, "__version__")
