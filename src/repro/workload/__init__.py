"""RUBBoS workload substrate.

Reimplements the RUBBoS bulletin-board benchmark's client side: the 24
web interactions, the browsing-only and read/write mixes as Markov
chains, per-user sessions, and closed-loop emulated clients with
exponential think times.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workload.interactions": ("Interaction", "INTERACTIONS",
                                    "get_interaction", "DEFAULT_THINK_TIME"),
    "repro.workload.mix": ("WorkloadMix", "browsing_only_mix",
                           "read_write_mix", "BROWSING_ONLY_WEIGHTS",
                           "READ_WRITE_WEIGHTS"),
    "repro.workload.session": ("Session",),
    "repro.workload.request": ("Request",),
    "repro.workload.client": ("Client",),
    "repro.workload.bursty": ("BurstProfile", "OpenLoopGenerator"),
    "repro.workload.generator": ("ClientPopulation",),
    "repro.workload.aggregate": ("AggregatedClientPopulation",),
})
