"""Discrete-event simulation kernel.

A compact generator-coroutine DES engine in the style of SimPy,
providing everything the n-tier models need: an event loop with a
float-seconds clock, processes, timeouts, condition events, resources
with cancellable requests, item stores, overflow-dropping queues, and
sampling probes.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.core": ("Environment", "NORMAL", "URGENT"),
    "repro.sim.events": ("Event", "Timeout", "Condition", "ConditionValue",
                         "AllOf", "AnyOf", "Interrupt"),
    "repro.sim.process": ("Process",),
    "repro.sim.resources": ("Resource", "PriorityResource", "Request",
                            "Container"),
    "repro.sim.queues": ("Store", "DropQueue"),
    "repro.sim.monitor": ("MonitorHub", "Sampler", "TraceLog"),
})
