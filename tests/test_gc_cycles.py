"""The simulation feeds reference counting, not the cyclic collector.

Every per-request object (resource grants, request/completion pairs,
finished processes) must be acyclic, so reference counting frees it
the moment the model lets go; and the span store must hold no per-span
container the collector tracks.  Each run below happens with the
collector paused and its result still alive, so one ``gc.collect()``
afterwards finds only the cyclic garbage the run itself left behind.
That count must be a small constant that does not grow with the
simulated duration — one cycle per request (or per span) would add
thousands per simulated second.
"""

import gc
from dataclasses import replace

import pytest

from repro.cluster.geo import GEO_FAULTS
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.spec import TopologySpec

from tests.test_trace_structure import scenario_config

#: Most cyclic objects one run may leave behind.
MAX_CYCLIC = 10
#: Most GC-tracked objects request tracing may add to a finished run
#: (the tracer, its columns and bound appends — none per span).
MAX_TRACER_TRACKED = 100


def _geo_config(duration):
    spec = TopologySpec.geo(hierarchy=True, disk_bandwidth=3e6, clients=40)
    return ExperimentConfig(
        profile=spec.scale_profile(), topology=spec, duration=duration,
        seed=7, trace_lb_values=False, trace_dispatches=False,
        faults=GEO_FAULTS["zone_outage"](duration))


CONFIGS = {
    "table1": lambda duration: replace(scenario_config(False),
                                       duration=duration),
    "table1_traced": lambda duration: replace(scenario_config(True),
                                              duration=duration),
    "geo": _geo_config,
}


def run_paused(config):
    """``(result, cyclic objects)`` of one run with the collector
    paused; the result stays alive, so only garbage is counted."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = ExperimentRunner(config).run()
        return result, gc.collect()
    finally:
        if enabled:
            gc.enable()


def tracked_objects(config):
    """GC-tracked objects alive while the run's result is held."""
    result = ExperimentRunner(config).run()
    gc.collect()
    count = len(gc.get_objects())
    del result
    return count


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cyclic_garbage_is_small_and_constant(name):
    _, short = run_paused(CONFIGS[name](2.0))
    _, long = run_paused(CONFIGS[name](4.0))
    assert short <= MAX_CYCLIC
    assert long == short


def test_span_store_adds_no_tracked_object_per_span():
    duration = 4.0
    untraced = tracked_objects(CONFIGS["table1"](duration))
    traced_result, _ = run_paused(CONFIGS["table1_traced"](duration))
    spans = sum(trace.span_count() for trace in traced_result.traces())
    assert spans > 10 * MAX_TRACER_TRACKED
    del traced_result
    traced = tracked_objects(CONFIGS["table1_traced"](duration))
    assert traced - untraced <= MAX_TRACER_TRACKED
