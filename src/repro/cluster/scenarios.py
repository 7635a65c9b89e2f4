"""Named experiment scenarios — one per paper artifact.

Every figure and table maps to a scenario key (see DESIGN.md's
experiment index).  ``Scenario.named(key)`` returns a ready-to-run
:class:`~repro.cluster.runner.ExperimentConfig`.

The fault/remedy grids (:class:`~repro.cluster.chaos.ChaosSuite`,
:class:`~repro.cluster.chaos.PolicyRematch` and the fault zoo they
draw on) live in :mod:`repro.cluster.chaos`, so running a paper
scenario loads no fault, resilience or control-plane code.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig
from repro.core.remedies import BUNDLES
from repro.errors import ConfigurationError

#: Default run length for figure-level scenarios (seconds).
FIGURE_DURATION = 20.0
#: Default run length for the Table-I comparison (seconds).
TABLE_DURATION = 30.0


def baseline_no_millibottleneck(duration: float = FIGURE_DURATION,
                                seed: int = 42) -> ExperimentConfig:
    """Fig. 1: total_request in a millibottleneck-free environment."""
    return ExperimentConfig(
        bundle_key="original_total_request",
        profile=ScaleProfile(),
        duration=duration,
        seed=seed,
        tomcat_millibottlenecks=False,
        apache_millibottlenecks=False,
    )


def single_node_millibottleneck(duration: float = FIGURE_DURATION,
                                seed: int = 42) -> ExperimentConfig:
    """Fig. 2: 1 Apache / 1 Tomcat / 1 MySQL, no balancer, flushing on.

    Both the web and app hosts flush (the paper's §III-B observes
    millibottlenecks on each), producing the two kinds of Apache queue
    peak: its own stall, and the push-back wave from Tomcat.
    """
    return ExperimentConfig(
        bundle_key="original_total_request",  # unused (no balancer)
        profile=ScaleProfile.single_node(),
        duration=duration,
        seed=seed,
        tomcat_millibottlenecks=True,
        apache_millibottlenecks=True,
        use_balancer=False,
        sample_dirty_pages=True,
    )


def policy_run(bundle_key: str, duration: float = FIGURE_DURATION,
               seed: int = 42, trace: bool = True) -> ExperimentConfig:
    """Figs. 3-13: a 4/4/1 run of one policy/mechanism combination."""
    if bundle_key not in BUNDLES:
        raise ConfigurationError("unknown bundle: " + bundle_key)
    return ExperimentConfig(
        bundle_key=bundle_key,
        profile=ScaleProfile(),
        duration=duration,
        seed=seed,
        tomcat_millibottlenecks=True,
        apache_millibottlenecks=False,
        trace_lb_values=trace,
        trace_dispatches=trace,
    )


def table1_run(bundle_key: str, duration: float = TABLE_DURATION,
               seed: int = 42) -> ExperimentConfig:
    """Table I: same as a policy run, with tracing off for speed."""
    return policy_run(bundle_key, duration=duration, seed=seed, trace=False)


_REGISTRY: dict[str, Callable[[], ExperimentConfig]] = {
    "fig1/baseline": baseline_no_millibottleneck,
    "fig2/anatomy": single_node_millibottleneck,
}
for _key in BUNDLES:
    _REGISTRY["run/" + _key] = (
        lambda key=_key: policy_run(key))
    _REGISTRY["table1/" + _key] = (
        lambda key=_key: table1_run(key))


class Scenario:
    """Registry facade: ``Scenario.named("table1/current_load")``."""

    @staticmethod
    def named(key: str) -> ExperimentConfig:
        try:
            return _REGISTRY[key]()
        except KeyError:
            raise ConfigurationError(
                "unknown scenario {!r}; available: {}".format(
                    key, ", ".join(sorted(_REGISTRY)))) from None

    @staticmethod
    def keys() -> list[str]:
        return sorted(_REGISTRY)

