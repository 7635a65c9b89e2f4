"""Wiring a :class:`~repro.controlplane.ControlPlaneConfig` onto a
built system.

This is the chaos-suite/bundle entry point, the control-plane analogue
of ``install_resilience``-style wiring in the runner: frontend-scoped
mechanisms (admission, leveling, bulkhead) go onto every frontend, and
the autoscaler attaches to the first worker-service tier of the
topology spec — for the classic RUBBoS topology that is the Tomcat
tier, the one behind the load balancer where the paper's replica
arithmetic happens.

Spec-driven topologies place mechanisms per tier/boundary instead (see
:mod:`repro.cluster.spec`); this installer exists so a plain
:class:`~repro.cluster.runner.ExperimentConfig` can carry one frozen
config and stay picklable for the parallel driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.admission import TokenBucketAdmission
from repro.controlplane.autoscaler import ReactiveAutoscaler
from repro.controlplane.bulkhead import Bulkhead
from repro.controlplane.bundles import ControlPlaneConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import NTierSystem
    from repro.sim.core import Environment

__all__ = ["autoscaled_tier_name", "install_controlplane"]


def autoscaled_tier_name(system: "NTierSystem") -> str:
    """The tier a bundle-level autoscaler controls: the first
    worker-service tier of the spec."""
    if system.spec is None:
        raise ConfigurationError(
            "autoscaling requires a spec-built system (the replica "
            "factory lives in the topology spec)")
    for tier in system.spec.tiers:
        if tier.service == "worker":
            return tier.name
    raise ConfigurationError(
        "topology {!r} has no worker tier to autoscale".format(
            system.spec.name))


def install_controlplane(env: "Environment", system: "NTierSystem",
                         config: ControlPlaneConfig) -> None:
    """Attach every configured mechanism of ``config`` to ``system``.

    Call once, after the system is built and before the run starts.
    An all-``None`` config installs nothing and schedules nothing.
    """
    if config.admission is not None:
        for frontend in system.frontends:
            controller = TokenBucketAdmission(
                env, config.admission, name=frontend.name + ".admission")
            frontend.install_admission(controller)
            system.admissions.append(controller)
    if config.bulkhead is not None:
        for frontend in system.frontends:
            bulkhead = Bulkhead(env, config.bulkhead,
                                name=frontend.name + ".bulkhead")
            frontend.install_bulkhead(bulkhead)
            system.bulkheads.append(bulkhead)
    if config.leveling is not None:
        for frontend in system.frontends:
            leveler = frontend.install_leveling(config.leveling)
            system.levelers.append(leveler)
    if config.autoscaler is not None:
        tier_name = autoscaled_tier_name(system)
        system.autoscalers.append(ReactiveAutoscaler(
            env, system, tier_name, config.autoscaler))
