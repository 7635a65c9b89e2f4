"""The remedy layer as one value object, and its named bundles.

:class:`ResilienceConfig` bundles any subset of the remedies;
:data:`RESILIENCE_BUNDLES` names the combinations the chaos suite
crosses with fault scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.resilience.breaker import BreakerConfig
from repro.resilience.hedge import HedgePolicy
from repro.resilience.probes import ProbeConfig
from repro.resilience.retry import RetryPolicy

__all__ = ["RESILIENCE_BUNDLES", "ResilienceConfig", "get_resilience"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Any subset of the remedy layer, as one picklable value object.

    ``None`` for a component leaves it out entirely — the wiring points
    check for presence, so an all-``None`` config (or no config at all)
    is event-for-event identical to the seed system.
    """

    retry: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None
    breaker: Optional[BreakerConfig] = None
    probes: Optional[ProbeConfig] = None

    @property
    def enabled(self) -> bool:
        return any(component is not None for component in
                   (self.retry, self.hedge, self.breaker, self.probes))


#: Named remedy bundles the chaos suite crosses with fault scenarios.
RESILIENCE_BUNDLES: dict[str, ResilienceConfig] = {
    "none": ResilienceConfig(),
    "retry": ResilienceConfig(retry=RetryPolicy()),
    "hedge": ResilienceConfig(hedge=HedgePolicy()),
    "breaker": ResilienceConfig(breaker=BreakerConfig()),
    "probes": ResilienceConfig(probes=ProbeConfig()),
    "breaker+probes": ResilienceConfig(breaker=BreakerConfig(),
                                       probes=ProbeConfig()),
    "full": ResilienceConfig(retry=RetryPolicy(), hedge=HedgePolicy(),
                             breaker=BreakerConfig(), probes=ProbeConfig()),
}


def get_resilience(key: str) -> ResilienceConfig:
    """Look up a named remedy bundle.

    The error message lists every valid chaos remedy key — including
    the control-plane bundles, which live in their own registry
    (:data:`repro.controlplane.CONTROLPLANE_BUNDLES`) and are resolved
    by :func:`repro.cluster.chaos.resolve_remedy`.
    """
    try:
        return RESILIENCE_BUNDLES[key]
    except KeyError:
        from repro.controlplane import CONTROLPLANE_BUNDLES

        keys = sorted(set(RESILIENCE_BUNDLES) | set(CONTROLPLANE_BUNDLES))
        raise ConfigurationError(
            "unknown resilience bundle {!r}; valid remedy keys: {}".format(
                key, ", ".join(keys))) from None
