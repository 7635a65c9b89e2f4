"""The control plane as one value object, and its named bundles.

:class:`ControlPlaneConfig` bundles any subset of the mechanisms;
:data:`CONTROLPLANE_BUNDLES` names the combinations the chaos suite's
remedy axis offers alongside the resilience bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.controlplane.admission import AdmissionConfig
from repro.controlplane.autoscaler import AutoscalerConfig
from repro.controlplane.bulkhead import BulkheadConfig
from repro.controlplane.leveling import LevelingConfig
from repro.errors import ConfigurationError

__all__ = ["CONTROLPLANE_BUNDLES", "ControlPlaneConfig", "get_controlplane"]


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Any subset of the control plane, as one picklable value object.

    ``None`` for a mechanism leaves it out entirely — the wiring points
    check for presence, so an all-``None`` config (or no config at all)
    is event-for-event identical to the seed system.
    """

    autoscaler: Optional[AutoscalerConfig] = None
    admission: Optional[AdmissionConfig] = None
    leveling: Optional[LevelingConfig] = None
    bulkhead: Optional[BulkheadConfig] = None

    @property
    def enabled(self) -> bool:
        return any(component is not None for component in
                   (self.autoscaler, self.admission, self.leveling,
                    self.bulkhead))


#: Named control-plane bundles the chaos suite accepts on its remedy
#: axis alongside the resilience bundles.  ``autoscale`` is a sensible
#: production loop (1 s sampling, 2 s boot); ``autoscale_fast`` is the
#: fastest plausible reactive loop (250 ms sampling, 500 ms boot) — the
#: point of the headline cells is that even *that* misses a sub-second
#: millibottleneck.
CONTROLPLANE_BUNDLES: dict[str, ControlPlaneConfig] = {
    "autoscale": ControlPlaneConfig(autoscaler=AutoscalerConfig()),
    "autoscale_fast": ControlPlaneConfig(autoscaler=AutoscalerConfig(
        interval=0.25, warmup=0.5, cooldown=0.5)),
    "admission": ControlPlaneConfig(admission=AdmissionConfig()),
    "leveling": ControlPlaneConfig(leveling=LevelingConfig()),
    "admission+leveling": ControlPlaneConfig(
        admission=AdmissionConfig(), leveling=LevelingConfig()),
    "bulkhead": ControlPlaneConfig(bulkhead=BulkheadConfig()),
}


def get_controlplane(key: str) -> ControlPlaneConfig:
    """Look up a named control-plane bundle."""
    try:
        return CONTROLPLANE_BUNDLES[key]
    except KeyError:
        raise ConfigurationError(
            "unknown control-plane bundle {!r} (have: {})".format(
                key, ", ".join(sorted(CONTROLPLANE_BUNDLES)))) from None
