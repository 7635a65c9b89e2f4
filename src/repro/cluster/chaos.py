"""Fault/remedy grids: the chaos suite and the Table-I rematch.

:class:`ChaosSuite` is the fault/remedy matrix: it crosses the fault
zoo (:data:`FAULT_SCENARIOS`) with the remedy bundles — data-plane
(:data:`~repro.resilience.RESILIENCE_BUNDLES`) and control-plane
(:data:`~repro.controlplane.CONTROLPLANE_BUNDLES`) — and the Table-I
policy/mechanism bundles, fans the cells out through
:mod:`repro.parallel`, and reports availability, %VLRT, retry
amplification, goodput, shed rate and time-to-recover per cell.
:class:`PolicyRematch` crosses the policy bundles with a few of the
same faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.config import ScaleProfile
from repro.cluster.faults import (
    CorrelatedCrashFault,
    CrashFault,
    FaultSpec,
    LinkLatencyFault,
    PacketLossFault,
    RecurringFault,
    SlowFault,
    WanDegradationFault,
    ZoneOutageFault,
)
from repro.cluster.runner import ExperimentConfig
from repro.cluster.spec import TopologySpec
from repro.controlplane import CONTROLPLANE_BUNDLES, ControlPlaneConfig
from repro.core.remedies import BUNDLES, MODERN_BUNDLES, TABLE1_BUNDLES
from repro.errors import ConfigurationError
from repro.resilience import RESILIENCE_BUNDLES, ResilienceConfig


# -- the chaos suite --------------------------------------------------------

#: Default run length for chaos cells (seconds).
CHAOS_DURATION = 12.0

#: Named fault timelines, each a factory ``duration -> specs`` so the
#: fault windows scale with the cell's run length.  Windows start after
#: ramp-up and end before the run does, so every cell also measures the
#: recovery, not just the fault.
FAULT_SCENARIOS: dict[str, Callable[[float], tuple[FaultSpec, ...]]] = {
    "none": lambda d: (),
    "crash": lambda d: (
        CrashFault("tomcat1", at=0.25 * d),),
    "transient_crash": lambda d: (
        CrashFault("tomcat1", at=0.25 * d, duration=0.25 * d),),
    "slow": lambda d: (
        SlowFault("tomcat1", at=0.25 * d, duration=0.35 * d, factor=8.0),),
    "packet_loss": lambda d: (
        PacketLossFault(at=0.25 * d, duration=0.35 * d, loss=0.01),),
    "link_latency": lambda d: (
        LinkLatencyFault("tomcat1", at=0.25 * d, duration=0.35 * d,
                         extra=0.005),),
    "burst": lambda d: (
        CorrelatedCrashFault(("tomcat1", "tomcat2"), at=0.25 * d,
                             duration=0.2 * d, jitter=0.05 * d),),
    "recurring_slow": lambda d: (
        RecurringFault("tomcat1", kind="slow", mean_interval=0.12 * d,
                       duration=0.04 * d, factor=6.0),),
    "zone_outage": lambda d: (
        ZoneOutageFault("east", at=0.25 * d, duration=0.3 * d,
                        jitter=0.02 * d),),
    "wan_degradation": lambda d: (
        WanDegradationFault("east", "west", at=0.25 * d, duration=0.35 * d,
                            latency=0.25, loss=0.05),),
}

#: Fault keys that only resolve against a zoned topology (their targets
#: are zones and WAN links, which a classic flat build does not have).
#: :class:`ChaosSuite` excludes them unless a topology is supplied.
ZONE_FAULT_KEYS: frozenset[str] = frozenset(
    {"zone_outage", "wan_degradation"})


def fault_specs(key: str, duration: float) -> tuple[FaultSpec, ...]:
    """Resolve a named fault scenario for a run of ``duration``."""
    try:
        factory = FAULT_SCENARIOS[key]
    except KeyError:
        raise ConfigurationError(
            "unknown fault scenario {!r}; available: {}".format(
                key, ", ".join(sorted(FAULT_SCENARIOS)))) from None
    return tuple(factory(duration))


def fault_horizon(specs: Sequence[FaultSpec]) -> Optional[tuple[float, float]]:
    """``(start, end)`` of the union of fault windows, if bounded.

    ``None`` when the timeline has no bounded window to recover from:
    no faults at all, a permanent crash (``duration=None``), or a
    recurring fault (no ``at``).  Correlated crashes extend the end by
    their jitter bound, since member crash times are drawn in
    ``[at, at + jitter]``.
    """
    starts: list[float] = []
    ends: list[float] = []
    for spec in specs:
        at = getattr(spec, "at", None)
        duration = getattr(spec, "duration", None)
        if at is None or duration is None:
            return None
        jitter = getattr(spec, "jitter", 0.0) or 0.0
        starts.append(at)
        ends.append(at + duration + jitter)
    if not starts:
        return None
    return min(starts), max(ends)


def time_to_recover(result) -> Optional[float]:
    """Seconds after the last fault window until VLRTs subside.

    Recovery means the per-window VLRT count has returned to its
    pre-fault baseline (the worst window observed before the first
    fault started).  Returns ``None`` when undefined — no bounded
    fault window, or no response samples — and ``inf`` when the run
    ends without the VLRT rate ever coming back down.
    """
    window = fault_horizon(getattr(result.config, "faults", ()) or ())
    if window is None:
        return None
    start, end = window
    series = result.vlrt_windows()
    times, values = series.times, series.values
    if not times:
        return None
    baseline = max((v for t, v in zip(times, values) if t < start),
                   default=0.0)
    for t, v in zip(times, values):
        if t >= end and v <= baseline:
            return max(0.0, t - end)
    return float("inf")


def all_remedy_keys() -> list[str]:
    """Every valid chaos remedy key: resilience + control-plane bundles."""
    return sorted(set(RESILIENCE_BUNDLES) | set(CONTROLPLANE_BUNDLES))


def resolve_remedy(key: str) -> tuple[Optional[ResilienceConfig],
                                      Optional[ControlPlaneConfig]]:
    """Map a remedy key onto ``(resilience, controlplane)`` configs.

    Remedy keys span two registries: the data-plane resilience bundles
    (:data:`~repro.resilience.RESILIENCE_BUNDLES`) and the control-plane
    bundles (:data:`~repro.controlplane.CONTROLPLANE_BUNDLES`).  Exactly
    one side of the returned pair is set for an active remedy; both are
    ``None`` for the do-nothing key.
    """
    resilience = RESILIENCE_BUNDLES.get(key)
    if resilience is not None:
        return (resilience if resilience.enabled else None), None
    controlplane = CONTROLPLANE_BUNDLES.get(key)
    if controlplane is not None:
        return None, (controlplane if controlplane.enabled else None)
    raise ConfigurationError(
        "unknown remedy {!r}; valid remedy keys: {}".format(
            key, ", ".join(all_remedy_keys())))


@dataclass(frozen=True)
class ChaosCell:
    """One point of the fault x remedy x policy grid."""

    fault_key: str
    remedy_key: str
    bundle_key: str
    config: ExperimentConfig

    @property
    def label(self) -> str:
        return "{}|{}|{}".format(self.fault_key, self.remedy_key,
                                 self.bundle_key)


@dataclass(frozen=True)
class ChaosReport:
    """Results of a suite run, one summary-like object per cell."""

    cells: tuple[ChaosCell, ...]
    results: tuple

    def rows(self) -> list[dict]:
        """One metrics dict per cell, grid keys included.

        ``shed_pct`` is the share of client-visible responses answered
        fast by a control-plane gate; ``ttr`` is the time-to-recover
        after the last fault window (``None`` when undefined, ``inf``
        when the VLRT rate never returns to its pre-fault baseline).
        """
        rows = []
        for cell, result in zip(self.cells, self.results):
            stats = result.stats()
            sheds = result.sheds()
            rows.append({
                "fault": cell.fault_key,
                "remedy": cell.remedy_key,
                "bundle": cell.bundle_key,
                "availability": result.availability(),
                "vlrt_pct": 100.0 * stats.vlrt_fraction,
                "amplification": result.retry_amplification(),
                "goodput": result.goodput(),
                "requests": stats.count,
                "drops": result.dropped_packets(),
                "errors_503": result.error_responses(),
                "sheds": sheds,
                "shed_pct": (100.0 * sheds / stats.count
                             if stats.count else 0.0),
                "ttr": time_to_recover(result),
            })
        return rows

    @staticmethod
    def _render_ttr(ttr: Optional[float]) -> str:
        if ttr is None:
            return "-"
        if ttr == float("inf"):
            return "never"
        return "{:.2f}".format(ttr)

    def render(self) -> str:
        """The grid as a fixed-width text table."""
        header = ("{:<15s} {:<18s} {:<24s} {:>6s} {:>7s} {:>5s} "
                  "{:>8s} {:>7s} {:>6s} {:>5s} {:>6s} {:>6s}").format(
                      "fault", "remedy", "bundle", "avail%", "vlrt%",
                      "amp", "goodput", "reqs", "drops", "503s",
                      "shed%", "ttr")
        lines = [header, "-" * len(header)]
        for row in self.rows():
            lines.append(
                "{:<15s} {:<18s} {:<24s} {:>6.2f} {:>7.3f} {:>5.2f} "
                "{:>8.1f} {:>7d} {:>6d} {:>5d} {:>6.2f} {:>6s}".format(
                    row["fault"], row["remedy"], row["bundle"],
                    100.0 * row["availability"], row["vlrt_pct"],
                    row["amplification"], row["goodput"],
                    row["requests"], row["drops"], row["errors_503"],
                    row["shed_pct"], self._render_ttr(row["ttr"])))
        return "\n".join(lines)


class ChaosSuite:
    """Cross fault scenarios x remedy bundles x balancing policies.

    Every cell runs the same profile, duration and seed, so differences
    within the grid are attributable to the cell's coordinates alone.
    Cells are independent experiments and fan out through
    :func:`repro.parallel.run_experiments`; fault schedules are keyed
    off the run seed (see ``FAULT_RNG_STREAM``), so a cell's numbers
    are identical under ``workers=1`` and ``workers=N``.
    """

    def __init__(self,
                 fault_keys: Optional[Sequence[str]] = None,
                 remedy_keys: Optional[Sequence[str]] = None,
                 bundle_keys: Optional[Sequence[str]] = None,
                 duration: float = CHAOS_DURATION,
                 seed: int = 42,
                 profile: Optional[ScaleProfile] = None,
                 topology: Optional[TopologySpec] = None) -> None:
        self.fault_keys = list(
            fault_keys if fault_keys is not None
            else sorted(set(FAULT_SCENARIOS) - ZONE_FAULT_KEYS))
        self.remedy_keys = list(remedy_keys if remedy_keys is not None
                                else ("none", "full"))
        self.bundle_keys = list(bundle_keys if bundle_keys is not None
                                else ("original_total_request",
                                      "current_load_modified"))
        for key in self.fault_keys:
            if key not in FAULT_SCENARIOS:
                raise ConfigurationError(
                    "unknown fault scenario {!r}".format(key))
            if key in ZONE_FAULT_KEYS and (
                    topology is None or not topology.zones):
                raise ConfigurationError(
                    "fault scenario {!r} targets zones; pass a zoned "
                    "topology to the suite".format(key))
        for key in self.remedy_keys:
            resolve_remedy(key)
        for key in self.bundle_keys:
            if key not in BUNDLES:
                raise ConfigurationError(
                    "unknown policy bundle {!r}".format(key))
        if not 0 < duration < float("inf"):
            raise ConfigurationError("duration must be positive and finite")
        self.duration = duration
        self.seed = seed
        self.profile = profile or ScaleProfile.smoke()
        self.topology = topology

    def cells(self) -> tuple[ChaosCell, ...]:
        """The grid, fault-major, in deterministic order."""
        cells = []
        for fault_key in self.fault_keys:
            specs = fault_specs(fault_key, self.duration)
            for remedy_key in self.remedy_keys:
                resilience, controlplane = resolve_remedy(remedy_key)
                for bundle_key in self.bundle_keys:
                    cells.append(ChaosCell(
                        fault_key=fault_key,
                        remedy_key=remedy_key,
                        bundle_key=bundle_key,
                        config=ExperimentConfig(
                            bundle_key=bundle_key,
                            profile=self.profile,
                            duration=self.duration,
                            seed=self.seed,
                            trace_lb_values=False,
                            trace_dispatches=False,
                            faults=specs,
                            resilience=resilience,
                            controlplane=controlplane,
                            topology=self.topology,
                        )))
        return tuple(cells)

    def run(self, workers: Optional[int] = 1, mix=None) -> ChaosReport:
        """Run every cell and collect the report.

        ``workers`` follows :func:`repro.parallel.run_experiments`:
        1 runs serially, N fans out over a process pool, ``None`` uses
        one worker per CPU.  Results are identical either way.
        """
        from repro.parallel import run_experiments

        cells = self.cells()
        results = run_experiments([cell.config for cell in cells],
                                  workers=workers, mix=mix)
        return ChaosReport(cells=cells, results=tuple(results))


# -- the Table-I rematch ----------------------------------------------------

#: Default fault axis of the rematch: the fault-free reference plus the
#: two fault kinds the paper's §V remedies were graded on (a slowed
#: member and network loss).
REMATCH_FAULTS: tuple[str, ...] = ("none", "slow", "packet_loss")


@dataclass(frozen=True)
class RematchCell:
    """One point of the bundle x fault rematch grid."""

    bundle_key: str
    fault_key: str
    config: ExperimentConfig

    @property
    def label(self) -> str:
        return "{}|{}".format(self.bundle_key, self.fault_key)


@dataclass(frozen=True)
class RematchReport:
    """Results of a rematch run, one summary-like object per cell."""

    cells: tuple[RematchCell, ...]
    results: tuple

    def rows(self) -> list[dict]:
        """One metrics dict per cell, grid keys included.

        ``probes_per_s`` is the probe-message overhead a probing policy
        pays (zero for every non-probing policy); ``sticky_violations``
        counts broken affinity promises (zero unless the bundle pins
        sessions).  Together with ``goodput`` they show both sides of
        each modern policy's trade.
        """
        rows = []
        for cell, result in zip(self.cells, self.results):
            stats = result.stats()
            rows.append({
                "bundle": cell.bundle_key,
                "fault": cell.fault_key,
                "vlrt_pct": 100.0 * stats.vlrt_fraction,
                "availability": result.availability(),
                "goodput": result.goodput(),
                "probes_per_s": result.probe_messages() / result.duration,
                "sticky_violations": result.sticky_violations(),
                "requests": stats.count,
                "drops": result.dropped_packets(),
                "errors_503": result.error_responses(),
                "ttr": time_to_recover(result),
            })
        return rows

    def render(self) -> str:
        """The grid as a fixed-width text table."""
        from repro.analysis.report import rematch_table

        return rematch_table(self.rows())


class PolicyRematch:
    """Rerun Table I with the modern-policy zoo across a fault axis.

    The grid crosses policy bundles (by default every Table-I row plus
    every modern bundle) with chaos fault scenarios (by default
    :data:`REMATCH_FAULTS`), one cell per combination, all sharing one
    profile, duration and seed — the headline question being whether
    probing/idle-queue policies sidestep the millibottleneck trap that
    sinks ``total_request``, and at what probe-message overhead.
    """

    def __init__(self,
                 bundle_keys: Optional[Sequence[str]] = None,
                 fault_keys: Optional[Sequence[str]] = None,
                 duration: float = CHAOS_DURATION,
                 seed: int = 42,
                 profile: Optional[ScaleProfile] = None) -> None:
        if bundle_keys is None:
            bundle_keys = [bundle.key for bundle
                           in TABLE1_BUNDLES + MODERN_BUNDLES]
        self.bundle_keys = list(dict.fromkeys(bundle_keys))
        self.fault_keys = list(fault_keys if fault_keys is not None
                               else REMATCH_FAULTS)
        for key in self.bundle_keys:
            if key not in BUNDLES:
                raise ConfigurationError(
                    "unknown policy bundle {!r} (one of {})".format(
                        key, ", ".join(sorted(BUNDLES))))
        for key in self.fault_keys:
            if key not in FAULT_SCENARIOS:
                raise ConfigurationError(
                    "unknown fault scenario {!r}".format(key))
        if not 0 < duration < float("inf"):
            raise ConfigurationError("duration must be positive and finite")
        self.duration = duration
        self.seed = seed
        self.profile = profile or ScaleProfile.smoke()

    def cells(self) -> tuple[RematchCell, ...]:
        """The grid, bundle-major, in deterministic order."""
        cells = []
        for bundle_key in self.bundle_keys:
            for fault_key in self.fault_keys:
                cells.append(RematchCell(
                    bundle_key=bundle_key,
                    fault_key=fault_key,
                    config=ExperimentConfig(
                        bundle_key=bundle_key,
                        profile=self.profile,
                        duration=self.duration,
                        seed=self.seed,
                        trace_lb_values=False,
                        trace_dispatches=False,
                        faults=fault_specs(fault_key, self.duration),
                    )))
        return tuple(cells)

    def run(self, workers: Optional[int] = 1, mix=None) -> RematchReport:
        """Run every cell and collect the report (see ChaosSuite.run)."""
        from repro.parallel import run_experiments

        cells = self.cells()
        results = run_experiments([cell.config for cell in cells],
                                  workers=workers, mix=mix)
        return RematchReport(cells=cells, results=tuple(results))
