"""Geo-scale headline experiment: does hierarchy contain the fault?

The paper showed a *single-cluster* balancer cannot route around a
millibottleneck it cannot see in time.  The geo question is whether a
zone-local **hierarchy** (per-zone balancers under a locality-first
zone router, :class:`~repro.core.balancer.ZoneRouter`) contains a
zone-scale fault better than one flat global balancer over the same
replicas — or whether spillover just ships the overload across a lossy
WAN and reproduces the VLRT signature with extra RTT.

:class:`GeoSuite` crosses the two ``geo`` builtins (hierarchical vs
flat) with three geo-scale fault timelines:

``zone_outage``
    Every east replica crashes together while the surviving zone's
    worker disks are starved (the millibottleneck knob) — the
    spillover traffic lands exactly where flushing stalls live.
``wan_degradation``
    The east-west backbone browns out: latency jumps and loss makes
    every cross-zone hop pay link-layer retransmissions.
``cache_failover``
    One cache replica crashes and comes back *cold*; the cell records
    request traces so the report can show whether VLRTs re-cluster one
    tier down (DB queue wait behind the suddenly-missing hit ratio).

Cells run serially (the report reads live ``system`` objects — zone
router spillover counters, WAN retransmit counts, cache hit ratios —
which do not survive a process pool).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.faults import (
    CrashFault,
    FaultSpec,
    WanDegradationFault,
    ZoneOutageFault,
)
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.spec import TopologySpec
from repro.errors import ConfigurationError

__all__ = ["GEO_DURATION", "GEO_FAULTS", "TRACED_FAULTS", "GeoCell",
           "GeoReport", "GeoSuite"]

#: Default run length for geo cells (seconds) — long enough for the
#: fault window plus recovery, short enough for CI.
GEO_DURATION = 12.0

#: Disk bandwidth of the worker tier in the suite's topologies: well
#: under the 8 MB/s classic default, so a surviving zone that absorbs
#: spillover is flushing into a starved disk (the millibottleneck).
STARVED_DISK_BANDWIDTH = 3e6

#: Named geo-scale fault timelines, ``duration -> specs`` like
#: :data:`~repro.cluster.chaos.FAULT_SCENARIOS`.
GEO_FAULTS: dict[str, Callable[[float], tuple[FaultSpec, ...]]] = {
    "zone_outage": lambda d: (
        ZoneOutageFault("east", at=0.25 * d, duration=0.3 * d,
                        jitter=0.02 * d),),
    "wan_degradation": lambda d: (
        WanDegradationFault("east", "west", at=0.25 * d,
                            duration=0.35 * d, latency=0.25, loss=0.05),),
    "cache_failover": lambda d: (
        CrashFault("cache1", at=0.25 * d, duration=0.2 * d),),
}

#: Fault keys whose cells record request traces, so the report can
#: decompose VLRT time into the new buckets (``wan.transit``,
#: ``cache.miss_penalty``, per-tier queue wait).
TRACED_FAULTS = frozenset({"cache_failover"})

#: The bucket columns traced cells report, as fractions of VLRT time.
_BUCKET_COLUMNS = ("wan.transit", "retransmission", "cache.miss_penalty",
                   "queue_wait.mysql")


@dataclass(frozen=True)
class GeoCell:
    """One point of the topology x fault grid."""

    topology_key: str  # "geo" (hierarchy) or "geo_flat"
    fault_key: str
    config: ExperimentConfig

    @property
    def label(self) -> str:
        return "{}|{}".format(self.topology_key, self.fault_key)


@dataclass(frozen=True)
class GeoReport:
    """Results of a suite run, one live ExperimentResult per cell."""

    cells: tuple[GeoCell, ...]
    results: tuple

    def rows(self) -> list[dict]:
        """One metrics dict per cell, grid keys included.

        ``spillovers`` counts dispatches the zone router had to send
        out-of-zone (always 0 for the flat topology — there is no
        router); ``wan_retransmits`` counts frames the WAN links lost
        and re-sent.  Traced cells add ``buckets``: the fraction of
        total VLRT latency each named bucket explains.
        """
        rows = []
        for cell, result in zip(self.cells, self.results):
            stats = result.stats()
            system = result.system
            caches = [server for server in system.servers
                      if hasattr(server, "effective_hit_ratio")]
            lookups = sum(c.hits + c.misses for c in caches)
            row = {
                "topology": cell.topology_key,
                "fault": cell.fault_key,
                "requests": stats.count,
                "vlrt_pct": 100.0 * stats.vlrt_fraction,
                "availability": result.availability(),
                "drops": result.dropped_packets(),
                "errors_503": result.error_responses(),
                "spillovers": sum(router.spillovers
                                  for router in system.zone_routers),
                "wan_retransmits": sum(link.wan_retransmits
                                       for link in system.wan_links),
                "cache_hit_pct": (100.0 * sum(c.hits for c in caches)
                                  / lookups if lookups else 0.0),
                "cold_restarts": sum(c.cold_restarts for c in caches),
                "buckets": None,
            }
            if result.tracer is not None:
                row["buckets"] = self._bucket_fractions(result)
            rows.append(row)
        return rows

    @staticmethod
    def _bucket_fractions(result) -> dict[str, float]:
        """Share of VLRT critical-path time per bucket of interest."""
        explanation = result.explain_vlrt()
        totals: dict[str, float] = {}
        grand = 0.0
        for path in explanation.paths:
            for bucket, seconds in path.buckets.items():
                totals[bucket] = totals.get(bucket, 0.0) + seconds
                grand += seconds
        if grand <= 0.0:
            return {bucket: 0.0 for bucket in _BUCKET_COLUMNS}
        return {bucket: totals.get(bucket, 0.0) / grand
                for bucket in _BUCKET_COLUMNS}

    def render(self) -> str:
        """The grid as a fixed-width text table."""
        header = ("{:<9s} {:<16s} {:>6s} {:>7s} {:>7s} {:>6s} {:>5s} "
                  "{:>6s} {:>8s} {:>8s}").format(
                      "topology", "fault", "reqs", "vlrt%", "avail%",
                      "drops", "503s", "spill", "wan_rtx", "hit%")
        lines = [header, "-" * len(header)]
        for row in self.rows():
            lines.append(
                "{:<9s} {:<16s} {:>6d} {:>7.3f} {:>7.2f} {:>6d} {:>5d} "
                "{:>6d} {:>8d} {:>8.1f}".format(
                    row["topology"], row["fault"], row["requests"],
                    row["vlrt_pct"], 100.0 * row["availability"],
                    row["drops"], row["errors_503"], row["spillovers"],
                    row["wan_retransmits"], row["cache_hit_pct"]))
            if row["buckets"] is not None:
                shares = "  ".join(
                    "{}={:.1f}%".format(bucket, 100.0 * share)
                    for bucket, share in row["buckets"].items())
                lines.append("          vlrt time: " + shares)
        return "\n".join(lines)


class GeoSuite:
    """Cross {hierarchy, flat} geo topologies with geo-scale faults.

    Both topologies share replica placement, WAN profile, workload and
    seed; the only difference is the balancer shape, so any difference
    in a row pair is attributable to hierarchy alone.
    """

    def __init__(self,
                 fault_keys: Optional[Sequence[str]] = None,
                 duration: float = GEO_DURATION,
                 seed: int = 42,
                 disk_bandwidth: float = STARVED_DISK_BANDWIDTH,
                 clients: int = 160) -> None:
        self.fault_keys = list(fault_keys if fault_keys is not None
                               else sorted(GEO_FAULTS))
        for key in self.fault_keys:
            if key not in GEO_FAULTS:
                raise ConfigurationError(
                    "unknown geo fault {!r}; available: {}".format(
                        key, ", ".join(sorted(GEO_FAULTS))))
        if not 0 < duration < float("inf"):
            raise ConfigurationError("duration must be positive and finite")
        self.duration = duration
        self.seed = seed
        self.topologies = {
            "geo": TopologySpec.geo(hierarchy=True,
                                    disk_bandwidth=disk_bandwidth,
                                    clients=clients),
            "geo_flat": TopologySpec.geo(hierarchy=False,
                                         disk_bandwidth=disk_bandwidth,
                                         clients=clients),
        }

    def cells(self) -> tuple[GeoCell, ...]:
        """The grid, topology-major, in deterministic order."""
        cells = []
        for topology_key in ("geo", "geo_flat"):
            spec = self.topologies[topology_key]
            for fault_key in self.fault_keys:
                cells.append(GeoCell(
                    topology_key=topology_key,
                    fault_key=fault_key,
                    config=ExperimentConfig(
                        profile=spec.scale_profile(),
                        topology=spec,
                        duration=self.duration,
                        seed=self.seed,
                        trace_lb_values=False,
                        trace_dispatches=False,
                        trace_requests=fault_key in TRACED_FAULTS,
                        faults=tuple(GEO_FAULTS[fault_key](self.duration)),
                    )))
        return tuple(cells)

    def run(self) -> GeoReport:
        """Run every cell serially and collect the report."""
        cells = self.cells()
        results = tuple(ExperimentRunner(cell.config).run()
                        for cell in cells)
        return GeoReport(cells=cells, results=results)
