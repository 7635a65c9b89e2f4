"""Declarative topology specifications.

The paper is about *N-tier* systems; this module makes the "N" data
instead of code.  A :class:`TopologySpec` names an ordered chain of
tiers (:class:`TierSpec`: service model, replica count, concurrency
limit, host profile, optional millibottleneck profile) and, between
each adjacent pair, a :class:`BoundarySpec` describing how requests
cross the boundary — through a per-upstream-server load balancer
(balancer-per-boundary, the mod_jk arrangement), a policy-free
round-robin direct dispatcher, or an inline call on the caller's
thread (the classic Tomcat→MySQL wiring).

Specs are pure frozen data: loadable from a Python dict or JSON file
(:meth:`TopologySpec.from_dict`, :meth:`TopologySpec.from_json`),
picklable across process pools, and validated eagerly with
:class:`~repro.errors.ConfigurationError`\\ s that name the offending
field.  :func:`repro.cluster.topology.build_from_spec` turns a spec
into a wired :class:`~repro.cluster.topology.NTierSystem`; the classic
paper topology is :meth:`TopologySpec.classic` and builds an
event-for-event identical system to the historical hand-coded one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.config import ScaleProfile
from repro.core.policies import PrequalProbeConfig, StickyConfig
from repro.errors import ConfigurationError
from repro.netmodel.sockets import LinkProfile
from repro.osmodel.profiles import MillibottleneckProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.admission import AdmissionConfig
    from repro.controlplane.autoscaler import AutoscalerConfig
    from repro.controlplane.bulkhead import BulkheadConfig
    from repro.controlplane.leveling import LevelingConfig

#: The service models a tier can be configured with (see
#: :mod:`repro.tiers.base`, :mod:`repro.tiers.cache`).
SERVICE_MODELS = ("frontend", "worker", "pooled", "cache")

#: How requests cross a tier boundary.
BOUNDARY_MODES = ("balanced", "direct", "inline", "sharded")

#: Default CPU-demand attribute of :class:`~repro.workload.interactions.
#: Interaction` per service model.
DEFAULT_CPU_SOURCE = {
    "frontend": "apache_cpu",
    "worker": "tomcat_cpu",
    "pooled": "mysql_cpu",
    # A cache burns app-tier-shaped CPU: its misses do the same work a
    # worker would, its hits a configured fraction of it.
    "cache": "tomcat_cpu",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _from_mapping(cls, data, what: str):
    """Build a spec dataclass from a dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            "{} must be a mapping, got {!r}".format(what, data))
    allowed = set(cls.__dataclass_fields__)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigurationError(
            "unknown {} field(s): {} (allowed: {})".format(
                what, ", ".join(unknown), ", ".join(sorted(allowed))))
    return cls(**data)


@dataclass(frozen=True)
class FlushSpec:
    """Millibottleneck machinery of one tier's hosts.

    ``profile(index)`` staggers first-flush phases across replicas
    (``phase + stagger * index``), matching the paper's zoom-ins where
    one server stalls at a time.
    """

    interval: float = 4.0
    threshold_bytes: float = 256e3
    stagger: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        _require(self.interval > 0, "flush interval must be positive")
        _require(self.threshold_bytes > 0,
                 "flush threshold_bytes must be positive")
        _require(self.stagger >= 0, "flush stagger must be >= 0")
        _require(self.phase >= 0, "flush phase must be >= 0")

    def profile(self, index: int) -> MillibottleneckProfile:
        """Flush profile of the ``index``-th replica of the tier."""
        return MillibottleneckProfile(
            flush_interval=self.interval,
            dirty_threshold_bytes=self.threshold_bytes,
            phase=self.stagger * index + self.phase,
        )


@dataclass(frozen=True)
class LinkProfileSpec:
    """Declarative network-path behaviour (see runtime
    :class:`~repro.netmodel.sockets.LinkProfile`).

    ``latency`` is the one-way propagation delay; ``jitter`` adds a
    uniform [0, jitter) draw per traversal; ``loss`` is the per-frame
    loss probability (each loss costs one link-layer retransmission
    clocked by ``rto``); ``bandwidth`` (bytes/s) adds serialization
    delay when set.
    """

    latency: float = 0.03
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth: Optional[float] = None
    rto: float = 0.2

    def __post_init__(self) -> None:
        _require(self.latency >= 0, "link latency must be >= 0")
        _require(self.jitter >= 0, "link jitter must be >= 0")
        _require(0.0 <= self.loss < 1.0, "link loss must be in [0, 1)")
        if self.bandwidth is not None:
            _require(self.bandwidth > 0, "link bandwidth must be positive")
        _require(self.rto > 0, "link rto must be positive")

    def runtime(self, name: str = "wan") -> LinkProfile:
        """The runtime :class:`LinkProfile` this spec describes."""
        return LinkProfile(latency=self.latency, jitter=self.jitter,
                           loss=self.loss, bandwidth=self.bandwidth,
                           rto=self.rto, name=name)

    @classmethod
    def from_dict(cls, data: dict) -> "LinkProfileSpec":
        return _from_mapping(cls, data, "link profile")


@dataclass(frozen=True)
class ZoneSpec:
    """One availability zone replicas can be placed in.

    ``link`` is the zone's *default* WAN profile: any cross-zone hop
    touching this zone without a more specific
    :class:`ZoneLinkSpec`/boundary override pays it.
    """

    name: str
    link: Optional[LinkProfileSpec] = None

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str),
                 "zone name must be a non-empty string")

    @classmethod
    def from_dict(cls, data: dict) -> "ZoneSpec":
        data = dict(data) if isinstance(data, dict) else data
        if isinstance(data, dict) and isinstance(data.get("link"), dict):
            data["link"] = LinkProfileSpec.from_dict(data["link"])
        return _from_mapping(cls, data, "zone")


@dataclass(frozen=True)
class ZoneLinkSpec:
    """WAN profile of one specific (unordered) zone pair."""

    zones: tuple[str, str]
    link: LinkProfileSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "zones", tuple(self.zones))
        _require(len(self.zones) == 2,
                 "zone link needs exactly two zone names, got {!r}".format(
                     self.zones))
        _require(self.zones[0] != self.zones[1],
                 "zone link {!r} connects a zone to itself".format(
                     self.zones[0]))
        _require(isinstance(self.link, LinkProfileSpec),
                 "zone link needs a link profile")

    @property
    def pair(self) -> tuple[str, str]:
        """Order-independent key of the pair."""
        return tuple(sorted(self.zones))

    @classmethod
    def from_dict(cls, data: dict) -> "ZoneLinkSpec":
        data = dict(data) if isinstance(data, dict) else data
        if isinstance(data, dict):
            if isinstance(data.get("zones"), list):
                data["zones"] = tuple(data["zones"])
            if isinstance(data.get("link"), dict):
                data["link"] = LinkProfileSpec.from_dict(data["link"])
        return _from_mapping(cls, data, "zone link")


@dataclass(frozen=True)
class CacheSpec:
    """Behaviour of a cache-aside tier (service model ``cache``).

    The effective hit ratio is ``hit_ratio * ttl / (ttl + churn)``
    scaled by a cold-start warm-up curve ``1 - exp(-(now - warm_start)
    / warmup)``: ``churn`` is the mean re-reference interval of an
    entry (longer TTLs keep more of them fresh — hit ratio is
    monotone in ``ttl``), and a crashed-then-recovered cache restarts
    the warm-up clock, which is exactly the failover instability the
    geo experiment measures.
    """

    hit_ratio: float = 0.8
    ttl: float = 60.0
    churn: float = 30.0
    warmup: float = 5.0
    hit_cpu_fraction: float = 0.1

    def __post_init__(self) -> None:
        _require(0.0 <= self.hit_ratio <= 1.0,
                 "cache hit_ratio must be in [0, 1]")
        _require(self.ttl > 0, "cache ttl must be positive")
        _require(self.churn >= 0, "cache churn must be >= 0")
        _require(self.warmup >= 0, "cache warmup must be >= 0")
        _require(0.0 < self.hit_cpu_fraction <= 1.0,
                 "cache hit_cpu_fraction must be in (0, 1]")

    @classmethod
    def from_dict(cls, data: dict) -> "CacheSpec":
        return _from_mapping(cls, data, "cache")


@dataclass(frozen=True)
class ShardSpec:
    """Key-sharded fan-out over a pooled tier (boundary ``sharded``).

    A consistent-hash ring with ``virtual_nodes`` vnodes per replica
    routes each request's key (drawn from a ``key_space``-sized
    population, Zipf-skewed by ``skew``; 0 = uniform) to its owner
    shard; retire/join moves only ~1/N of the key space.
    """

    virtual_nodes: int = 64
    key_space: int = 1024
    skew: float = 0.0

    def __post_init__(self) -> None:
        _require(self.virtual_nodes >= 1,
                 "shard virtual_nodes must be >= 1")
        _require(self.key_space >= 1, "shard key_space must be >= 1")
        _require(self.skew >= 0, "shard skew must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        return _from_mapping(cls, data, "shard")


@dataclass(frozen=True)
class TierSpec:
    """One tier of the chain.

    ``capacity`` is the tier's concurrency limit in its service model's
    native unit: ``MaxClients`` worker slots for a frontend,
    ``maxThreads`` for a worker, pooled connections for a pooled tier.
    ``flush=None`` disables millibottlenecks on the tier's hosts;
    ``disk_bandwidth=None`` keeps the host default.  ``cpu_source``
    names the :class:`~repro.workload.interactions.Interaction`
    attribute the tier burns per request (defaulted per service model),
    so a 4-tier chain can split the app-tier demand any way it likes.
    """

    name: str
    service: str
    replicas: int = 1
    capacity: int = 8
    cores: int = 4
    backlog: int = 32
    disk_bandwidth: Optional[float] = None
    flush: Optional[FlushSpec] = None
    cpu_source: Optional[str] = None
    #: Token-bucket admission control (frontend tiers only).
    admission: Optional[AdmissionConfig] = None
    #: Read/write capacity partition (frontend or pooled tiers).
    bulkhead: Optional[BulkheadConfig] = None
    #: Reactive replica scaling (any tier but the frontend — clients
    #: bind their sockets when the population is created).
    autoscaler: Optional[AutoscalerConfig] = None
    #: HAProxy-style static capacity weights, one per replica; read by
    #: upstream ``weighted_least_conn`` balancers (members scaled in
    #: later default to weight 1.0).
    weights: Optional[tuple[float, ...]] = None
    #: Replica -> zone assignment: one zone name per replica.  ``None``
    #: round-robins replicas across the topology's zones (when any are
    #: declared); zone names are checked against
    #: :attr:`TopologySpec.zones` at topology level.
    placement: Optional[tuple[str, ...]] = None
    #: Cache behaviour; only meaningful (and only allowed) on
    #: ``service="cache"`` tiers, which default it when omitted.
    cache: Optional[CacheSpec] = None

    def __post_init__(self) -> None:
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
        if self.placement is not None:
            object.__setattr__(self, "placement", tuple(self.placement))
        _require(bool(self.name) and isinstance(self.name, str),
                 "tier name must be a non-empty string")
        _require(self.service in SERVICE_MODELS,
                 "tier {!r}: unknown service model {!r} (one of {})".format(
                     self.name, self.service, ", ".join(SERVICE_MODELS)))
        _require(self.replicas >= 1,
                 "tier {!r}: replicas must be >= 1".format(self.name))
        _require(self.capacity >= 1,
                 "tier {!r}: capacity must be >= 1".format(self.name))
        _require(self.cores >= 1,
                 "tier {!r}: cores must be >= 1".format(self.name))
        _require(self.backlog >= 1,
                 "tier {!r}: backlog must be >= 1".format(self.name))
        if self.disk_bandwidth is not None:
            _require(self.disk_bandwidth > 0,
                     "tier {!r}: disk_bandwidth must be positive".format(
                         self.name))
        if self.admission is not None:
            _require(self.service == "frontend",
                     "tier {!r}: admission control belongs on the "
                     "frontend tier (the client-facing gate)".format(
                         self.name))
        if self.bulkhead is not None:
            _require(self.service in ("frontend", "pooled"),
                     "tier {!r}: bulkheads partition frontend worker "
                     "slots or pooled connections, not {!r} tiers".format(
                         self.name, self.service))
        if self.weights is not None:
            _require(len(self.weights) == self.replicas,
                     "tier {!r}: need one weight per replica "
                     "({} != {})".format(self.name, len(self.weights),
                                         self.replicas))
            _require(all(w > 0 for w in self.weights),
                     "tier {!r}: weights must be positive".format(self.name))
        if self.autoscaler is not None:
            _require(self.service != "frontend",
                     "tier {!r}: frontend tiers cannot autoscale — "
                     "clients bind their sockets at startup".format(
                         self.name))
            _require(self.autoscaler.min_replicas <= self.replicas
                     <= self.autoscaler.max_replicas,
                     "tier {!r}: replicas={} outside the autoscaler "
                     "range [{}, {}]".format(
                         self.name, self.replicas,
                         self.autoscaler.min_replicas,
                         self.autoscaler.max_replicas))
        if self.placement is not None:
            _require(len(self.placement) == self.replicas,
                     "tier {!r}: placement names {} zone(s) for {} "
                     "replica(s) — need exactly one per replica".format(
                         self.name, len(self.placement), self.replicas))
            _require(all(isinstance(z, str) and z for z in self.placement),
                     "tier {!r}: placement entries must be non-empty "
                     "zone names".format(self.name))
            _require(self.autoscaler is None,
                     "tier {!r}: explicit placement and autoscaling "
                     "conflict — scaled-in replicas have no zone".format(
                         self.name))
        if self.cache is not None:
            _require(self.service == "cache",
                     "tier {!r}: cache tuning belongs on a 'cache' "
                     "tier, not {!r}".format(self.name, self.service))

    @property
    def effective_cpu_source(self) -> str:
        return self.cpu_source or DEFAULT_CPU_SOURCE[self.service]

    @property
    def effective_cache(self) -> CacheSpec:
        """Cache behaviour with defaults applied (cache tiers only)."""
        return self.cache or CacheSpec()

    @classmethod
    def from_dict(cls, data: dict) -> "TierSpec":
        from repro.controlplane.admission import AdmissionConfig
        from repro.controlplane.autoscaler import AutoscalerConfig
        from repro.controlplane.bulkhead import BulkheadConfig

        data = dict(data) if isinstance(data, dict) else data
        if isinstance(data, dict):
            if isinstance(data.get("flush"), dict):
                data["flush"] = _from_mapping(FlushSpec, data["flush"],
                                              "flush")
            for key, config_cls in (("admission", AdmissionConfig),
                                    ("bulkhead", BulkheadConfig),
                                    ("autoscaler", AutoscalerConfig),
                                    ("cache", CacheSpec)):
                if isinstance(data.get(key), dict):
                    data[key] = _from_mapping(config_cls, data[key], key)
            if isinstance(data.get("weights"), list):
                data["weights"] = tuple(data["weights"])
            if isinstance(data.get("placement"), list):
                data["placement"] = tuple(data["placement"])
        return _from_mapping(cls, data, "tier")


@dataclass(frozen=True)
class BoundarySpec:
    """How requests cross one tier boundary.

    * ``balanced`` — every upstream server runs its own
      :class:`~repro.core.balancer.LoadBalancer` over the downstream
      replicas; ``bundle`` names the Table-I policy/mechanism pair
      (it may be left ``None`` when the experiment supplies one).
    * ``direct`` — a policy-free round-robin
      :class:`~repro.core.balancer.DirectDispatcher` per upstream
      server (the paper's §III-B no-balancer configuration).
    * ``inline`` — the upstream worker thread calls the (single)
      downstream pooled server directly, holding one pooled connection
      for the whole request (the classic Tomcat→MySQL wiring).

    ``pool_size`` overrides the per-member AJP endpoint pool for this
    boundary's balancers; ``resilience`` names a remedy bundle from
    :data:`repro.resilience.RESILIENCE_BUNDLES` to wire around them.
    """

    mode: str = "balanced"
    bundle: Optional[str] = None
    pool_size: Optional[int] = None
    resilience: Optional[str] = None
    #: Bounded load-leveling FIFO in front of this boundary's
    #: dispatchers (frontends integrate it natively; deeper boundaries
    #: get a request/reply wrapper).  Not available on inline
    #: boundaries — there is no dispatcher to level.
    leveling: Optional[LevelingConfig] = None
    #: Probe-pool tuning for probing policies (``prequal``); applied
    #: via ``Policy.configure``, which rejects it for any policy that
    #: does not probe.
    probe: Optional[PrequalProbeConfig] = None
    #: Session-affinity tuning for ``sticky`` balancers; rejected by
    #: every other policy.
    affinity: Optional[StickyConfig] = None
    #: WAN profile every cross-zone hop on this boundary pays,
    #: overriding zone-pair/zone-default resolution.  In a zone-free
    #: topology it applies to *every* hop on the boundary (a uniform
    #: WAN boundary).  Inline boundaries have no network hop to
    #: profile, so a link there is rejected.
    link: Optional[LinkProfileSpec] = None
    #: Grow a zone-local balancer per zone under a global
    #: :class:`~repro.core.balancer.ZoneRouter` (locality-first with
    #: cross-zone spillover) instead of one flat balancer over every
    #: replica.  Requires ``balanced`` mode and declared zones.
    hierarchy: bool = False
    #: Consistent-hash sharding tuning; only meaningful on ``sharded``
    #: boundaries (which default it when omitted).
    shard: Optional[ShardSpec] = None

    def __post_init__(self) -> None:
        _require(self.mode in BOUNDARY_MODES,
                 "unknown boundary mode {!r} (one of {})".format(
                     self.mode, ", ".join(BOUNDARY_MODES)))
        if self.mode == "inline":
            _require(self.link is None,
                     "inline boundaries take no link profile — an "
                     "inline call never crosses the network")
        if self.hierarchy:
            _require(self.mode == "balanced",
                     "boundary mode {!r} cannot build a zone "
                     "hierarchy — only balanced boundaries grow "
                     "zone-local balancers".format(self.mode))
        if self.shard is not None:
            _require(self.mode == "sharded",
                     "shard tuning belongs on a 'sharded' boundary, "
                     "not {!r}".format(self.mode))
        if self.pool_size is not None:
            _require(self.pool_size >= 1, "boundary pool_size must be >= 1")
        if self.bundle is not None:
            from repro.core.remedies import BUNDLES

            _require(self.bundle in BUNDLES,
                     "unknown policy bundle {!r} (one of {})".format(
                         self.bundle, ", ".join(sorted(BUNDLES))))
        if self.resilience is not None:
            from repro.resilience import RESILIENCE_BUNDLES

            _require(self.resilience in RESILIENCE_BUNDLES,
                     "unknown resilience bundle {!r} (one of {})".format(
                         self.resilience,
                         ", ".join(sorted(RESILIENCE_BUNDLES))))
        if self.mode != "balanced":
            _require(self.bundle is None,
                     "boundary mode {!r} takes no policy bundle".format(
                         self.mode))
            _require(self.resilience is None,
                     "boundary mode {!r} takes no resilience bundle".format(
                         self.mode))
            _require(self.probe is None,
                     "boundary mode {!r} takes no probe tuning — only "
                     "balanced boundaries run probing policies".format(
                         self.mode))
            _require(self.affinity is None,
                     "boundary mode {!r} takes no affinity tuning — only "
                     "balanced boundaries run sticky policies".format(
                         self.mode))
        if self.mode == "inline":
            _require(self.leveling is None,
                     "inline boundaries take no leveling queue — there "
                     "is no dispatcher to level")

    @property
    def effective_shard(self) -> ShardSpec:
        """Shard tuning with defaults applied (sharded boundaries)."""
        return self.shard or ShardSpec()

    @classmethod
    def from_dict(cls, data: dict) -> "BoundarySpec":
        from repro.controlplane.leveling import LevelingConfig

        data = dict(data) if isinstance(data, dict) else data
        if isinstance(data, dict):
            for key, config_cls in (("leveling", LevelingConfig),
                                    ("probe", PrequalProbeConfig),
                                    ("affinity", StickyConfig),
                                    ("link", LinkProfileSpec),
                                    ("shard", ShardSpec)):
                if isinstance(data.get(key), dict):
                    data[key] = _from_mapping(config_cls, data[key], key)
        return _from_mapping(cls, data, "boundary")


@dataclass(frozen=True)
class WorkloadSpec:
    """Closed-loop client population to drive a topology with."""

    clients: int = 200
    think_time: float = 1.0
    ramp_up: float = 1.0

    def __post_init__(self) -> None:
        _require(self.clients >= 1, "workload clients must be >= 1")
        _require(self.think_time > 0, "workload think_time must be positive")
        _require(self.ramp_up >= 0, "workload ramp_up must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return _from_mapping(cls, data, "workload")


@dataclass(frozen=True)
class TopologySpec:
    """An ordered tier chain plus one boundary between each pair."""

    name: str
    tiers: tuple[TierSpec, ...]
    boundaries: tuple[BoundarySpec, ...]
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Availability zones replicas can be placed in; empty = the
    #: classic single-cluster world (zero behaviour change).
    zones: tuple[ZoneSpec, ...] = ()
    #: Per-zone-pair WAN overrides (more specific than zone defaults).
    zone_links: tuple[ZoneLinkSpec, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists from hand-built specs; store tuples.
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "zone_links", tuple(self.zone_links))
        _require(bool(self.name), "topology name must be non-empty")
        _require(len(self.tiers) >= 2,
                 "topology {!r}: need at least two tiers, got {}".format(
                     self.name, len(self.tiers)))
        names = [tier.name for tier in self.tiers]
        _require(len(set(names)) == len(names),
                 "topology {!r}: duplicate tier names in {}".format(
                     self.name, names))
        _require(len(self.boundaries) == len(self.tiers) - 1,
                 "topology {!r}: {} tiers need {} boundaries, got {}".format(
                     self.name, len(self.tiers), len(self.tiers) - 1,
                     len(self.boundaries)))
        _require(self.tiers[0].service == "frontend",
                 "topology {!r}: first tier must use the 'frontend' "
                 "service model (clients need accept sockets)".format(
                     self.name))
        for tier in self.tiers[1:]:
            _require(tier.service != "frontend",
                     "topology {!r}: tier {!r} cannot be a frontend — "
                     "only the first tier faces clients".format(
                         self.name, tier.name))
        for tier in self.tiers[:-1]:
            _require(tier.service != "pooled",
                     "topology {!r}: pooled tier {!r} must be last — "
                     "it has no downstream".format(self.name, tier.name))
        _require(self.tiers[-1].service != "cache",
                 "topology {!r}: cache tier {!r} cannot be last — "
                 "cache-aside needs a downstream to miss to".format(
                     self.name, self.tiers[-1].name))
        zone_names = [zone.name for zone in self.zones]
        _require(len(set(zone_names)) == len(zone_names),
                 "topology {!r}: duplicate zone names in {}".format(
                     self.name, zone_names))
        known_zones = set(zone_names)
        seen_pairs = set()
        for zone_link in self.zone_links:
            for zone in zone_link.zones:
                _require(zone in known_zones,
                         "topology {!r}: zone link references unknown "
                         "zone {!r} (declared: {})".format(
                             self.name, zone,
                             ", ".join(zone_names) or "none"))
            _require(zone_link.pair not in seen_pairs,
                     "topology {!r}: duplicate zone link for pair "
                     "{}".format(self.name, zone_link.pair))
            seen_pairs.add(zone_link.pair)
        for tier in self.tiers:
            if tier.placement is None:
                continue
            _require(bool(self.zones),
                     "topology {!r}: tier {!r} has a placement but the "
                     "topology declares no zones".format(
                         self.name, tier.name))
            for zone in tier.placement:
                _require(zone in known_zones,
                         "topology {!r}: tier {!r} placed in unknown "
                         "zone {!r} (declared: {})".format(
                             self.name, tier.name, zone,
                             ", ".join(zone_names)))
        for depth, boundary in enumerate(self.boundaries):
            upstream, downstream = self.tiers[depth], self.tiers[depth + 1]
            where = "boundary {} ({} -> {})".format(
                depth, upstream.name, downstream.name)
            if boundary.hierarchy:
                _require(bool(self.zones),
                         "{}: a zone hierarchy needs declared "
                         "zones".format(where))
            if boundary.mode == "sharded":
                _require(downstream.service == "pooled",
                         "{}: sharded boundaries fan out over a pooled "
                         "tier".format(where))
            if boundary.mode == "inline":
                _require(upstream.service == "worker",
                         "{}: inline needs a worker upstream".format(where))
                _require(downstream.service == "pooled",
                         "{}: inline needs a pooled downstream".format(where))
                _require(downstream.replicas == 1,
                         "{}: inline cannot fan out over {} replicas — "
                         "use a balanced or direct boundary".format(
                             where, downstream.replicas))
                _require(downstream.autoscaler is None,
                         "{}: an inline downstream cannot autoscale — "
                         "inline callers bind to the single replica".format(
                             where))

    # -- (de)serialisation -------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                "topology spec must be a mapping, got {!r}".format(data))
        unknown = sorted(
            set(data) - {"name", "tiers", "boundaries", "workload",
                         "zones", "zone_links"})
        if unknown:
            raise ConfigurationError(
                "unknown topology field(s): " + ", ".join(unknown))
        tiers = data.get("tiers") or ()
        if not isinstance(tiers, (list, tuple)):
            raise ConfigurationError("topology tiers must be a list")
        boundaries = data.get("boundaries")
        if boundaries is None:
            boundaries = [{} for _ in range(max(0, len(tiers) - 1))]
        if not isinstance(boundaries, (list, tuple)):
            raise ConfigurationError("topology boundaries must be a list")
        zones = data.get("zones") or ()
        if not isinstance(zones, (list, tuple)):
            raise ConfigurationError("topology zones must be a list")
        zone_links = data.get("zone_links") or ()
        if not isinstance(zone_links, (list, tuple)):
            raise ConfigurationError("topology zone_links must be a list")
        workload = data.get("workload")
        return cls(
            name=data.get("name", ""),
            tiers=tuple(TierSpec.from_dict(tier) for tier in tiers),
            boundaries=tuple(BoundarySpec.from_dict(boundary)
                             for boundary in boundaries),
            workload=(WorkloadSpec.from_dict(workload)
                      if workload is not None else WorkloadSpec()),
            zones=tuple(ZoneSpec.from_dict(zone) for zone in zones),
            zone_links=tuple(ZoneLinkSpec.from_dict(zone_link)
                             for zone_link in zone_links),
        )

    @classmethod
    def from_json(cls, text: str) -> "TopologySpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                "topology spec is not valid JSON: {}".format(error))
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "TopologySpec":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> dict:
        data = asdict(self)
        for tier in data["tiers"]:
            for key in ("flush", "disk_bandwidth", "cpu_source",
                        "admission", "bulkhead", "autoscaler", "weights",
                        "placement", "cache"):
                if tier[key] is None:
                    del tier[key]
            if "weights" in tier:
                tier["weights"] = list(tier["weights"])
            if "placement" in tier:
                tier["placement"] = list(tier["placement"])
        for boundary in data["boundaries"]:
            for key in ("bundle", "pool_size", "resilience", "leveling",
                        "probe", "affinity", "link", "shard"):
                if boundary[key] is None:
                    del boundary[key]
            if not boundary["hierarchy"]:
                del boundary["hierarchy"]
        for zone in data["zones"]:
            if zone["link"] is None:
                del zone["link"]
        for zone_link in data["zone_links"]:
            zone_link["zones"] = list(zone_link["zones"])
        for key in ("zones", "zone_links"):
            if not data[key]:
                del data[key]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- derived -----------------------------------------------------------
    def tier_named(self, name: str) -> TierSpec:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise ConfigurationError("no tier named " + repr(name))

    def scale_profile(self) -> ScaleProfile:
        """A :class:`ScaleProfile` carrying this spec's workload knobs.

        Only the workload fields matter when building from a spec (the
        tier knobs all come from the spec itself); the counts are
        mirrored so reporting code sees a faithful profile.
        """
        return ScaleProfile(
            name=self.name,
            apache_count=self.tiers[0].replicas,
            tomcat_count=self.tiers[1].replicas,
            clients=self.workload.clients,
            think_time=self.workload.think_time,
            ramp_up=self.workload.ramp_up,
        )

    def describe(self) -> str:
        """A compact human-readable rendering for ``topology show``."""
        lines = ["topology {!r}: {} tiers, {} clients".format(
            self.name, len(self.tiers), self.workload.clients)]
        if self.zones:
            parts = []
            for zone in self.zones:
                if zone.link is not None:
                    parts.append("{} (wan {:.0f} ms, loss {:.2%})".format(
                        zone.name, zone.link.latency * 1000,
                        zone.link.loss))
                else:
                    parts.append(zone.name)
            lines.append("  zones: " + ", ".join(parts))
        for depth, tier in enumerate(self.tiers):
            flush = (" flush(interval={}, threshold={:.0f})".format(
                tier.flush.interval, tier.flush.threshold_bytes)
                if tier.flush else "")
            extras = ""
            if tier.admission is not None:
                extras += " admission({}/s)".format(
                    tier.admission.refill_rate)
            if tier.bulkhead is not None:
                extras += " bulkhead(r={}, w={})".format(
                    tier.bulkhead.read_slots, tier.bulkhead.write_slots)
            if tier.autoscaler is not None:
                extras += " autoscale[{}..{}]".format(
                    tier.autoscaler.min_replicas,
                    tier.autoscaler.max_replicas)
            if tier.weights is not None:
                extras += " weights({})".format(
                    ", ".join("{:g}".format(w) for w in tier.weights))
            if tier.placement is not None:
                extras += " @[{}]".format(", ".join(tier.placement))
            if tier.service == "cache":
                cache = tier.effective_cache
                extras += " cache(hit={:.0%}, ttl={:g}s)".format(
                    cache.hit_ratio, cache.ttl)
            lines.append("  [{}] {} x{} ({}, capacity={}){}{}".format(
                depth, tier.name, tier.replicas, tier.service,
                tier.capacity, flush, extras))
            if depth < len(self.boundaries):
                boundary = self.boundaries[depth]
                detail = boundary.mode
                if boundary.hierarchy:
                    detail += " hierarchy"
                if boundary.mode == "sharded":
                    shard = boundary.effective_shard
                    detail += "(vnodes={}, skew={:g})".format(
                        shard.virtual_nodes, shard.skew)
                if boundary.link is not None:
                    detail += " link({:.0f} ms, loss {:.2%})".format(
                        boundary.link.latency * 1000, boundary.link.loss)
                if boundary.bundle:
                    detail += " bundle=" + boundary.bundle
                if boundary.resilience:
                    detail += " resilience=" + boundary.resilience
                if boundary.leveling:
                    detail += " leveling(cap={})".format(
                        boundary.leveling.capacity)
                if boundary.probe:
                    detail += " probe(interval={}, d={})".format(
                        boundary.probe.interval, boundary.probe.d)
                if boundary.affinity:
                    detail += " affinity(fallback={})".format(
                        boundary.affinity.fallback)
                lines.append("       | " + detail)
        return "\n".join(lines)

    # -- built-in shapes ----------------------------------------------------
    @classmethod
    def classic(cls, profile: Optional[ScaleProfile] = None,
                tomcat_millibottlenecks: bool = True,
                apache_millibottlenecks: bool = False,
                use_balancer: bool = True,
                bundle: Optional[str] = None) -> "TopologySpec":
        """The paper's Fig. 14 topology as data.

        Building this spec produces a system event-for-event identical
        to the historical hand-coded ``build_system`` — the golden
        traces prove it.
        """
        profile = profile or ScaleProfile()
        tomcat_flush = (FlushSpec(
            interval=profile.flush_interval,
            threshold_bytes=profile.flush_threshold_bytes,
            stagger=profile.tomcat_flush_stagger)
            if tomcat_millibottlenecks else None)
        apache_flush = (FlushSpec(
            interval=profile.flush_interval,
            threshold_bytes=profile.flush_threshold_bytes,
            stagger=profile.tomcat_flush_stagger,
            phase=0.5)
            if apache_millibottlenecks else None)
        return cls(
            name="classic",
            tiers=(
                TierSpec(name="apache", service="frontend",
                         replicas=profile.apache_count,
                         capacity=profile.apache_max_clients,
                         cores=profile.apache_cores,
                         backlog=profile.apache_backlog,
                         disk_bandwidth=profile.apache_disk_bandwidth,
                         flush=apache_flush),
                TierSpec(name="tomcat", service="worker",
                         replicas=profile.tomcat_count,
                         capacity=profile.tomcat_max_threads,
                         cores=profile.tomcat_cores,
                         disk_bandwidth=profile.tomcat_disk_bandwidth,
                         flush=tomcat_flush),
                TierSpec(name="mysql", service="pooled",
                         replicas=1,
                         capacity=profile.mysql_connections,
                         cores=profile.mysql_cores),
            ),
            boundaries=(
                BoundarySpec(mode="balanced" if use_balancer else "direct",
                             bundle=bundle if use_balancer else None),
                BoundarySpec(mode="inline"),
            ),
            workload=WorkloadSpec(clients=profile.clients,
                                  think_time=profile.think_time,
                                  ramp_up=profile.ramp_up),
        )

    @classmethod
    def replicated_db(cls) -> "TopologySpec":
        """Three tiers with a *replicated* database behind its own
        balancer — the shape the fixed wiring could never express.

        Each Tomcat runs a ``current_load`` balancer over the MySQL
        replicas, so a millibottleneck on one replica exercises the
        same policy pathologies one tier deeper.
        """
        return cls(
            name="replicated_db",
            tiers=(
                TierSpec(name="apache", service="frontend", replicas=2,
                         capacity=8, backlog=10),
                TierSpec(name="tomcat", service="worker", replicas=2,
                         capacity=8, flush=FlushSpec(threshold_bytes=64e3)),
                TierSpec(name="mysql", service="pooled", replicas=2,
                         capacity=12),
            ),
            boundaries=(
                BoundarySpec(mode="balanced", bundle="current_load_modified"),
                BoundarySpec(mode="balanced", bundle="current_load"),
            ),
            workload=WorkloadSpec(clients=160),
        )

    @classmethod
    def four_tier(cls) -> "TopologySpec":
        """A 4-tier chain with a *mid-tier* millibottleneck.

        Web -> service -> backend -> DB, balanced at every non-inline
        boundary; the flush machinery sits on the third tier, so the
        stall propagates through two cascaded balancing layers before
        it reaches the clients.
        """
        return cls(
            name="four_tier",
            tiers=(
                TierSpec(name="web", service="frontend", replicas=2,
                         capacity=8, backlog=10),
                TierSpec(name="service", service="worker", replicas=2,
                         capacity=8),
                TierSpec(name="backend", service="worker", replicas=2,
                         capacity=8, cpu_source="tomcat_cpu",
                         flush=FlushSpec(threshold_bytes=64e3)),
                TierSpec(name="db", service="pooled", replicas=1,
                         capacity=16),
            ),
            boundaries=(
                BoundarySpec(mode="balanced", bundle="current_load_modified"),
                BoundarySpec(mode="balanced", bundle="current_load"),
                BoundarySpec(mode="inline"),
            ),
            workload=WorkloadSpec(clients=160),
        )


    @classmethod
    def geo(cls, hierarchy: bool = True,
            disk_bandwidth: Optional[float] = None,
            clients: int = 160) -> "TopologySpec":
        """Two zones × the classic chain, plus a cache and a 2-shard DB.

        ``east`` and ``west`` each host one replica of every tier;
        the east-west WAN pays 40 ms with jitter and a little loss.
        ``hierarchy=True`` grows zone-local balancers under a global
        zone router at both balanced boundaries; ``False`` is the
        flat single-global-balancer control cell.  ``disk_bandwidth``
        starves the worker tier's disks (the millibottleneck knob the
        headline zone-outage experiment turns on the surviving zone).
        """
        wan = LinkProfileSpec(latency=0.04, jitter=0.005, loss=0.002,
                              rto=0.2)
        return cls(
            name="geo" if hierarchy else "geo_flat",
            zones=(ZoneSpec(name="east"), ZoneSpec(name="west")),
            zone_links=(ZoneLinkSpec(zones=("east", "west"), link=wan),),
            tiers=(
                TierSpec(name="apache", service="frontend", replicas=2,
                         capacity=8, backlog=10,
                         placement=("east", "west")),
                TierSpec(name="tomcat", service="worker", replicas=2,
                         capacity=8, disk_bandwidth=disk_bandwidth,
                         flush=FlushSpec(threshold_bytes=64e3),
                         placement=("east", "west")),
                TierSpec(name="cache", service="cache", replicas=2,
                         capacity=8, placement=("east", "west"),
                         cache=CacheSpec(hit_ratio=0.8, ttl=60.0,
                                         churn=30.0, warmup=5.0)),
                TierSpec(name="mysql", service="pooled", replicas=2,
                         capacity=12, placement=("east", "west")),
            ),
            boundaries=(
                BoundarySpec(mode="balanced",
                             bundle="current_load_modified",
                             hierarchy=hierarchy),
                BoundarySpec(mode="balanced", bundle="current_load",
                             hierarchy=hierarchy),
                BoundarySpec(mode="sharded",
                             shard=ShardSpec(virtual_nodes=64,
                                             key_space=1024, skew=0.9)),
            ),
            workload=WorkloadSpec(clients=clients),
        )


#: Built-in topologies addressable by name from the CLI.
BUILTIN_TOPOLOGIES = {
    "classic": TopologySpec.classic,
    "replicated_db": TopologySpec.replicated_db,
    "four_tier": TopologySpec.four_tier,
    "geo": TopologySpec.geo,
    "geo_flat": lambda: TopologySpec.geo(hierarchy=False),
}


def get_topology(key: str) -> TopologySpec:
    """Look up a built-in topology by name."""
    try:
        return BUILTIN_TOPOLOGIES[key]()
    except KeyError:
        raise ConfigurationError(
            "unknown topology {!r} (one of {})".format(
                key, ", ".join(sorted(BUILTIN_TOPOLOGIES))))
