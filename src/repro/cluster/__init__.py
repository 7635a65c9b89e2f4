"""Topology, configuration, and experiment execution."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.config": ("ScaleProfile", "SoftwareStack",
                             "HardwareConfig", "PaperTierConfig"),
    "repro.cluster.topology": ("NTierSystem", "build_system",
                               "build_from_spec", "replica_factory_for",
                               "retire_replica"),
    "repro.cluster.faults": ("FaultInjector", "FaultSpec", "CrashFault",
                             "SlowFault", "PacketLossFault",
                             "LinkLatencyFault", "CorrelatedCrashFault",
                             "RecurringFault", "ZoneOutageFault",
                             "WanDegradationFault", "CrashRecord",
                             "SlowRecord", "NetworkFaultRecord"),
    "repro.cluster.spec": ("TopologySpec", "TierSpec", "BoundarySpec",
                           "FlushSpec", "WorkloadSpec", "ZoneSpec",
                           "ZoneLinkSpec", "LinkProfileSpec", "CacheSpec",
                           "ShardSpec", "BUILTIN_TOPOLOGIES", "get_topology"),
    "repro.cluster.runner": ("ExperimentConfig", "ExperimentResult",
                             "ExperimentRunner", "compare_policies"),
    "repro.cluster.sweeps": ("Sweep",),
    "repro.cluster.scenarios": ("Scenario", "baseline_no_millibottleneck",
                                "single_node_millibottleneck", "policy_run",
                                "table1_run", "FIGURE_DURATION",
                                "TABLE_DURATION"),
    "repro.cluster.chaos": ("CHAOS_DURATION", "FAULT_SCENARIOS",
                            "ZONE_FAULT_KEYS", "ChaosCell", "ChaosReport",
                            "ChaosSuite", "fault_specs", "fault_horizon",
                            "time_to_recover", "all_remedy_keys",
                            "resolve_remedy"),
    "repro.cluster.geo": ("GEO_FAULTS", "GeoCell", "GeoReport", "GeoSuite"),
})
