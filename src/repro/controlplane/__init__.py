"""The control plane: capacity management around the data path.

PR 3's resilience layer holds the *data-plane* remedies (retries,
hedging, breakers, probes).  This package holds the mechanisms a real
deployment's control plane adds on top, each opt-in and zero-event
when unconfigured:

* :class:`~repro.controlplane.autoscaler.ReactiveAutoscaler` — samples
  per-tier CPU/queue depth and adds/removes replicas with provisioning
  lag; new replicas join every upstream balancer cold;
* :class:`~repro.controlplane.admission.TokenBucketAdmission` —
  capacity/refill-rate/lease token bucket at the frontend, shed or
  queue on empty;
* :class:`~repro.controlplane.leveling.LevelingQueue` — bounded FIFO
  in front of a balancer boundary that frees frontend workers so the
  accept queue never overflows (no drops, no TCP retransmission);
* :class:`~repro.controlplane.bulkhead.Bulkhead` — read/write
  partitioning of a tier's capacity.

:class:`ControlPlaneConfig` bundles any subset, mirroring
:class:`~repro.resilience.ResilienceConfig`; the named
:data:`CONTROLPLANE_BUNDLES` extend the chaos suite's remedy axis
alongside :data:`~repro.resilience.RESILIENCE_BUNDLES`.  The headline
result they exist to pin: the autoscaler's control loop — at any
plausible sampling interval — cannot catch a 50–200 ms
millibottleneck, while admission + leveling eliminate the
retransmission-driven VLRTs without touching the balancer policy.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.controlplane.admission": ("AdmissionConfig", "AdmissionRecord",
                                     "TokenBucketAdmission"),
    "repro.controlplane.autoscaler": ("AutoscalerConfig", "ReactiveAutoscaler",
                                      "ScaleEvent"),
    "repro.controlplane.bulkhead": ("Bulkhead", "BulkheadConfig"),
    "repro.controlplane.leveling": ("LevelingConfig", "LevelingDispatcher",
                                    "LevelingQueue"),
    "repro.controlplane.bundles": ("CONTROLPLANE_BUNDLES",
                                   "ControlPlaneConfig", "get_controlplane"),
})
