"""The remedy layer: what a deployment can do about transient faults.

The paper studies two remedies — the ``current_load`` policy and the
modified single-probe ``get_endpoint`` — both *balancer-internal*.
This package adds the remedies that live around the balancer in real
deployments, each wired in only when configured and strictly zero-cost
when absent:

* :class:`~repro.resilience.retry.RetryPolicy` — client-side
  per-request timeout + capped exponential backoff with jitter
  (wired into :class:`~repro.workload.client.Client`);
* :class:`~repro.resilience.hedge.HedgePolicy` /
  :class:`~repro.resilience.hedge.HedgingDispatcher` — web-tier
  duplicate-after-delay with first-wins cancellation (wrapping
  :class:`~repro.core.balancer.LoadBalancer`);
* :class:`~repro.resilience.breaker.BreakerConfig` /
  :class:`~repro.resilience.breaker.CircuitBreaker` — per-member
  closed/open/half-open admission control generalising the paper's
  OK/Busy/Error machine (consulted by ``LoadBalancer`` and fed by a
  mechanism wrapper in :mod:`repro.core.mechanism`);
* :class:`~repro.resilience.probes.ProbeConfig` /
  :class:`~repro.resilience.probes.HealthProber` — active health
  probes feeding member state independently of request traffic.

:class:`ResilienceConfig` bundles any subset; :data:`RESILIENCE_BUNDLES`
names the combinations the chaos suite crosses with fault scenarios.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.breaker": ("BreakerConfig", "BreakerState",
                                 "CircuitBreaker"),
    "repro.resilience.hedge": ("HedgePolicy", "HedgingDispatcher"),
    "repro.resilience.probes": ("HealthProber", "ProbeConfig"),
    "repro.resilience.retry": ("RetryPolicy",),
    "repro.resilience.bundles": ("RESILIENCE_BUNDLES", "ResilienceConfig",
                                 "get_resilience"),
})
