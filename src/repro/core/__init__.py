"""The paper's contribution: mod_jk's load balancer, its failure modes
under millibottlenecks, and the two remedies.

* Policies (upper scheduler level): ``total_request``,
  ``total_traffic`` — cumulative, unstable under millibottlenecks —
  and ``current_load``, the policy-level remedy, plus a zoo of extra
  policies for ablations.
* Mechanism (lower level): ``OriginalGetEndpoint`` (Algorithm 1's
  poll-with-sleep) and ``ModifiedGetEndpoint``, the mechanism-level
  remedy that treats an unresponsive candidate as Busy immediately.
* The 3-state member lifecycle, per-backend endpoint pools, and the
  per-Apache :class:`LoadBalancer` that ties it all together.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.balancer": ("LoadBalancer", "DirectDispatcher",
                            "BalancerConfig"),
    "repro.core.member": ("BalancerMember", "Endpoint", "DEFAULT_POOL_SIZE"),
    "repro.core.states": ("MemberState", "StateConfig"),
    "repro.core.policies": ("Policy", "TotalRequestPolicy",
                            "TotalTrafficPolicy", "CurrentLoadPolicy",
                            "RoundRobinPolicy", "RandomPolicy",
                            "TwoChoicesPolicy", "EwmaLatencyPolicy",
                            "PrequalPolicy", "PrequalProbeConfig",
                            "JoinIdleQueuePolicy", "WeightedLeastConnPolicy",
                            "StickyConfig", "StickySessionPolicy",
                            "POLICIES", "make_policy", "LB_MULT"),
    "repro.core.mechanism": ("GetEndpointMechanism", "OriginalGetEndpoint",
                             "ModifiedGetEndpoint", "MECHANISMS",
                             "make_mechanism",
                             "DEFAULT_CACHE_ACQUIRE_TIMEOUT",
                             "DEFAULT_JK_SLEEP"),
    "repro.core.remedies": ("RemedyBundle", "TABLE1_BUNDLES",
                            "MODERN_BUNDLES", "BUNDLES", "get_bundle"),
})
