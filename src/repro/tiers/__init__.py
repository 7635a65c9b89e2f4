"""Tier server models.

The three classic servers — Apache (web), Tomcat (app), MySQL
(database) — are thin configurations of the generic service models in
:mod:`repro.tiers.base` (:class:`FrontendTier`, :class:`WorkerTier`,
:class:`PooledTier`), which declarative topologies instantiate
directly for arbitrary tier chains.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tiers.base": ("TierServer", "FrontendTier", "WorkerTier",
                         "PooledTier", "InlineDownstream",
                         "DispatchDownstream", "Dispatcher",
                         "PRE_DB_FRACTION"),
    "repro.tiers.apache": ("ApacheServer", "DEFAULT_MAX_CLIENTS",
                           "DEFAULT_BACKLOG", "DEFAULT_ACCESS_LOG_BYTES"),
    "repro.tiers.tomcat": ("TomcatServer", "DEFAULT_MAX_THREADS"),
    "repro.tiers.mysql": ("MySqlServer", "DEFAULT_MAX_CONNECTIONS"),
})
