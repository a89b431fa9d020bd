"""Serving-run summaries: admission ledger, cache effectiveness, SLO.

A thin reduction over :class:`~repro.runtime.report.SearchReport`'s
serving fields into the quantities an operator reads off a dashboard —
what fraction of offered load was answered, how hard the cache worked,
and how much of each query's life was queueing versus service.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ServingStats", "serving_stats"]


@dataclass(frozen=True)
class ServingStats:
    """One serving run's admission / cache / SLO summary."""

    offered: int
    admitted: int
    shed: int
    rejected: int
    max_ingress_depth: int
    cache_hits: int
    cache_misses: int
    cache_stale: int
    #: hits / (hits + misses + stale); 0.0 with the cache off
    cache_hit_rate: float
    #: mean virtual seconds queries spent in the ingress queue
    mean_queue_seconds: float
    #: mean virtual seconds queries spent in service
    mean_service_seconds: float
    slo_target_seconds: float
    slo_violation_fraction: float


def serving_stats(report) -> ServingStats:
    """Summarise a serving :class:`SearchReport`.

    Raises ``ValueError`` on a closed-loop report — there is no ingress
    queue, cache, or SLO clock to summarise without an arrival process.
    """
    if report.offered_queries == 0:
        raise ValueError(
            "not a serving run: the report offered no queries through an "
            "arrival process (set arrival=... to run open-loop serving)"
        )
    lookups = report.cache_hits + report.cache_misses + report.cache_stale
    q = report.queue_seconds
    s = report.service_seconds
    mean_queue = float(np.nanmean(q)) if q is not None and np.any(np.isfinite(q)) else 0.0
    mean_service = float(np.nanmean(s)) if s is not None and np.any(np.isfinite(s)) else 0.0
    return ServingStats(
        offered=int(report.offered_queries),
        admitted=int(report.admitted_queries),
        shed=int(report.shed_queries),
        rejected=int(report.rejected_queries),
        max_ingress_depth=int(report.max_ingress_depth),
        cache_hits=int(report.cache_hits),
        cache_misses=int(report.cache_misses),
        cache_stale=int(report.cache_stale),
        cache_hit_rate=report.cache_hits / lookups if lookups else 0.0,
        mean_queue_seconds=mean_queue,
        mean_service_seconds=mean_service,
        slo_target_seconds=float(report.slo_target_seconds),
        slo_violation_fraction=float(report.slo_violation_fraction),
    )
