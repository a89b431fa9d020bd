"""The per-coordinator measurement record.

One :class:`MasterReport` per coordinator proc (the master, or each owner
in the multiple-owner mode).  It holds what only that proc can know and no
instrument can — per-core dispatch counts, fan-outs, the per-query arrays
— which the :class:`~repro.runtime.report.ReportBuilder` composes into
the public :class:`~repro.runtime.report.SearchReport`.

Its scalar counters are :class:`~repro.obs.metrics.Instrument` attributes
over the run-wide :class:`~repro.obs.metrics.MetricsRegistry` every
coordinator of a run shares, so ``report.tasks_sent += 1`` call sites
count straight into the one set of books ``SearchReport`` reads from;
nothing sums or copies them afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import Instrument, MetricsRegistry

__all__ = ["MasterReport"]


class MasterReport:
    """What the coordinator learned during one batch (consumed by SearchReport)."""

    def __init__(self, n_cores: int, registry: MetricsRegistry) -> None:
        #: the run-wide registry backing every scalar counter below
        self.registry = registry
        self.dispatch_counts = np.zeros(n_cores, dtype=np.int64)
        self.fanouts: list[int] = []
        #: per-query completion latency (virtual s from batch start to the
        #: query's last result landing at the master); two-sided mode only —
        #: in one-sided mode results bypass the master, so per-query
        #: completion is unobservable there (None)
        self.query_latencies: np.ndarray | None = None
        #: per-query fraction of routed partitions that answered (1.0 =
        #: complete); None on the plain paths, where completion is all-or-hang
        self.completeness: np.ndarray | None = None
        #: cores the dispatcher declared dead after repeated timeouts
        self.suspected_dead_cores: list[int] = []
        #: (virtual time, total modeled queued tasks) samples from the
        #: selector's LoadTracker (None without one); capped/downsampled —
        #: see loadbalance.MAX_TIMELINE_SAMPLES
        self.queue_depth_timeline: np.ndarray | None = None
        #: per-query serving timestamps on the virtual clock (None in
        #: closed-loop runs); NaN where a query was shed/rejected
        self.arrival_times: np.ndarray | None = None
        self.dispatch_times: np.ndarray | None = None
        self.complete_times: np.ndarray | None = None

    # -- dispatch/routing counters ----------------------------------------
    tasks_sent = Instrument("counter", "coordinator.tasks_sent")
    #: task *messages* sent; equals ``tasks_sent`` at batch_size 1,
    #: shrinks toward ``tasks_sent / batch_size`` as batching kicks in
    batches_sent = Instrument("counter", "coordinator.batches_sent")
    route_dist_evals = Instrument("counter", "router.dist_evals")
    #: virtual seconds dispatch spent blocked waiting for credits
    credit_stall_seconds = Instrument("counter", "dispatch.credit_stall_seconds")
    # -- fault-tolerance accounting (zero on the plain paths) -------------
    #: re-dispatches to the same core after a timeout
    retries = Instrument("counter", "faults.retries")
    #: re-dispatches to a different replica after a timeout
    failovers = Instrument("counter", "faults.failovers")
    #: tasks abandoned with no live replica / attempts exhausted
    failed_tasks = Instrument("counter", "faults.failed_tasks")
    #: late or duplicated results dropped by (query, partition) dedup
    duplicate_results = Instrument("counter", "faults.duplicate_results")
