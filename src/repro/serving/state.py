"""The bundle of serving-side state one coordinator run owns.

Kept free of any ``repro.core`` import so the ``repro.serving`` package
root can be imported from ``core.config`` validation without a cycle:
the coordinator-side glue lives in ``repro.serving.coordinator`` and is
imported only by the runtime strategies.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import Instrument, MetricsRegistry
from repro.serving.admission import AdmissionQueue
from repro.serving.cache import ResultCache
from repro.serving.slo import ServingTimeline
from repro.simmpi.errors import SimError

__all__ = ["ServingState"]


class ServingState:
    """Admission queue + optional result cache + SLO timeline + schedule,
    and the event handlers over them that every serving coordinator (the
    serving pipeline, the fault harness under arrivals) runs unchanged."""

    def __init__(
        self,
        schedule: np.ndarray,
        queue_depth: int,
        overload_policy: str,
        cache_size: int = 0,
        metrics=None,
        cache_namespace: bytes = b"",
    ) -> None:
        self.schedule = np.asarray(schedule, dtype=np.float64)
        n = int(self.schedule.shape[0])
        self.n_queries = n
        #: the run-wide registry: the admission and cache ledgers and the
        #: offered load are counted there and nowhere else
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.offered = n
        self.admission = AdmissionQueue(queue_depth, overload_policy, metrics=self.registry)
        self.cache = (
            ResultCache(cache_size, metrics=self.registry, namespace=cache_namespace)
            if cache_size > 0
            else None
        )
        self.timeline = ServingTimeline(n)
        self.timeline.arrival[:] = self.schedule
        #: arrivals consumed off the fabric so far (monotone cursor)
        self.consumed = 0
        #: queries dropped by admission (their results must never be served)
        self.dropped: set[int] = set()
        #: cache key per probed-and-missed query, for insert at completion
        self.keys: dict[int, bytes] = {}

    #: queries the arrival schedule offers to the ingress
    offered = Instrument("counter", "serving.offered")

    def drop(self, query_id: int) -> None:
        self.dropped.add(int(query_id))
        # a dropped query never completes: its timeline stays NaN
        self.timeline.dispatch[query_id] = np.nan
        self.timeline.complete[query_id] = np.nan

    def accounted(self) -> bool:
        """The admission invariant: every offered query is in one ledger."""
        a = self.admission
        return a.admitted + a.shed + a.rejected == self.offered

    # -- event handlers --------------------------------------------------------

    def on_arrival(self, ctx, payload) -> None:
        """An ``arrive`` message came off the fabric: offer the query to
        admission; what the overload policy refuses or displaces is dropped."""
        _, qid, _t = payload
        self.consumed += 1
        outcome, dropped = self.admission.offer(qid)
        ctx.trace_instant("arrive", query_id=int(qid), outcome=outcome)
        if outcome == "rejected":
            self.drop(qid)
        elif outcome == "shed":
            self.drop(dropped)

    def admit(self, ctx) -> int:
        """Take the admission-queue head into service; returns its id."""
        qid = self.admission.begin_service()
        self.timeline.note_dispatch(qid, ctx.now)
        ctx.trace_instant("admit", query_id=int(qid))
        return qid

    def probe_cache(self, ctx, qid: int, q: np.ndarray):
        """The cached ``(dists, ids)`` row for ``q``, or None — then the key
        is kept so :meth:`complete` can seed the cache with the answer."""
        key = self.cache.key(q)
        row = self.cache.get(key)
        ctx.trace_instant("cache_probe", query_id=int(qid), hit=row is not None)
        if row is None:
            self.keys[qid] = key
        return row

    def serve_hit(self, ctx, qid: int, row, results, report) -> None:
        """A hit: the answer is already at the master — serve it without
        touching the cluster (zero-cost completion)."""
        d, ids = row
        results[qid] = (d.copy(), ids.copy())
        self.timeline.note_complete(qid, ctx.now)
        ctx.trace_instant("complete", query_id=int(qid), cached=True)
        report.fanouts.append(0)

    def complete(self, ctx, qid: int, slot, cacheable: bool = True) -> None:
        """Query ``qid`` finished with merged answer ``slot``: stamp the
        timeline and, if it was probed and missed, seed the cache."""
        self.timeline.note_complete(qid, ctx.now)
        key = self.keys.pop(qid, None)
        if key is not None and slot is not None and cacheable:
            d, ids = slot
            self.cache.put(key, (d.copy(), ids.copy()))

    def close(self, report) -> None:
        """Check the admission invariant and hand the per-query timeline
        to the run's report (the ledgers are already in the registry)."""
        adm = self.admission
        if not self.accounted():
            raise SimError(
                "serving admission ledgers do not cover the offered load: "
                f"admitted {adm.admitted} + shed {adm.shed} + rejected "
                f"{adm.rejected} != offered {self.offered}"
            )
        report.query_latencies = self.timeline.latencies()
        report.arrival_times = self.timeline.arrival
        report.dispatch_times = self.timeline.dispatch
        report.complete_times = self.timeline.complete
