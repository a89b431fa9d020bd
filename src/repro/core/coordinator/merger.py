"""Streaming result consumption behind one interface.

The coordinator's receive side has two shapes — two-sided results and
(with flow control on) one-sided credit acks — and two consumers: the
plain pipeline's collect loops and the
:class:`~repro.core.coordinator.window.DispatchWindow`'s blocked
dispatch, which *streams* results while waiting for a credit so merging
overlaps in-flight work.  :meth:`ResultMerger.consume_one` is the one
message-at-a-time entry both use; the serving coordinator and the fault
harness reuse the lower-level :meth:`merge_payload` (each receives
arrivals and results through one receive over both tags, the harness's
bounded by a deadline).
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.coordinator.report import MasterReport
from repro.core.messages import TAG_CREDIT, TAG_RESULT
from repro.core.results import GlobalResults
from repro.simmpi.engine import Context

__all__ = ["ResultMerger"]


class ResultMerger:
    """Merge worker answers into :class:`GlobalResults`, one message at
    a time, releasing dispatch credits as tasks settle.

    Order independence of the merge (each (query, partition) pair is
    merged at most once, and a slot is ranked by the associative
    ``merge_knn`` rule however its answers arrived — see
    :class:`GlobalResults`) is what lets a finite window consume results
    *during* dispatch without changing D/I.  A merge here only appends the
    row to its query's slot; the rank happens when the slot is read.

    ``note_result`` observes each settled row (per-query
    latency accounting); ``on_complete(qid, pid, d)`` feeds the adaptive
    path's second-wave trigger.
    """

    def __init__(
        self,
        config: SystemConfig,
        results: GlobalResults,
        report: MasterReport,
        one_sided: bool,
    ) -> None:
        self.config = config
        self.results = results
        self.report = report
        self.one_sided = one_sided
        #: rows settled at this coordinator (results merged, or one-sided
        #: credit acks consumed); the collect loops run it up to tasks_sent
        self.tasks_completed = 0
        self.note_result = None
        self.on_complete = None

    def merge_payload(self, ctx: Context, payload):
        """Merge one result payload; returns ``(rows, pid)`` with
        ``rows`` a list of settled ``(query_id, dists)`` pairs.

        Charges one ``compare_cost`` merge per row — the caller wraps
        this in its own ``reduce`` span.  A one-sided credit ack's rows
        landed in the RMA window already: it merges nothing and charges
        nothing, and its rows carry no distances.
        """
        if payload[0] == "credit":
            return [(qid, None) for qid in payload[1]], payload[2]
        k = self.config.k
        _, query_ids, pid_part, ds, idss = payload
        rows = []
        for qid, d, ids in zip(query_ids, ds, idss):
            yield ctx.compute_op(ctx.cost.compare_cost(len(d) + k), "merge")
            self.results.update(qid, d, ids)
            rows.append((qid, d))
        return rows, pid_part

    def finish_rows(self, rows, pid_part, window, ctx: Context) -> None:
        """Settle already-merged rows: credits back, completion hooks.
        Pure bookkeeping — charges no time."""
        trace = ctx.trace_active
        for qid, d in rows:
            self.tasks_completed += 1
            window.release((qid, pid_part))
            if trace:
                ctx.trace_instant("task_settle", query_id=int(qid), partition=int(pid_part))
            if self.note_result is not None:
                self.note_result(qid)
            if self.on_complete is not None:
                self.on_complete(qid, pid_part, d)

    def consume_one(self, ctx: Context, window):
        """Receive and settle one in-flight message, releasing credits.

        Two-sided: one result message (possibly a whole batch row set).
        One-sided: one credit ack — the data already landed in the RMA
        window, only the flow-control bookkeeping passes through the
        coordinator.
        """
        start = ctx.span_begin("reduce")
        try:
            req = yield ctx.recv_op(ctx.mailbox, tag=TAG_CREDIT if self.one_sided else TAG_RESULT)
            rows, pid_part = yield from self.merge_payload(ctx, req.payload)
        finally:
            ctx.span_end("reduce", start)
        self.finish_rows(rows, pid_part, window, ctx)
