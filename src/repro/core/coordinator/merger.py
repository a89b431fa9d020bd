"""Streaming result consumption behind one interface.

The coordinator's receive side has two shapes — two-sided results and
(with flow control on) one-sided credit acks — and two consumers: the
plain pipeline's collect loops and the
:class:`~repro.core.coordinator.window.DispatchWindow`'s blocked
dispatch, which *streams* results while waiting for a credit so merging
overlaps in-flight work.  :meth:`ResultMerger.consume_one` is the one
message-at-a-time entry both use; the fault harness reuses the
lower-level :meth:`merge_payload` (its receive is a deadline-bounded
``wait_any``, not a plain wait).
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
    merged at most once, and per-query merges commute — see
    ``GlobalResults.combine``) is what lets a finite window consume
    results *during* dispatch without changing D/I.

    ``note_result`` observes each settled two-sided row (per-query
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
        this in its own ``reduce`` span.
        """
        k = self.config.k
        _, query_ids, pid_part, ds, idss = payload
        rows = []
        for qid, d, ids in zip(query_ids, ds, idss):
            yield from ctx.compute(ctx.cost.compare_cost(len(d) + k), kind="merge")
            self.results.update(qid, d, ids)
            rows.append((qid, d))
        return rows, pid_part

    def settle_credit(self, payload, window, ctx: Context | None = None) -> None:
        """Settle one credit-ack payload: count the tasks done, return
        their dispatch credits.  Pure bookkeeping — charges no time."""
        _, qids_b, pid_part = payload
        for qid in qids_b:
            self.tasks_completed += 1
            window.release((int(qid), int(pid_part)))
            if ctx is not None and ctx.trace_active:
                ctx.trace_instant(
                    "task_settle", query_id=int(qid), partition=int(pid_part)
                )

    def finish_rows(self, rows, pid_part, window, ctx: Context | None = None) -> None:
        """Settle already-merged rows: credits back, completion hooks.
        Pure bookkeeping — charges no time."""
        trace = ctx is not None and ctx.trace_active
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
        if self.one_sided:
            with ctx.span("reduce"):
                req = yield from ctx.recv(ctx.mailbox, tag=TAG_CREDIT)
            self.settle_credit(req.payload, window, ctx=ctx)
            return
        with ctx.span("reduce"):
            req = yield from ctx.recv(ctx.mailbox, tag=TAG_RESULT)
            rows, pid_part = yield from self.merge_payload(ctx, req.payload)
        self.finish_rows(rows, pid_part, window, ctx=ctx)
