"""The open-loop serving coordinator.

Where :class:`~repro.core.coordinator.pipeline.CoordinatorPipeline`
holds the whole batch at t = 0 and pushes it through, the
:class:`ServingPipeline` is event-driven: queries become work only when
their ``TAG_ARRIVE`` message lands, pass through the admission queue,
and are served one at a time from its head.  The loop interleaves three
activities on the virtual clock —

1. consume arrivals that have already happened (offer to admission);
2. consume results/credit-acks that have already landed (settle tasks,
   complete queries, feed the cache);
3. serve the queue head: cache probe first, then route, then dispatch
   every routed partition — *gated* on every partition's workgroup
   having a spare credit, so service is head-of-line blocking rather
   than unbounded deferral (the bounded ingress queue stays the only
   queue).

Arrivals and results come in through one receive over both tags
(``ctx.recv`` with a ``frozenset`` tag), so they are settled in fabric
arrival order, earliest first, and the interleaving is causal and
deterministic.  ``ctx.iprobe`` tells, without an engine event, whether
anything has arrived by now; when nothing has and the head cannot be
served, that same receive blocks until the next message lands.

Cache hits complete instantly at the master — no routing charge, no
dispatch, no worker time — which is exactly the capacity win the bench
measures; a run with the cache enabled but no hits does the same sends
at the same times as a run with the cache off (the equivalence the
tests pin).
"""

from __future__ import annotations

import numpy as np

from repro.core.coordinator.drain import await_thread_exits, broadcast_end
from repro.core.coordinator.merger import ResultMerger
from repro.core.coordinator.router import Router
from repro.core.coordinator.window import DispatchWindow
from repro.core.messages import TAG_ARRIVE, TAG_CREDIT, TAG_RESULT
from repro.serving.state import ServingState
from repro.simmpi.engine import Context
from repro.simmpi.errors import SimError

__all__ = ["ServingPipeline"]


class ServingPipeline:
    """One serving run's coordinator (approx routing, batch_size 1)."""

    def __init__(
        self,
        queries: np.ndarray,
        router: Router,
        window: DispatchWindow,
        merger: ResultMerger,
        serving: ServingState,
    ) -> None:
        self.queries = queries
        self.router = router
        self.window = window
        self.merger = merger
        self.config = window.config
        self.report = window.report
        self.results = merger.results
        self.serving = serving
        #: memoized route per query (the head may be retried while
        #: credit-blocked; it must not be re-routed or re-probed)
        self._routes: dict[int, list[int]] = {}
        self._outstanding = np.zeros(serving.n_queries, dtype=np.int64)

    # -- event handlers ------------------------------------------------------

    def _note_settle(self, ctx: Context, qid: int) -> None:
        """One task of ``qid`` settled; at zero outstanding it completes."""
        self._outstanding[qid] -= 1
        if self._outstanding[qid] == 0:
            ctx.trace_instant("complete", query_id=int(qid))
            self.serving.complete(ctx, qid, self.results[qid])

    def _serve_head(self, ctx: Context):
        """Try to take the queue head into service; returns True on entry.

        False means the head is credit-blocked (every routed partition's
        workgroup is out of credits) — the caller must consume results
        until credits free.
        """
        state, config = self.serving, self.config
        window = self.window
        qid = state.admission.queue[0]
        q = self.queries[qid]
        if state.cache is not None and qid not in state.keys and qid not in self._routes:
            row = state.probe_cache(ctx, qid, q)
            if row is not None:
                state.admit(ctx)
                state.serve_hit(ctx, qid, row, self.results, self.report)
                return True
        parts = self._routes.get(qid)
        if parts is None:
            parts = yield from self.router.route_approx(ctx, q, config.n_probe, query_id=int(qid))
            self._routes[qid] = parts
        if not all(window.group_has_credit(p) for p in parts):
            return False
        state.admit(ctx)
        self.report.fanouts.append(len(parts))
        self._outstanding[qid] = len(parts)
        traced = self.router.traced
        for pid_part in parts:
            core = window.selector.pick(pid_part, ctx.now, exclude=window.blocked(1))
            if core is None:
                # an earlier partition of this query took the last credit
                # of a replica this one shares: over-commit it by one
                core = window.selector.pick(pid_part, ctx.now)
            yield from window.send_task(
                ctx, (qid,), pid_part, core,
                attrs={"query_id": int(qid), "partition": int(pid_part)} if traced else None,
            )
        return True

    def _settle(self, ctx: Context, req):
        """One received message: an arrival is offered to admission, a
        result (or credit ack) is merged and settles its task."""
        if req.tag == TAG_ARRIVE:
            self.serving.on_arrival(ctx, req.payload)
            return
        merger = self.merger
        if merger.one_sided:  # a credit ack: nothing to merge, no span
            rows, pid_part = yield from merger.merge_payload(ctx, req.payload)
        else:
            start = ctx.span_begin("reduce")
            try:
                rows, pid_part = yield from merger.merge_payload(ctx, req.payload)
            finally:
                ctx.span_end("reduce", start)
        merger.finish_rows(rows, pid_part, self.window, ctx)

    # -- the coordinator proc body -------------------------------------------

    def run(self, ctx: Context):
        config, report = self.config, self.report
        state, merger, window = self.serving, self.merger, self.window
        adm = state.admission
        result_tag = TAG_CREDIT if merger.one_sided else TAG_RESULT
        both = frozenset((TAG_ARRIVE, result_tag))
        n = state.n_queries
        mailbox = ctx.mailbox
        merger.note_result = lambda qid: self._note_settle(ctx, qid)

        def wanted():
            """The tag(s) to receive on: arrivals while some are due and
            admission takes them, results while a task is out."""
            arrivals = state.consumed < n and adm.accepting()
            if merger.tasks_completed < report.tasks_sent:
                return both if arrivals else result_tag
            return TAG_ARRIVE if arrivals else None

        while state.consumed < n or adm.queue or merger.tasks_completed < report.tasks_sent:
            tags = wanted()
            # everything that has arrived by now is settled, earliest
            # first, before the head is tried
            if tags is not None and ctx.iprobe(mailbox, tag=tags):
                yield from self._settle(ctx, (yield ctx.recv_op(mailbox, tag=tags)))
                continue
            if adm.queue and (yield from self._serve_head(ctx)):
                continue
            # nothing has arrived and the head (if any) is credit-blocked
            # (a refused head changes no wanted tag): block until the next
            # arrival or result
            if tags is None:
                raise SimError(
                    "serving coordinator stalled with nothing to receive "
                    f"(consumed {state.consumed}/{n}, queue {len(adm.queue)}, "
                    f"outstanding {report.tasks_sent - merger.tasks_completed})"
                )
            yield from self._settle(ctx, (yield ctx.recv_op(mailbox, tag=tags)))

        # End of Queries + thread-exit drain, as in the closed-loop pipeline
        with ctx.span("drain"):
            yield from broadcast_end(ctx, window.node_mailboxes)
            yield from await_thread_exits(ctx, config.n_nodes * config.threads_per_node)

        state.close(report)
        report.queue_depth_timeline = window.tracker.timeline()
        return report
