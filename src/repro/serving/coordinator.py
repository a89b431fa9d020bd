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

When nothing is ready it blocks on whichever of the two posted receives
completes first.  Already-completed requests are settled in virtual-
completion-time order (not post order), so the interleaving of arrivals
and results is causal and deterministic.

Cache hits complete instantly at the master — no routing charge, no
dispatch, no worker time — which is exactly the capacity win the bench
measures; a run with the cache enabled but no hits does the same sends
at the same times as a run with the cache off (the equivalence the
tests pin).
"""

from __future__ import annotations

import numpy as np

from repro.core.coordinator.drain import broadcast_end, collect_thread_exits
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
        for pid_part in parts:
            with ctx.span("dispatch", query_id=int(qid), partition=int(pid_part)):
                core = window.selector.pick(pid_part, ctx.now, exclude=window.blocked(1))
                yield from window.send_task(
                    ctx, (qid,), pid_part, core, self.queries[qid : qid + 1]
                )
        return True

    def _handle_result(self, ctx: Context, payload):
        merger, window = self.merger, self.window
        if merger.one_sided:
            merger.settle_credit(payload, window, ctx=ctx)
            _, qids_b, _pid = payload
            for qid in qids_b:
                self._note_settle(ctx, int(qid))
            return
        with ctx.span("reduce"):
            rows, pid_part = yield from merger.merge_payload(ctx, payload)
        merger.finish_rows(rows, pid_part, window, ctx=ctx)

    # -- the coordinator proc body -------------------------------------------

    def run(self, ctx: Context):
        config, report = self.config, self.report
        state, merger, window = self.serving, self.merger, self.window
        adm = state.admission
        one_sided = merger.one_sided
        result_tag = TAG_CREDIT if one_sided else TAG_RESULT
        n = state.n_queries
        if not one_sided:
            merger.note_result = lambda qid: self._note_settle(ctx, qid)

        def want_arrival() -> bool:
            return state.consumed < n and adm.accepting()

        def expect_result() -> bool:
            return merger.tasks_completed < report.tasks_sent

        arrive_req = None
        result_req = None
        while state.consumed < n or adm.queue or expect_result():
            if arrive_req is None and want_arrival():
                arrive_req = yield from ctx.post_recv(ctx.mailbox, tag=TAG_ARRIVE)
            if result_req is None and expect_result():
                result_req = yield from ctx.post_recv(ctx.mailbox, tag=result_tag)

            # settle everything that has already happened, in virtual-
            # completion order, without advancing the clock
            progressed = False
            while True:
                ready = [
                    r
                    for r in (arrive_req, result_req)
                    if r is not None and r.done and r.completion_time <= ctx.now
                ]
                if not ready:
                    break
                req = min(ready, key=lambda r: r.completion_time)
                payload = yield from ctx.wait(req)
                if req is arrive_req:
                    arrive_req = None
                    state.on_arrival(ctx, payload)
                    if want_arrival():
                        arrive_req = yield from ctx.post_recv(ctx.mailbox, tag=TAG_ARRIVE)
                else:
                    result_req = None
                    yield from self._handle_result(ctx, payload)
                    if expect_result():
                        result_req = yield from ctx.post_recv(ctx.mailbox, tag=result_tag)
                progressed = True

            if adm.queue:
                served = yield from self._serve_head(ctx)
                if served:
                    continue
            if progressed:
                continue

            # nothing ready and the head (if any) is credit-blocked:
            # block until the next arrival or settle.  Requests that are
            # done-but-future are waited directly in completion order —
            # wait_any's immediate-completion check is post-order, which
            # would let a later result overtake an earlier arrival.
            waits = [r for r in (arrive_req, result_req) if r is not None]
            if not waits:
                raise SimError(
                    "serving coordinator stalled with no receive posted "
                    f"(consumed {state.consumed}/{n}, queue {len(adm.queue)}, "
                    f"outstanding {report.tasks_sent - merger.tasks_completed})"
                )
            done = [r for r in waits if r.done]
            if done:
                req = min(done, key=lambda r: r.completion_time)
                payload = yield from ctx.wait(req)
            else:
                idx, payload = yield from ctx.wait_any(waits)
                req = waits[idx]
            if req is arrive_req:
                arrive_req = None
                state.on_arrival(ctx, payload)
            else:
                result_req = None
                yield from self._handle_result(ctx, payload)

        for r in (arrive_req, result_req):
            if r is not None:
                yield from ctx.cancel(r)

        # End of Queries + thread-exit drain, as in the closed-loop pipeline
        with ctx.span("drain"):
            yield from broadcast_end(ctx, window.node_mailboxes)
            yield from collect_thread_exits(ctx, config.n_nodes * config.threads_per_node)

        state.close(report)
        report.queue_depth_timeline = window.tracker.timeline()
        return report
