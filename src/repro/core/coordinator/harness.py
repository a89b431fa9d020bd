"""Fault-tolerant decoration of the coordinator pipeline.

Timeout / retry / failover / suspicion dispatch (the PR-2 semantics)
implemented *over* the same coordinator pieces the plain pipeline uses
— :class:`Router` for routing, :class:`DispatchWindow.send_task` for
every send (and so for every credit charge), :class:`ResultMerger.
merge_payload` for every merge — rather than as a fork of them.  The
harness owns only what is genuinely fault-specific: per-task deadlines,
the expiry sweep, the retry/failover replica chain, suspicion, dedup,
and the bounded shutdown drain.

Flow control interplay (``dispatch_window > 0``):

- a new task whose live replicas are all out of credits is *deferred*
  (the collect loop re-tries it as credits free) rather than blocking —
  the collect loop must keep consuming results to detect timeouts;
- a timed-out attempt's credit is reclaimed before re-dispatch, so a
  crashed worker cannot pin its workgroup's window (the leak the
  ``credits_leaked`` counter guards);
- the failover chain prefers replicas with spare credits but will
  over-commit a window rather than abandon a task that still has
  attempts left — fault recovery outranks flow control.
"""

from __future__ import annotations

import numpy as np

from repro.core.coordinator.drain import broadcast_end, collect_thread_exits
from repro.core.coordinator.merger import ResultMerger
from repro.core.coordinator.router import Router
from repro.core.coordinator.window import DispatchWindow
from repro.core.messages import TAG_ARRIVE, TAG_RESULT
from repro.faults.spec import FaultPolicy
from repro.loadbalance import derive_drain_timeout, derive_task_timeout
from repro.simmpi.engine import Context

__all__ = ["FaultHarness"]


class _ExcludeUnion:
    """Lazy union of two ``exclude`` views (dead/tried sets + credit block)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b

    def __contains__(self, core) -> bool:
        return core in self.a or core in self.b


class FaultHarness:
    """One batch search's coordinator with deadline-driven re-dispatch.

    Two-sided, approx-routed, unbatched (config validation enforces all
    three).  Returns a :class:`MasterReport` from :meth:`run`, exactly
    like the plain pipeline.
    """

    def __init__(
        self,
        queries: np.ndarray,
        router: Router,
        window: DispatchWindow,
        merger: ResultMerger,
        policy: FaultPolicy,
        task_seconds_hint: float,
        serving=None,
    ) -> None:
        self.queries = queries
        self.router = router
        self.win = window
        self.merger = merger
        self.config = window.config
        self.report = window.report
        self.selector = window.selector
        self.workgroups = window.workgroups
        self.policy = policy
        self.task_seconds_hint = task_seconds_hint
        # -- dispatch state ---------------------------------------------------
        self.pending: dict[tuple[int, int], dict] = {}
        self.completed: set[tuple[int, int]] = set()
        self.failed: set[tuple[int, int]] = set()
        self.dead: set[int] = set()
        #: new tasks waiting for a live replica with spare credits
        #: (dispatch_window > 0 only; always empty with flow control off)
        self.deferred: list[tuple[int, int]] = []
        self.timeouts_by_core = np.zeros(self.config.n_cores, dtype=np.int64)
        self.base_timeout = 0.0  # derived from the live network model in run()
        self._ctx: Context | None = None  # bound by run()
        self._unresolved: np.ndarray | None = None
        self._latencies: np.ndarray | None = None
        self._batch_start = 0.0
        self._parts_per_query: list[list[int]] | None = None
        #: :class:`~repro.serving.state.ServingState` under open-loop
        #: arrivals — a query then becomes work when it arrives, not at
        #: t = 0; None on the closed-loop path
        self.serving = serving
        #: queries with at least one abandoned task — their (possibly
        #: partial) results must never seed the serving cache
        self._abandoned_queries: set[int] = set()

    # -- helpers -------------------------------------------------------------

    def _exclude(self, base):
        """``base`` extended with credit-starved cores when flow control
        is on (plain ``base`` — bit-identical behaviour — when off)."""
        if self.win.credits is None:
            return base
        return _ExcludeUnion(base, self.win.blocked(1))

    def _resolve(self, query_id: int) -> None:
        # a query is resolved when every routed task completed OR was
        # abandoned — its latency is final even if degraded
        self._unresolved[query_id] -= 1
        if self._unresolved[query_id] == 0:
            self._latencies[query_id] = self._ctx.now - self._batch_start
            self._ctx.trace_instant("complete", query_id=int(query_id))
            if self.serving is not None:
                self.serving.complete(
                    self._ctx,
                    query_id,
                    self.merger.results[query_id],
                    cacheable=query_id not in self._abandoned_queries,
                )

    def _abandon(self, key: tuple[int, int]) -> None:
        del self.pending[key]
        self.failed.add(key)
        self.report.failed_tasks += 1
        self._abandoned_queries.add(key[0])
        self.win.release(key)  # an abandoned task must not hold its credit
        self._resolve(key[0])

    def _dispatch_new(self, ctx: Context, query_id: int, partition_id: int):
        """First dispatch of a (query, partition) task, or its deferral."""
        if self.win.credits is not None and not self.win.group_has_credit(
            partition_id, 1, exclude=self.dead
        ):
            if any(
                c not in self.dead
                for c in self.workgroups.cores_for_partition(partition_id)
            ):
                # live replicas exist but their windows are full: park the
                # task; the collect loop re-tries as credits come home
                self.deferred.append((query_id, partition_id))
                return
        core = self.selector.pick(partition_id, ctx.now, exclude=self._exclude(self.dead))
        if core is None:
            self.failed.add((query_id, partition_id))
            self.report.failed_tasks += 1
            self._resolve(query_id)
            return
        state = {"core": core, "attempts": 1, "tried": {core}, "deadline": 0.0}
        self.pending[(query_id, partition_id)] = state
        yield from self._send(ctx, query_id, partition_id, core, "dispatch")
        state["deadline"] = ctx.now + self.base_timeout

    def _send(self, ctx: Context, query_id: int, partition_id: int, core: int, span: str):
        """One attempt of a task under ``span``: the query as the one-row
        batch it is (a retry or failover span names its core too)."""
        attrs = None
        if self.router.traced:
            attrs = {"query_id": int(query_id), "partition": int(partition_id)}
            if span != "dispatch":
                attrs["core"] = int(core)
        return self.win.send_task(ctx, (query_id,), partition_id, core, span=span, attrs=attrs)

    def _drain_deferred(self, ctx: Context):
        """Re-try parked tasks: each is dispatched, parked again or failed
        exactly as a new task would be, now that credits may be home."""
        parked, self.deferred = self.deferred, []
        for query_id, partition_id in parked:
            yield from self._dispatch_new(ctx, query_id, partition_id)

    def _handle_timeout(self, ctx: Context, key: tuple[int, int], struck: set[int]):
        query_id, partition_id = key
        state = self.pending[key]
        core = state["core"]
        # many tasks expiring together on one core are ONE piece of evidence
        # (a single lost message batch), not many — strike each core at most
        # once per expiry sweep, or a burst would kill the whole cluster
        if core not in struck:
            struck.add(core)
            self.timeouts_by_core[core] += 1
            if (
                core not in self.dead
                and self.timeouts_by_core[core] >= self.policy.suspect_after
            ):
                self.dead.add(core)
                self.report.suspected_dead_cores.append(int(core))
                ctx.trace_instant("suspect_core", core=int(core))
        if state["attempts"] >= self.policy.max_attempts:
            self._abandon(key)
            return
        # reclaim the timed-out attempt's credit before re-picking: the
        # replacement send charges its own, and a crashed core must never
        # pin its workgroup's window (the credits_leaked invariant)
        self.win.release(key)
        # prefer an untried live replica with spare credits, then any live
        # one, then anything: suspicion steers dispatch away from dead cores
        # but never forfeits a task's remaining attempts (suspicion can be
        # wrong — lossy links), and flow control yields to fault recovery
        # (the last two levels may over-commit a window)
        nxt = self.selector.pick(
            partition_id, ctx.now, exclude=self._exclude(self.dead | state["tried"])
        )
        if nxt is None:
            nxt = self.selector.pick(partition_id, ctx.now, exclude=self._exclude(self.dead))
        if nxt is None:
            nxt = self.selector.pick(partition_id, ctx.now, exclude=state["tried"])
        if nxt is None:
            nxt = self.selector.pick(partition_id, ctx.now)
        state["attempts"] += 1
        state["tried"].add(nxt)
        span = "retry" if nxt == state["core"] else "failover"
        if nxt == state["core"]:
            self.report.retries += 1
        else:
            self.report.failovers += 1
        state["core"] = nxt
        yield from self._send(ctx, query_id, partition_id, nxt, span)
        state["deadline"] = ctx.now + self.base_timeout * self.policy.backoff ** (
            state["attempts"] - 1
        )

    # -- the proc body -------------------------------------------------------

    def _route(self, ctx: Context, qid: int):
        """Route query ``qid`` (approx routing) and book its fan-out."""
        parts = yield from self.router.route_approx(
            ctx, self.queries[qid], self.config.n_probe, query_id=qid
        )
        self.report.fanouts.append(len(parts))
        self._parts_per_query[qid] = [int(p) for p in parts]
        self._unresolved[qid] = len(parts)

    def _serve_query(self, ctx: Context):
        """Take the admission-queue head into service.

        Cache probe first (a hit completes instantly at the master), then
        route and dispatch every partition through :meth:`_dispatch_new` —
        credit exhaustion defers rather than blocks, exactly as on the
        closed-loop path, so the collect loop keeps sweeping deadlines
        while a workgroup's window is full.
        """
        state = self.serving
        qid = state.admit(ctx)
        if state.cache is not None:
            row = state.probe_cache(ctx, qid, self.queries[qid])
            if row is not None:
                state.serve_hit(ctx, qid, row, self.merger.results, self.report)
                return
        yield from self._route(ctx, qid)
        for pid_part in self._parts_per_query[qid]:
            yield from self._dispatch_new(ctx, qid, pid_part)

    def run(self, ctx: Context):
        """The fault-tolerant coordinator proc body.  Returns a
        :class:`MasterReport`.

        Same protocol as the two-sided approx path of the plain
        pipeline, but every task carries a deadline derived from the
        cost model; a task that misses it is re-dispatched — same core
        (retry) or next live replica (failover) — with exponential
        backoff, up to ``policy.max_attempts`` sends.  A core that
        times out ``policy.suspect_after`` times is suspected dead.
        Tasks with no live replica left are abandoned and surface as
        per-query ``completeness`` < 1; the batch never hangs on a
        crashed rank.  Late answers from abandoned tasks are still
        merged (they only improve recall); answers for completed tasks
        are dropped by (query, partition) dedup.

        Closed loop, the whole batch is routed and then dispatched up
        front.  Under open-loop arrivals a query becomes work only when
        its ``TAG_ARRIVE`` lands and the admission queue lets it through:
        the collect loop then makes one receive over both tags, under
        the same deadline budget, so timeout sweeps, retries and
        failovers work unchanged while queries trickle in.  Messages
        are taken in fabric arrival order, keeping the arrival/result
        interleaving causal.  The closed loop is that same loop with
        results as its only tag.
        """
        config, report, policy = self.config, self.report, self.policy
        state = self.serving
        n_q = len(self.queries)
        self._ctx = ctx
        self._batch_start = ctx.now
        # per-attempt deadline: the modeled service time scaled by a generous
        # multiplier, plus a round trip — loose enough that fault-free runs
        # never trip it, tight enough that a crashed rank is detected quickly
        self.base_timeout = derive_task_timeout(policy, self.task_seconds_hint, ctx.network)
        self._parts_per_query = [[] for _ in range(n_q)]
        self._unresolved = np.zeros(n_q, dtype=np.int64)
        self._latencies = np.full(n_q, np.nan)

        if state is None:
            # every query is present at t = 0: route them all (approx
            # routing), then the initial dispatch wave
            for qid in range(n_q):
                yield from self._route(ctx, qid)
            for qid in range(n_q):
                for pid_part in self._parts_per_query[qid]:
                    yield from self._dispatch_new(ctx, qid, pid_part)

        #: admitted queries awaiting service; stays empty in the closed loop
        queue = state.admission.queue if state is not None else ()

        def arrival_due() -> bool:
            return state is not None and state.consumed < n_q

        # -- collect with deadlines ------------------------------------------
        mailbox = ctx.mailbox
        both = frozenset((TAG_ARRIVE, TAG_RESULT))
        while arrival_due() or queue or self.pending or self.deferred:
            while queue:
                yield from self._serve_query(ctx)
            if self.deferred:
                yield from self._drain_deferred(ctx)
            arrivals = arrival_due() and state.admission.accepting()
            if self.pending:
                tags = both if arrivals else TAG_RESULT
                budget = max(min(s["deadline"] for s in self.pending.values()) - ctx.now, 0.0)
            elif arrivals:
                tags, budget = TAG_ARRIVE, None
            else:
                # nothing in flight and no arrival due: every credit is
                # home, so what _drain_deferred left parked the next sweep
                # dispatches or fails — never block on a result receive
                # that no task is pending for
                continue
            req = yield ctx.recv_op(mailbox, tag=tags, timeout=budget)
            if req is None:  # the earliest deadline passed first
                now = ctx.now
                struck: set[int] = set()
                for key in [kk for kk, s in self.pending.items() if s["deadline"] <= now]:
                    yield from self._handle_timeout(ctx, key, struck)
                continue
            if req.tag == TAG_ARRIVE:
                state.on_arrival(ctx, req.payload)
                continue
            payload = req.payload
            _, (qid,), pid_part, _ds, _idss = payload
            key = (qid, pid_part)
            if key in self.completed:
                report.duplicate_results += 1
                continue
            with ctx.span("reduce"):
                yield from self.merger.merge_payload(ctx, payload)
            self.completed.add(key)
            if key in self.failed:
                self.failed.discard(key)  # late answer recovered an abandoned task
            elif key in self.pending:
                # the answering core is evidence of life: reset its suspicion
                # so transient losses (lossy links, bursts of queueing) cannot
                # snowball into the whole workgroup being declared dead
                core = self.pending[key]["core"]
                self.timeouts_by_core[core] = 0
                self.dead.discard(core)
                self.win.release(key)
                del self.pending[key]
                self._resolve(key[0])

        # -- bounded shutdown drain ------------------------------------------
        # Rebroadcast "End of Queries" up to drain_rounds times, collecting
        # thread-done notifications under a timeout each round.  Threads on
        # crashed nodes never answer; giving up after the rounds keeps
        # shutdown bounded (the remaining messages die with the simulation).
        drain_timeout = derive_drain_timeout(policy, self.base_timeout, ctx.network)
        n_threads = config.n_nodes * config.threads_per_node
        exited: set[int] = set()  # by pid: a duplicated notice is no new thread
        with ctx.span("drain"):
            for _round in range(policy.drain_rounds):
                yield from broadcast_end(ctx, self.win.node_mailboxes)
                yield from collect_thread_exits(ctx, n_threads, drain_timeout, exited)
                if len(exited) == n_threads:
                    break

        n_parts = np.array([len(p) for p in self._parts_per_query], dtype=np.float64)
        done_counts = np.zeros(n_q, dtype=np.float64)
        for qid, _pid_part in self.completed:
            done_counts[qid] += 1.0
        # queries that routed no partitions (cache hits, shed/rejected
        # arrivals) are complete by definition or were never served
        report.completeness = np.where(
            n_parts > 0, done_counts / np.maximum(n_parts, 1.0), 1.0
        )
        if state is None:
            report.query_latencies = self._latencies
        else:
            state.close(report)
        report.queue_depth_timeline = self.win.tracker.timeline()
        return report
