"""Credit-based dispatch flow control (the HARMONY-style window).

``SystemConfig.dispatch_window = W`` grants every core W credits; each
in-flight task charges one credit against the core serving it, and the
credit returns when the task's result (two-sided) or credit ack
(one-sided) lands at the coordinator.  Dispatch to a partition whose
whole workgroup is out of credits *blocks* — the coordinator consumes
in-flight results through the :class:`~repro.core.coordinator.merger.
ResultMerger` until a credit frees — so at most ``W * n_cores`` tasks
are ever outstanding and merging overlaps dispatch instead of trailing
it.

At ``W = 0`` every credit structure is inert: no accounting, empty
exclusion sets, zero stall — the dispatcher is the eager
send-everything one, bit-identical to the pre-pipelining golden traces.

Replica selection composes: a blocked core is handed to the selector as
an exclusion, so backpressure steers tasks toward replicas that still
have credit (feedback the open-loop LoadTracker model cannot provide).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.config import SystemConfig
from repro.core.coordinator.report import MasterReport
from repro.core.messages import make_task, send, wire_filter
from repro.loadbalance import ReplicaSelector
from repro.simmpi.engine import Context, Mailbox

__all__ = ["DispatchWindow"]


class _CreditBlocked:
    """Lazy ``exclude`` view: a core is excluded while it lacks credits.

    Handed to ``selector.pick`` so membership is checked only for the
    cores the selector actually considers (the partition's workgroup).
    """

    __slots__ = ("credits", "need")

    def __init__(self, credits: np.ndarray, need: int) -> None:
        self.credits = credits
        self.need = need

    def __contains__(self, core) -> bool:
        return bool(self.credits[core] < self.need)


class DispatchWindow:
    """Per-core credit accounting plus the one task send routine.

    Every coordinator sends every task through :meth:`send_task`: the
    plain pipeline lets it block on credits and pick the core, the fault
    harness and the serving pipeline pick their own (they own their
    deadline bookkeeping and handle credit exhaustion by deferring or
    gating, never by blocking their event loops).

    When the call's ``searcher`` offers ``prefetch`` (see
    :class:`~repro.core.searcher.LocalSearcher`), every sent task is
    handed to it too: its rows, ``k``, the run's filter, the query matrix
    and the task's first row in it, and the partition replica the chosen
    core's node holds in ``node_stores``.
    """

    def __init__(
        self,
        config: SystemConfig,
        selector: ReplicaSelector,
        report: MasterReport,
        node_mailboxes: list[Mailbox],
        queries: np.ndarray,
        fpayload: dict | None = None,
        searcher=None,
        node_stores: dict | None = None,
        k: int = 0,
    ) -> None:
        self.config = config
        self.selector = selector
        self.tracker = selector.tracker
        self.workgroups = selector.workgroups
        self.report = report
        self.node_mailboxes = node_mailboxes
        self._mailbox_of = [node_mailboxes[config.node_of_core(c)] for c in range(config.n_cores)]
        #: the batch's query matrix; a task carries its queries' rows
        self.queries = queries
        #: run-wide pushed-down filter in wire form; when set, every task
        #: carries it (and its wire bytes).  None keeps the send path
        #: byte-identical to the unfiltered wire.
        self.wfilter = wire_filter(fpayload)
        #: the searcher's optional hook, told of every task as it is sent
        self._prefetch = getattr(searcher, "prefetch", None)
        if self._prefetch is not None:
            # held weakly: a kept session's suspended coordinator frames
            # still reach the window after the call, and strong references
            # would keep every index alive until a garbage collection
            self._store_of = [
                weakref.proxy(node_stores[config.node_of_core(c)]) for c in range(config.n_cores)
            ]
            self._k = k
            self._filter = None if self.wfilter is None else self.wfilter.spec
        window = int(config.dispatch_window)
        #: remaining credits per core; None when flow control is off
        self.credits = np.full(config.n_cores, window, dtype=np.int64) if window else None
        #: (query_id, partition_id) -> core currently charged for the task
        self.charged: dict[tuple[int, int], int] = {}
        registry = report.registry
        # ``report.tasks_sent`` / ``batches_sent``, resolved once
        self._tasks_sent = registry.counter("coordinator.tasks_sent")
        self._batches_sent = registry.counter("coordinator.batches_sent")
        #: tasks in flight under credit accounting.  Whatever is still
        #: charged when the run ends is a leak (failover must reclaim a
        #: crashed worker's credits), hence the instrument's name: 0 on a
        #: correct run
        self.outstanding = registry.gauge("dispatch.credits_leaked")
        self.peak_outstanding = registry.gauge("dispatch.max_outstanding_tasks")
        #: a two-sided pipeline's observer of dispatched query ids (latencies)
        self.on_dispatch = None

    # -- credit accounting ---------------------------------------------------

    def blocked(self, need: int = 1):
        """The ``exclude`` view of credit-starved cores (empty when off)."""
        if self.credits is None:
            return ()
        return _CreditBlocked(self.credits, need)

    def group_has_credit(self, partition_id: int, need: int = 1, exclude=()) -> bool:
        """Whether any non-excluded replica of ``partition_id`` can take
        ``need`` more tasks (always True with flow control off)."""
        if self.credits is None:
            return True
        return any(
            self.credits[c] >= need
            for c in self.workgroups.cores_for_partition(partition_id)
            if c not in exclude
        )

    def release(self, key: tuple[int, int]) -> int | None:
        """Return the credit held by ``key``; the charged core, or None.

        None means the task holds no credit — flow control is off, or
        the task was already released (an abandoned task whose credit
        failover reclaimed, a late duplicate).  Callers never need to
        distinguish: release is idempotent per charge.
        """
        if self.credits is None:
            return None
        core = self.charged.pop(key, None)
        if core is None:
            return None
        self.credits[core] += 1
        self.outstanding.value -= 1
        return core

    def _await_credit(self, ctx: Context, merger, partition_id: int, need: int):
        """Block (consuming in-flight results) until the partition's
        workgroup has a core with ``need`` spare credits; only a dispatch
        that lacks one calls it, so only real stalls reach the trace."""
        stall_start = ctx.now
        while not self.group_has_credit(partition_id, need):
            yield from merger.consume_one(ctx, self)
        self.report.credit_stall_seconds += ctx.now - stall_start
        ctx.trace_complete("credit_wait", stall_start, ctx.now, partition=int(partition_id))

    # -- send path -----------------------------------------------------------

    def send_task(
        self, ctx: Context, query_ids, partition_id: int, core=None, merger=None,
        span: str = "dispatch", attrs: dict | None = None,
    ):
        """Send queries ``query_ids`` as one task for ``partition_id``:
        record it, charge its credits and yield the send syscall, inside
        span ``span`` with trace ``attrs``.  Callers pass ``attrs`` only
        when a recorder listens, and only then is the send marked in the
        trace.  With ``core=None`` it first blocks until a replica has
        a credit per row, consuming results through ``merger``, and lets
        the selector pick it.  One credit per row, so config validation
        requires ``batch_size <= dispatch_window`` under flow control.
        """
        need = len(query_ids)
        credits = self.credits
        if core is None and credits is not None and not self.group_has_credit(partition_id, need):
            yield from self._await_credit(ctx, merger, partition_id, need)
        start = ctx.span_begin(span, attrs)
        try:
            if core is None:
                exclude = () if credits is None else _CreditBlocked(credits, need)
                core = self.selector.pick(partition_id, start, exclude=exclude)
            partition_id = int(partition_id)
            if self.on_dispatch is not None:
                self.on_dispatch(query_ids)
            self.tracker.record_dispatch(core, start, n_tasks=need)
            self.report.dispatch_counts[core] += need
            self._tasks_sent.value += need
            self._batches_sent.value += 1
            if credits is not None:
                credits[core] -= need
                for q in query_ids:
                    self.charged[(q, partition_id)] = core
                self.outstanding.value += need
                self.peak_outstanding.track_max(self.outstanding.value)
            if attrs is not None:
                ctx.trace_instant(
                    "task_send", query_ids=tuple(query_ids), partition=partition_id, core=int(core)
                )
            first = query_ids[0]
            # one row is a view; a batch gathers its rows
            rows = self.queries[first : first + 1] if need == 1 else self.queries[query_ids]
            if self._prefetch is not None:
                # a node missing the replica is for the worker to report
                partition = self._store_of[core].partitions.get(partition_id)
                if partition is not None:
                    self._prefetch(partition, rows, self._k, self._filter, self.queries, first)
            task = make_task(query_ids, partition_id, rows, self.wfilter)
            yield send(ctx, self._mailbox_of[core], task)
        finally:
            ctx.span_end(span, start)
