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
    """Per-core credit accounting plus the task send path.

    Every coordinator sends every task through :meth:`send_task`: the
    plain pipeline via :meth:`dispatch` (which blocks on credits first),
    the fault harness and the serving pipeline directly (they own their
    spans and deadline bookkeeping and handle credit exhaustion by
    deferring or gating, never by blocking their event loops).
    """

    def __init__(
        self,
        config: SystemConfig,
        selector: ReplicaSelector,
        report: MasterReport,
        node_mailboxes: list[Mailbox],
        fpayload: dict | None = None,
    ) -> None:
        self.config = config
        self.selector = selector
        self.tracker = selector.tracker
        self.workgroups = selector.workgroups
        self.report = report
        self.node_mailboxes = node_mailboxes
        #: run-wide pushed-down filter in wire form; when set, every task
        #: carries it (and its wire bytes).  None keeps the send path
        #: byte-identical to the unfiltered wire.
        self.wfilter = wire_filter(fpayload)
        self.window = int(config.dispatch_window)
        #: remaining credits per core; None when flow control is off
        self.credits = (
            np.full(config.n_cores, self.window, dtype=np.int64) if self.window else None
        )
        #: (query_id, partition_id) -> core currently charged for the task
        self.charged: dict[tuple[int, int], int] = {}
        #: tasks in flight under credit accounting.  Whatever is still
        #: charged when the run ends is a leak (failover must reclaim a
        #: crashed worker's credits), hence the instrument's name: 0 on a
        #: correct run
        self.outstanding = report.registry.gauge("dispatch.credits_leaked")
        self.peak_outstanding = report.registry.gauge("dispatch.max_outstanding_tasks")
        #: set by the pipeline to observe dispatched query ids (per-query
        #: outstanding-result accounting for latencies)
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
        workgroup has a core with ``need`` spare credits."""
        stall_start = None
        while not self.group_has_credit(partition_id, need):
            if stall_start is None:
                stall_start = ctx.now
            yield from merger.consume_one(ctx, self)
        if stall_start is not None:
            self.report.credit_stall_seconds += ctx.now - stall_start
            # only actual stalls land in the trace — a zero-width
            # credit_wait on every dispatch would drown the timeline
            ctx.trace_complete(
                "credit_wait", stall_start, ctx.now, partition=int(partition_id)
            )

    # -- send path -----------------------------------------------------------

    def send_task(self, ctx: Context, query_ids, partition_id: int, core: int, Q):
        """Record + charge + ship the rows of ``Q`` (queries ``query_ids``)
        to ``core`` as one task for ``partition_id``.

        No span and no credit *wait* — the callers own both (the plain
        pipeline blocks up front, the fault harness defers instead).  One
        message and one worker-side search call, but one credit per row
        against the chosen core, so config validation requires
        ``batch_size <= dispatch_window`` when flow control is on.
        """
        query_ids = [int(q) for q in query_ids]
        partition_id = int(partition_id)
        need = len(query_ids)
        self.tracker.record_dispatch(core, ctx.now, n_tasks=need)
        self.report.dispatch_counts[core] += need
        self.report.tasks_sent += need
        self.report.batches_sent += 1
        if self.credits is not None:
            self.credits[core] -= need
            for q in query_ids:
                self.charged[(q, partition_id)] = core
            self.outstanding.value += need
            self.peak_outstanding.track_max(self.outstanding.value)
        if ctx.trace_active:
            ctx.trace_instant(
                "task_send", query_ids=tuple(query_ids), partition=partition_id, core=int(core)
            )
        yield from send(
            ctx,
            self.node_mailboxes[self.config.node_of_core(core)],
            make_task(query_ids, partition_id, Q, self.wfilter),
        )

    def dispatch(self, ctx: Context, merger, query_ids, partition_id: int, Q):
        """One flow-controlled task dispatch: block (consuming in-flight
        results) until a replica has a credit per row, pick it, send."""
        need = len(query_ids)
        if self.credits is not None:
            yield from self._await_credit(ctx, merger, partition_id, need)
        with ctx.span("dispatch", partition=int(partition_id), n_queries=need):
            core = self.selector.pick(partition_id, ctx.now, exclude=self.blocked(need))
            if self.on_dispatch is not None:
                self.on_dispatch(query_ids)
            yield from self.send_task(ctx, query_ids, partition_id, core, Q)
