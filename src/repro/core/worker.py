"""Worker-side search routine (paper Algorithm 4).

One compute node runs ``threads_per_node`` thread procs sharing the node's
mailbox.  Each thread loops: wait for a message *or* the node's shared
terminate event; on a task, search the named partition replica with the
local searcher, charge the search's virtual seconds, and return the result
either by one-sided ``Get_accumulate`` into the master's window or by a
point-to-point result message.  The first thread to consume the
"End of Queries" message sets the shared event; the others wake, their
outstanding receives withdrawn, and exit — the same protocol as the
paper's shared ``Done`` flag, without simulating millions of ``MPI_Test``
polls.  Each wait is one ``ctx.recv(..., event=done_event)``: post, block
and, when the flag wins, withdraw, in one engine event.

A thread's life costs two engine events beyond its tasks: the one-sided
lock epoch is charged by its first receive, and the unlock, the exit
notice to the master and the end of the run are one ``ctx.exit``.  The
thread serves one query call per run; in a simulation that keeps its
procs it parks in that exit and serves the next call when the next run
resumes it, reading the call's searcher, window and flag from its
node's :class:`NodeWiring`.

Because all threads of a node pull from one mailbox, dynamic intra-node
load balancing (§IV-B: "we do not strongly couple a process core with the
data partition") falls out of the message matching.
"""

from __future__ import annotations

from repro.core.messages import (
    make_credit,
    make_result,
    result_nbytes,
    send,
)
from repro.core.partition import NodeStore
from repro.core.searcher import LocalSearcher
from repro.simmpi.engine import Context, Event, Mailbox
from repro.simmpi.rma import Window

__all__ = ["NodeWiring", "worker_thread_program"]


class NodeWiring:
    """What one node's threads work with in one query call.

    The runtime fills it in before every run; a thread reads it when the
    run starts it.  ``send_credits`` (one-sided + ``dispatch_window > 0``
    only) makes a thread follow each batch of ``Get_accumulate`` landings
    with a tiny credit-ack message, giving the master's flow control the
    completion signal one-sided results otherwise withhold; two-sided
    replies are their own credit return.
    """

    __slots__ = (
        "mailbox",
        "store",
        "searcher",
        "k",
        "done",
        "master_mailbox",
        "window",
        "send_credits",
    )

    def __init__(self, mailbox: Mailbox) -> None:
        #: the node's shared task queue
        self.mailbox = mailbox
        self.store: NodeStore | None = None
        self.searcher: LocalSearcher | None = None
        self.k = 0
        #: the node's shared Done flag, a new one per call
        self.done: Event | None = None
        #: exit notices, credits and (by default) two-sided results go here
        self.master_mailbox: Mailbox | None = None
        #: the master's result window; None = two-sided results
        self.window: Window | None = None
        self.send_credits = False


def worker_thread_program(ctx: Context, node: NodeWiring):
    """One simulated OpenMP thread.  Returns the tasks' query count of its
    last call."""
    while True:
        window = node.window
        one_sided = window is not None
        # the lock epoch is charged by the first receive
        epoch = (window.open_epoch(ctx), "rma_sync") if one_sided else None
        # the recorder is fixed for the run: span attributes are built only
        # when one listens
        traced = ctx.trace_active
        searcher, store, k, done = node.searcher, node.store, node.k, node.done
        master_mailbox, send_credits = node.master_mailbox, node.send_credits
        processed = 0
        while True:
            req = yield ctx.recv_op(node.mailbox, event=done, compute=epoch)
            epoch = None
            if req is None:  # terminate flag set by a sibling thread
                break
            payload = req.payload
            if payload[0] == "end":
                yield from ctx.set_event(done)
                break
            # a task: B >= 1 queries for one partition, answered with one
            # local search call; two-sided answers go to the task's reply
            # mailbox when it names one (a multiple-owner dispatcher)
            _, query_ids, partition_id, Qb, wfilter, reply_to = payload
            attrs = None
            if traced:
                qids = tuple(query_ids)
                # the gap between the task landing in the node mailbox
                # and a thread picking it up is pure queueing delay
                ctx.trace_complete(
                    "queue", req.arrival, ctx.now, query_ids=qids, partition=partition_id
                )
                attrs = {"query_ids": qids, "partition": partition_id, "n_queries": len(qids)}
            start = ctx.span_begin("search", attrs)
            try:
                ds, idss, seconds = searcher.search_batch(
                    store.get(partition_id), Qb, k, filter=None if wfilter is None else wfilter.spec
                )
                yield ctx.compute_op(seconds, "search")
            finally:
                ctx.span_end("search", start)
            processed += len(query_ids)
            # returning a result is the worker-side half of the reduction:
            # either the remote accumulates or the point-to-point reply
            start = ctx.span_begin("reduce")
            try:
                if one_sided:
                    # the RMA window is keyed by query id: one accumulate
                    # per row, each charged as a one-row result
                    for qid, d, ids in zip(query_ids, ds, idss):
                        yield window.accumulate_op(ctx, qid, (d, ids), result_nbytes((d,), (ids,)))
                    if send_credits:
                        yield send(ctx, master_mailbox, make_credit(query_ids, partition_id))
                else:
                    reply = make_result(query_ids, partition_id, ds, idss)
                    yield send(ctx, master_mailbox if reply_to is None else reply_to, reply)
            finally:
                ctx.span_end("reduce", start)
        # unlock, then the completion notice (a tiny message: it is how the
        # master learns every one-sided accumulate has landed), then the
        # end of the run — one event
        again = yield from ctx.exit(
            send(ctx, master_mailbox, ("tdone", ctx.pid, processed)),
            compute=(window.close_epoch(ctx), "rma_sync") if one_sided else None,
            span="drain",
            result=processed,
        )
        if not again:
            return processed
