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

__all__ = ["worker_thread_program"]


def worker_thread_program(
    ctx: Context,
    node_mailbox: Mailbox,
    node_store: NodeStore,
    searcher: LocalSearcher,
    k: int,
    done_event: Event,
    master_mailbox: Mailbox,
    window: Window | None,
    send_credits: bool = False,
):
    """One simulated OpenMP thread.  Returns (tasks_processed,).

    ``send_credits`` (one-sided + ``dispatch_window > 0`` only) makes the
    thread follow each batch of ``Get_accumulate`` landings with a tiny
    credit-ack message, giving the master's flow control the completion
    signal one-sided results otherwise withhold; two-sided replies are
    their own credit return.
    """
    one_sided = window is not None
    if one_sided:
        yield from window.lock_shared(ctx)
    # the recorder is fixed for the run: span attributes are built only
    # when one listens
    traced = ctx.trace_active
    processed = 0
    try:
        while True:
            req = yield from ctx.recv(node_mailbox, event=done_event)
            if req is None:  # terminate flag set by a sibling thread
                break
            payload = req.payload
            if payload[0] == "end":
                yield from ctx.set_event(done_event)
                break
            # a task: B >= 1 queries for one partition, answered with one
            # local search call; two-sided answers go to the task's reply
            # mailbox when it names one (a multiple-owner dispatcher)
            _, query_ids, partition_id, Qb, wfilter, reply_to = payload
            if traced:
                qids = tuple(query_ids)
                # the gap between the task landing in the node mailbox
                # and a thread picking it up is pure queueing delay
                ctx.trace_complete(
                    "queue", req.arrival, ctx.now, query_ids=qids, partition=partition_id
                )
                span = ctx.span(
                    "search", query_ids=qids, partition=partition_id, n_queries=len(query_ids)
                )
            else:
                span = ctx.span("search")
            with span:
                ds, idss, seconds = searcher.search_batch(
                    node_store.get(partition_id),
                    Qb,
                    k,
                    filter=None if wfilter is None else wfilter.spec,
                )
                yield from ctx.compute(seconds, kind="search")
            processed += len(query_ids)
            # returning a result is the worker-side half of the reduction:
            # either the remote accumulates or the point-to-point reply
            with ctx.span("reduce"):
                if one_sided:
                    # the RMA window is keyed by query id: one accumulate
                    # per row, each charged as a one-row result
                    for qid, d, ids in zip(query_ids, ds, idss):
                        yield from window.get_accumulate(
                            ctx, qid, (d, ids), nbytes=result_nbytes((d,), (ids,))
                        )
                    if send_credits:
                        yield from send(ctx, master_mailbox, make_credit(query_ids, partition_id))
                else:
                    yield from send(
                        ctx,
                        master_mailbox if reply_to is None else reply_to,
                        make_result(query_ids, partition_id, ds, idss),
                    )
    finally:
        if one_sided:
            yield from window.unlock(ctx)
    # completion notification (tiny message) so the master can detect that
    # every one-sided accumulate has landed before reading the window
    with ctx.span("drain"):
        yield from send(ctx, master_mailbox, ("tdone", ctx.pid, processed))
    return processed
