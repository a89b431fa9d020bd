"""Shutdown of the worker pool, shared by every master-side loop.

Two steps (Alg. 3 lines 12-18): "End of Queries" to every worker node,
then one exit notice per worker thread — in one-sided mode that notice is
what tells the master every ``Get_accumulate`` has landed.  The plain
pipeline collects its in-flight results between the two; the serving
pipeline and the fault harness run them back to back.  On a fault-free
fabric every thread's notice arrives exactly once and in send order, so
one ``recv_n`` counts them all in one engine event; the harness collects
under a timeout instead, because threads on a crashed node never answer
and a faulty link may duplicate a notice.
"""

from __future__ import annotations

from repro.core.messages import END, TAG_THREAD_DONE, send
from repro.simmpi.engine import Context, Mailbox

__all__ = ["await_thread_exits", "broadcast_end", "collect_thread_exits"]


def broadcast_end(ctx: Context, node_mailboxes: list[Mailbox]):
    """One "End of Queries" message to every worker node's mailbox."""
    for mailbox in node_mailboxes:
        yield send(ctx, mailbox, END)


def await_thread_exits(ctx: Context, n_threads: int):
    """Receive the exit notices of ``n_threads`` threads on a fault-free
    fabric: one receive, the clocks and stats of ``n_threads`` in a row."""
    yield from ctx.recv_n(ctx.mailbox, n_threads, tag=TAG_THREAD_DONE)


def collect_thread_exits(ctx: Context, want: int, timeout: float, seen: set[int]):
    """Receive exit notices until ``want`` distinct threads have sent one;
    returns how many have.

    ``seen`` holds the pids heard from so far, for a caller that collects
    in rounds: a notice a faulty link duplicated names a pid already in
    it and counts for nothing.  Fewer than ``want`` only when a receive
    waits ``timeout`` virtual seconds in vain: it is withdrawn and ends
    the collection, which is what keeps shutdown bounded after a crash.
    """
    while len(seen) < want:
        req = yield from ctx.recv(ctx.mailbox, tag=TAG_THREAD_DONE, timeout=timeout)
        if req is None:  # timed out
            break
        seen.add(req.payload[1])  # ("tdone", pid, processed)
    return len(seen)
