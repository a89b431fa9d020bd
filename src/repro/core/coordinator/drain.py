"""Shutdown of the worker pool, shared by every master-side loop.

Two steps (Alg. 3 lines 12-18): "End of Queries" to every worker node,
then one exit notice per worker thread — in one-sided mode that notice is
what tells the master every ``Get_accumulate`` has landed.  The plain
pipeline collects its in-flight results between the two; the serving
pipeline and the fault harness run them back to back, the harness under a
timeout because threads on a crashed node never answer.
"""

from __future__ import annotations

from repro.core.messages import END, TAG_THREAD_DONE, send
from repro.simmpi.engine import Context, Mailbox

__all__ = ["broadcast_end", "collect_thread_exits"]


def broadcast_end(ctx: Context, node_mailboxes: list[Mailbox]):
    """One "End of Queries" message to every worker node's mailbox."""
    for mailbox in node_mailboxes:
        yield from send(ctx, mailbox, END)


def collect_thread_exits(
    ctx: Context, want: int, timeout: float | None = None, seen: set[int] | None = None
):
    """Receive exit notices until ``want`` distinct threads have sent one;
    returns how many have.

    ``seen`` holds the pids heard from so far, for a caller that collects
    in rounds: a notice a faulty link duplicated names a pid already in
    it and counts for nothing.  Fewer than ``want`` only under a
    ``timeout`` (virtual seconds per notice): the first receive to time
    out is withdrawn and ends the collection, which is what keeps shutdown
    bounded after a crash.
    """
    seen = set() if seen is None else seen
    while len(seen) < want:
        req = yield from ctx.recv(ctx.mailbox, tag=TAG_THREAD_DONE, timeout=timeout)
        if req is None:  # timed out
            break
        seen.add(req.payload[1])  # ("tdone", pid, processed)
    return len(seen)
