"""Wire protocol of the search phase.

Plain tags + tuple payloads, kept in one module so master, workers, the
multiple-owner variant and the serving ingress agree on the format and
tests can build messages.  There is one task kind and one result kind —
a batch of B >= 1 queries bound for one partition, and its row-aligned
answers; one query is the B = 1 batch, not a kind of its own — plus four
small control kinds.  :data:`WIRE` pairs every kind with its tag and its
size on the simulated fabric, and :func:`send` is the one way a payload
reaches a mailbox, so a kind cannot travel under the wrong tag or a size
that is not its table entry.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from repro.filtering.spec import clauses_from_wire

__all__ = [
    "TAG_TASK",
    "TAG_END",
    "TAG_RESULT",
    "TAG_THREAD_DONE",
    "TAG_CREDIT",
    "TAG_ARRIVE",
    "END",
    "WIRE",
    "WireFilter",
    "make_arrival",
    "make_credit",
    "make_result",
    "make_task",
    "result_nbytes",
    "send",
    "wire_filter",
]

#: master/owner -> worker node: one (queries, partition) unit of work
TAG_TASK = 1
#: master/owner -> worker node: no more queries (Alg. 3 "End of Queries")
TAG_END = 2
#: worker thread -> master/owner: local k-NN result (two-sided path)
TAG_RESULT = 3
#: worker thread -> master: thread exited (one-sided completion detection)
TAG_THREAD_DONE = 4
#: worker thread -> master: dispatch-credit return for one-sided tasks
#: (flow control only — sent when ``dispatch_window > 0``; on the
#: two-sided path the result message itself is the credit)
TAG_CREDIT = 5
#: arrival source -> master: a query arrived at the serving ingress
#: (open-loop serving only — see repro.serving)
TAG_ARRIVE = 6

#: the "End of Queries" payload
END = ("end",)


class WireFilter(NamedTuple):
    """A run's pushed-down filter as every task of the run carries it.

    The run has one filter, so it is decoded and measured once, where the
    run's tasks are built, not once per task.
    """

    #: ``(clauses, strategy)`` — what ``search_batch(filter=)`` takes
    spec: tuple
    #: length of the description's compact JSON, charged on every task
    nbytes: int


def wire_filter(fpayload: dict | None) -> WireFilter | None:
    """The wire form of a run's JSON-able filter description
    (``{"clauses": [FilterSpec dicts...], "strategy": ...}``); None stays
    None and keeps every task byte-identical to the unfiltered wire."""
    if fpayload is None:
        return None
    return WireFilter(
        (clauses_from_wire(fpayload.get("clauses", [])), fpayload.get("strategy", "auto")),
        len(json.dumps(fpayload, sort_keys=True, separators=(",", ":"))),
    )


def make_task(
    query_ids: list[int],
    partition_id: int,
    Q: np.ndarray,
    wfilter: WireFilter | None = None,
    reply_to=None,
) -> tuple:
    """B queries (the rows of ``Q``) bound for one partition, as one message.

    ``reply_to`` is the mailbox two-sided answers go to when it is not the
    worker's control mailbox (the multiple-owner mode: the owning node).
    """
    return ("task", query_ids, partition_id, Q, wfilter, reply_to)


def _task_nbytes(payload: tuple) -> int:
    # query matrix + one id per row + partition id + header, plus the
    # serialized predicate the batch shares
    Q, wfilter = payload[3], payload[4]
    nbytes = Q.nbytes + 8 * len(Q) + 16
    return nbytes if wfilter is None else nbytes + wfilter.nbytes


def make_result(query_ids: list[int], partition_id: int, dists: list, ids: list) -> tuple:
    """A worker's local k-NN answers for one task (row-aligned lists).

    The partition id rides along so a fault-tolerant collector can mark
    exactly which task completed and drop duplicates (late answers from
    timed-out attempts, or link-level message duplication).
    """
    return ("result", query_ids, partition_id, dists, ids)


def result_nbytes(dists, ids) -> int:
    """Wire bytes of row-aligned answers; also what a one-sided worker
    charges for the one row each ``Get_accumulate`` carries."""
    # per-row distances + ids + one query id per row + partition id + header
    nbytes = 8 * len(dists) + 16
    for d, i in zip(dists, ids):
        nbytes += d.nbytes + i.nbytes
    return nbytes


def make_credit(query_ids: list[int], partition_id: int) -> tuple:
    """A worker's flow-control ack: its one-sided accumulates for these
    (query, partition) tasks have landed, return their dispatch credits.

    Only exists on the one-sided path with ``dispatch_window > 0`` —
    two-sided results are their own credit return.
    """
    return ("credit", query_ids, partition_id)


def make_arrival(query_id: int, arrival_time: float) -> tuple:
    """An ingress notification: query ``query_id`` arrived at the client-
    scheduled virtual time ``arrival_time`` (the timestamp SLO latency is
    measured from)."""
    return ("arrive", int(query_id), float(arrival_time))


#: kind -> (tag, wire bytes of a payload of that kind)
WIRE = {
    "task": (TAG_TASK, _task_nbytes),
    "result": (TAG_RESULT, lambda p: result_nbytes(p[3], p[4])),
    # one query id per settled task + partition id + header
    "credit": (TAG_CREDIT, lambda p: 8 * len(p[1]) + 16),
    # query id + timestamp + header
    "arrive": (TAG_ARRIVE, lambda p: 24),
    "end": (TAG_END, lambda p: 8),
    # ("tdone", pid, tasks processed): two ids + header
    "tdone": (TAG_THREAD_DONE, lambda p: 24),
}


def send(ctx, mailbox, payload: tuple, same_node: bool = False):
    """The send syscall for ``payload``, under its kind's tag and size
    (``yield from`` it, like ``ctx.send_to_mailbox``)."""
    tag, nbytes = WIRE[payload[0]]
    return ctx.send_to_mailbox(
        mailbox, payload, source=ctx.pid, tag=tag, nbytes=nbytes(payload), same_node=same_node
    )
