"""Global k-NN result accumulation.

One slot per query collecting every local k-NN answered for it.  Adding
an answer is what the paper implements remotely with
``MPI_Get_accumulate``: merge a worker's local k-NN into the global top-k.
The same object backs both result paths — as the master-side store in
two-sided mode (:meth:`GlobalResults.update`) and as the RMA window buffer
in one-sided mode (:attr:`GlobalResults.store` with
:meth:`GlobalResults.accumulate`) — so both paths compute the same answer.

A slot is *ranked* — reduced to its best k by the :func:`~repro.utils.
heaps.merge_knn` rule — once, when it is read (by indexing or by
:meth:`GlobalResults.result_arrays`), not on every answer.  The rule is
associative (the top k of a union is the top k of the union of each
part's top k), so when a slot is ranked, and how its answers were
grouped, never changes the answer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GlobalResults"]

#: an unranked slot that already holds this many parts is ranked before
#: the next one joins it; a part holds at most k entries (a longer answer
#: is ranked on arrival), so a slot never holds more than
#: ``_MAX_PARTS * k`` entries
_MAX_PARTS = 8


def _rank(parts: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``merge_knn(parts, k)``, bit for bit: one sort of the ``(distance,
    id)`` pairs, then each id's first (best) pair, the first ``k`` of
    those (for distances that are not NaN, which python's sort does not
    order).  At the sizes a slot holds python's sort beats numpy's
    per-call overhead."""
    pairs = []
    for d, i in parts:
        pairs += zip(d.tolist(), i.tolist())
    pairs.sort()
    best: dict[int, float] = {}  # id -> distance, in (distance, id) order
    for d, i in pairs:
        if i not in best:
            best[i] = d
            if len(best) == k:
                break
    n = len(best)
    return np.fromiter(best.values(), np.float64, n), np.fromiter(best, np.int64, n)


class GlobalResults:
    """Fixed-size array of per-query top-k results.

    Each entry of :attr:`store` is None (no answer yet), a ranked
    ``(distances, ids)`` tuple, or a list of unranked ``(distances, ids)``
    parts.  Indexing returns the ranked slot (ranking it if needed) and
    assigning stores a value as already ranked — serving's cache hit.
    """

    def __init__(self, n_queries: int, k: int) -> None:
        if n_queries < 1:
            raise ValueError(f"n_queries must be >= 1, got {n_queries}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n_queries = n_queries
        self.k = k
        #: the raw slots; the one-sided window accumulates into this list
        self.store: list = [None] * n_queries
        self.update_count = 0

    def __getitem__(self, qid: int):
        slot = self.store[qid]
        if type(slot) is list:
            slot = self.store[qid] = _rank(slot, self.k)
        return slot

    def __setitem__(self, qid: int, value) -> None:
        self.store[qid] = value

    def accumulate(self, slot, update) -> list:
        """The raw slot after adding one local result ``(d, ids)`` to
        ``slot`` (the RMA window's combine).  Nothing is ranked unless the
        update holds more than k entries or the slot already holds
        ``_MAX_PARTS`` parts, and ``slot`` itself is left unchanged.  The
        update's arrays are kept, not copied; an answer in lists becomes
        arrays here."""
        self.update_count += 1
        if type(update[0]) is not np.ndarray or type(update[1]) is not np.ndarray:
            update = np.asarray(update[0], dtype=np.float64), np.asarray(update[1], dtype=np.int64)
        if len(update[0]) > self.k:
            update = _rank([update], self.k)
        if slot is None:
            return [update]
        if type(slot) is tuple:
            return [slot, update]
        if len(slot) < _MAX_PARTS:
            return [*slot, update]
        return [_rank(slot, self.k), update]

    def update(self, qid: int, dists: np.ndarray, ids: np.ndarray) -> None:
        """Master-side (two-sided path) slot update."""
        if not 0 <= qid < self.n_queries:
            raise IndexError(f"query id {qid} out of range [0, {self.n_queries})")
        self.store[qid] = self.accumulate(self.store[qid], (dists, ids))

    def result_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_queries, k) distance and id matrices, inf/-1 padded; every
        unranked slot is ranked here."""
        k = self.k
        D = np.full((self.n_queries, k), np.inf, dtype=np.float64)
        I = np.full((self.n_queries, k), -1, dtype=np.int64)
        for q, slot in enumerate(self.store):
            if slot is None:
                continue
            d, i = self[q]
            n = min(len(d), k)
            D[q, :n] = d[:n]
            I[q, :n] = i[:n]
        return D, I
