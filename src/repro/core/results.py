"""Global k-NN result accumulation.

One slot per query holding the best-k (distances, ids) seen so far.  The
slot combiner is exactly the operation the paper implements remotely with
``MPI_Get_accumulate``: merge a worker's local k-NN into the global top-k.
The same object backs both result paths — as the master-side store in
two-sided mode and as the RMA window buffer in one-sided mode — so both
paths provably compute the same answer (a property test asserts this).
"""

from __future__ import annotations

import numpy as np

__all__ = ["GlobalResults"]


class GlobalResults:
    """Fixed-size array of per-query top-k results."""

    def __init__(self, n_queries: int, k: int) -> None:
        if n_queries < 1:
            raise ValueError(f"n_queries must be >= 1, got {n_queries}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n_queries = n_queries
        self.k = k
        self._slots: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_queries
        self.update_count = 0

    # dict/array protocol so the RMA Window can use this object as storage
    def __getitem__(self, qid: int):
        return self._slots[qid]

    def __setitem__(self, qid: int, value) -> None:
        self._slots[qid] = value

    def combine(self, old, update) -> tuple[np.ndarray, np.ndarray]:
        """Merge an incoming local result into a slot (the RMA combiner).

        Bit-identical to ``merge_knn([old, update], k)``: one sort of the
        ``(distance, id)`` pairs, then each id's first (best) pair, the
        first ``k`` of those.  At ``k``-sized inputs python's sort beats
        numpy's per-call overhead.
        """
        self.update_count += 1
        k = self.k
        if old is None:
            d, i = update
            order = np.lexsort((i, d))[:k]
            return np.asarray(d)[order], np.asarray(i)[order]
        (d0, i0), (d1, i1) = old, update
        best: dict[int, float] = {}  # id -> distance, in (distance, id) order
        for d, i in sorted([*zip(d0.tolist(), i0.tolist()), *zip(d1.tolist(), i1.tolist())]):
            if i not in best:
                best[i] = d
                if len(best) == k:
                    break
        n = len(best)
        return np.fromiter(best.values(), np.float64, n), np.fromiter(best, np.int64, n)

    def update(self, qid: int, dists: np.ndarray, ids: np.ndarray) -> None:
        """Master-side (two-sided path) slot update."""
        if not 0 <= qid < self.n_queries:
            raise IndexError(f"query id {qid} out of range [0, {self.n_queries})")
        self._slots[qid] = self.combine(self._slots[qid], (dists, ids))

    def result_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_queries, k) distance and id matrices, inf/-1 padded."""
        D = np.full((self.n_queries, self.k), np.inf, dtype=np.float64)
        I = np.full((self.n_queries, self.k), -1, dtype=np.int64)
        for q, slot in enumerate(self._slots):
            if slot is None:
                continue
            d, i = slot
            n = min(len(d), self.k)
            D[q, :n] = d[:n]
            I[q, :n] = i[:n]
        return D, I
