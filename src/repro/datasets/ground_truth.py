"""Exact brute-force k-NN ground truth.

Recall (§V-D) is defined against exact nearest neighbors.  The public
corpora ship precomputed ground truth; for synthetic analogues we compute it
here.  The kernel is blocked over queries and base vectors so the distance
matrix never exceeds a fixed memory budget, and uses the GEMM-based pairwise
L2 from :mod:`repro.metrics`.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import Metric, get_metric
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["brute_force_knn"]


def brute_force_knn(
    X: np.ndarray,
    Q: np.ndarray,
    k: int,
    metric: str | Metric = "l2",
    block_queries: int = 256,
    block_points: int = 65_536,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN of each row of ``Q`` among rows of ``X``.

    Returns ``(distances, ids)`` with shape (n_queries, k), closest first.
    Ties are broken by id, matching :func:`repro.utils.heaps.merge_knn`,
    so exact methods can be compared bit-for-bit.
    """
    X = check_matrix(X, "X")
    Q = check_matrix(Q, "Q")
    check_positive_int(k, "k")
    if Q.shape[1] != X.shape[1]:
        raise ValueError(f"dimension mismatch: X is {X.shape[1]}-d, Q is {Q.shape[1]}-d")
    if k > X.shape[0]:
        raise ValueError(f"k={k} exceeds dataset size {X.shape[0]}")
    m = get_metric(metric)

    nq = Q.shape[0]
    out_d = np.full((nq, k), np.inf, dtype=np.float64)
    out_i = np.full((nq, k), -1, dtype=np.int64)

    for q0 in range(0, nq, block_queries):
        q1 = min(q0 + block_queries, nq)
        qblk = Q[q0:q1]
        best_d = np.full((q1 - q0, 0), np.inf)
        best_i = np.full((q1 - q0, 0), -1, dtype=np.int64)
        for p0 in range(0, X.shape[0], block_points):
            p1 = min(p0 + block_points, X.shape[0])
            d = m.pairwise(qblk, X[p0:p1])
            ids = np.arange(p0, p1, dtype=np.int64)[None, :].repeat(q1 - q0, axis=0)
            # merge with running top-k
            cat_d = np.concatenate([best_d, d], axis=1)
            cat_i = np.concatenate([best_i, ids], axis=1)
            best_d, best_i = _smallest(cat_d, cat_i, min(k, cat_d.shape[1]))
        # final exact sort by (distance, id)
        order = np.lexsort((best_i, best_d), axis=-1)[:, :k]
        out_d[q0:q1, : order.shape[1]] = np.take_along_axis(best_d, order, axis=1)
        out_i[q0:q1, : order.shape[1]] = np.take_along_axis(best_i, order, axis=1)
    return out_d, out_i


def _smallest(d: np.ndarray, ids: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the ``kk`` entries first in ``(d, id)`` order, unsorted.

    ``argpartition`` alone keeps an arbitrary subset of the entries tied
    at the kk-th distance; only the rows where such a tie crosses the
    boundary pay a full ``(d, id)`` sort.
    """
    part = np.argpartition(d, kk - 1, axis=1)[:, :kk]
    kth = np.take_along_axis(d, part[:, kk - 1 : kk], axis=1)
    tied = np.flatnonzero((d <= kth).sum(axis=1) > kk)
    if len(tied):
        part[tied] = np.lexsort((ids[tied], d[tied]), axis=-1)[:, :kk]
    return np.take_along_axis(d, part, axis=1), np.take_along_axis(ids, part, axis=1)
