"""One exact top-k: the k rows of a point set nearest to each query.

Every brute-force ranking in the package — the ``pre`` filter branch and
the sample scan of the cluster searchers, the brute-force local searcher
and LSH's candidate ranking — is this routine.  Each row is ranked on its
metric's ``one_to_many`` distances and the k smallest are kept in
``(d, id)`` order, ties broken by id and then by row order.

Two paths give the same bits:

- the **reference**: ``one_to_many`` then ``np.lexsort((ids, d))[:k]``,
  for every metric and point dtype;
- the **compiled scan**: for l2 and sqeuclidean over float32 rows, one
  call into the HNSW library (``exact_topk`` in ``_hotpath.c``) for a
  whole query matrix.  It serves a width only after a bit-for-bit
  self-check against the reference at that width
  (:func:`repro.hnsw.native.native_topk_for`); ``REPRO_HNSW_NO_NATIVE=1``
  turns it off with the other compiled paths.

:class:`ScanRows` prepares a point set once (its two addresses are taken
there, not per scan) and :class:`ExactTopk` keeps the query and output
buffers of the compiled scan, so a caller that scans many times — one
searcher serving every task of a run — pays neither per call.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import Metric, get_metric
from repro.metrics.lp import EuclideanMetric, SquaredEuclidean

__all__ = ["ExactTopk", "ScanRows", "exact_topk", "reference_topk"]

#: metrics the compiled scan serves -> its ``do_sqrt`` argument
_COMPILED = {EuclideanMetric: 1, SquaredEuclidean: 0}


def reference_topk(
    metric: Metric, Q: np.ndarray, pts: np.ndarray, ids: np.ndarray, k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per row of ``Q``: the (float64 distances, int64 ids) of the k rows
    of ``pts`` nearest under ``metric``, closest first — the numpy code
    the compiled scan must match."""
    ds, idss = [], []
    for q in Q:
        d = metric.one_to_many(q, pts)
        order = np.lexsort((ids, d))[:k]
        ds.append(np.asarray(d[order], dtype=np.float64))
        idss.append(np.asarray(ids[order], dtype=np.int64))
    return ds, idss


class ScanRows:
    """A point set prepared for repeated exact top-k scans.

    ``native`` is ``(library, points address, ids address)`` when the
    compiled scan serves these rows — float32, at least one row, a width
    whose self-check passed — else None.  The arrays are kept here, so the
    addresses stay valid as long as this object lives.
    """

    __slots__ = ("pts", "ids", "n", "dim", "native")

    def __init__(self, pts: np.ndarray, ids: np.ndarray) -> None:
        self.pts, self.ids = pts, ids
        self.n, self.dim = pts.shape
        self.native = None
        if pts.dtype == np.float32 and self.n:
            from repro.hnsw.native import native_topk_for  # the library loads on first use

            lib = native_topk_for(self.dim)
            if lib is not None:
                self.pts = np.ascontiguousarray(pts)
                self.ids = np.ascontiguousarray(ids, dtype=np.int64)
                self.native = (lib, self.pts.ctypes.data, self.ids.ctypes.data)


class ExactTopk:
    """:func:`exact_topk` over prepared rows, with the compiled scan's
    query and output buffers kept between calls (grown to the largest
    query count seen; replaced when the width or k changes)."""

    def __init__(self) -> None:
        self._bufs = None

    def __call__(
        self, metric: Metric, Q: np.ndarray, rows: ScanRows, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        do_sqrt = _COMPILED.get(type(metric))
        if rows.native is None or do_sqrt is None:
            return reference_topk(metric, Q, rows.pts, rows.ids, k)
        lib, x_addr, ids_addr = rows.native
        nq, dim = len(Q), rows.dim
        bufs = self._bufs
        if bufs is None or bufs[0] < nq or bufs[1] != (dim, k):
            arrays = (
                np.empty((nq, dim), dtype=np.float64),
                np.empty((nq, k), dtype=np.float64),
                np.empty((nq, k), dtype=np.int64),
            )
            bufs = self._bufs = (nq, (dim, k), arrays, [a.ctypes.data for a in arrays])
        _, _, (q_in, D, I), (q_addr, d_addr, i_addr) = bufs
        q_in[:nq] = Q
        lib.exact_topk(q_addr, nq, x_addr, ids_addr, rows.n, dim, k, do_sqrt, d_addr, i_addr)
        m = min(rows.n, k)
        return [D[i, :m].copy() for i in range(nq)], [I[i, :m].copy() for i in range(nq)]


def exact_topk(
    metric: str | Metric, Q: np.ndarray, pts: np.ndarray, ids: np.ndarray, k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per row of the query matrix ``Q``: the float64 distances and int64
    ids of the ``min(k, len(pts))`` rows of ``pts`` nearest under
    ``metric``, ordered by ``(d, id)``.  One-shot form of
    :class:`ExactTopk` over :class:`ScanRows`."""
    return ExactTopk()(get_metric(metric), Q, ScanRows(pts, ids), k)
