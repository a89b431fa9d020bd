"""One exact top-k: the k rows of a point set nearest to each query.

Every brute-force ranking in the package — the ``pre`` filter branch and
the sample scan of the cluster searchers and the brute-force local
searcher — is this routine.  Each row is ranked on its
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

:class:`ScanRows` prepares a point set once (its ``TopkRows`` descriptor
is filled there, not per scan) and :class:`ExactTopk` keeps the query and
output buffers of the compiled scan behind one ``TopkCall`` descriptor,
so a caller that scans many times — one searcher serving every task of a
run — passes two addresses per call.
"""

from __future__ import annotations

import ctypes

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

    ``native`` is ``(library, TopkRows address)`` when the compiled scan
    serves these rows — float32, at least one row, a width whose
    self-check passed — else None.  The arrays and their ``TopkRows``
    descriptor are kept here, so the addresses stay valid as long as this
    object lives.
    """

    __slots__ = ("pts", "ids", "n", "dim", "native", "_desc")

    def __init__(self, pts: np.ndarray, ids: np.ndarray) -> None:
        self.pts, self.ids = pts, ids
        self.n, self.dim = pts.shape
        self.native = self._desc = None
        if pts.dtype == np.float32 and self.n:
            from repro.hnsw.native import TopkRows, native_topk_for  # loads on first use

            lib = native_topk_for(self.dim)
            if lib is not None:
                self.pts = np.ascontiguousarray(pts)
                self.ids = np.ascontiguousarray(ids, dtype=np.int64)
                self._desc = TopkRows(self.pts.ctypes.data, self.ids.ctypes.data, self.n, self.dim)
                self.native = (lib, ctypes.addressof(self._desc))


class ExactTopk:
    """:func:`exact_topk` over prepared rows, with the compiled scan's
    query and output buffers and their ``TopkCall`` descriptor kept
    between calls (grown to the largest query count seen; replaced when
    the width, k or sqrt flag changes)."""

    def __init__(self) -> None:
        self._bufs = None

    def __call__(
        self, metric: Metric, Q: np.ndarray, rows: ScanRows, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        do_sqrt = _COMPILED.get(type(metric))
        if rows.native is None or do_sqrt is None:
            return reference_topk(metric, Q, rows.pts, rows.ids, k)
        lib, rows_addr = rows.native
        nq = len(Q)
        bufs = self._bufs
        if bufs is None or bufs[0] < nq or bufs[1] != (rows.dim, k, do_sqrt):
            bufs = self._bufs = self._call_bufs(nq, rows.dim, k, do_sqrt)
        _, _, (q_in, D, I), call, call_addr = bufs
        q_in[:nq] = Q
        call.nq = nq
        lib.exact_topk(rows_addr, call_addr)
        m = min(rows.n, k)
        return [D[i, :m].copy() for i in range(nq)], [I[i, :m].copy() for i in range(nq)]

    @staticmethod
    def _call_bufs(nq: int, dim: int, k: int, do_sqrt: int) -> tuple:
        """``(capacity, key, (Q, D, I), TopkCall, its address)`` for scans
        of up to ``nq`` queries."""
        from repro.hnsw.native import TopkCall

        arrays = (
            np.empty((nq, dim), dtype=np.float64),
            np.empty((nq, k), dtype=np.float64),
            np.empty((nq, k), dtype=np.int64),
        )
        call = TopkCall(*(a.ctypes.data for a in arrays), nq, k, do_sqrt)
        return nq, (dim, k, do_sqrt), arrays, call, ctypes.addressof(call)


def exact_topk(
    metric: str | Metric, Q: np.ndarray, pts: np.ndarray, ids: np.ndarray, k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per row of the query matrix ``Q``: the float64 distances and int64
    ids of the ``min(k, len(pts))`` rows of ``pts`` nearest under
    ``metric``, ordered by ``(d, id)``.  One-shot form of
    :class:`ExactTopk` over :class:`ScanRows`."""
    return ExactTopk()(get_metric(metric), Q, ScanRows(pts, ids), k)
