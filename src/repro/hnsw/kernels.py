"""Fast float32 distance kernels for the HNSW hot path.

The generic :class:`~repro.metrics.base.Metric` implementations convert to
float64 on every call; inside a graph traversal that conversion copy
dominates (profiling-driven, per the HPC guides).  For the metrics whose
formula we can inline — ``l2``, ``sqeuclidean``, ``ip``, and ``cosine`` —
these kernels operate directly on the index's float32 point buffer.

Shared by :class:`~repro.hnsw.index.HnswIndex` (the flat production
backend) and :class:`~repro.hnsw.reference.ReferenceHnswIndex` (the
dict-based test oracle), so the two backends are bit-identical by
construction: same kernel, same summation order.

One plain numpy function per kernel and metric: these are what the python
path runs and what ``_hotpath.c`` is self-checked against
(:mod:`repro.hnsw.native`), so there is no allocation-free or
incremental variant here — that work lives in the C file.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fast_kernel_for", "fast_self_pairwise_for"]

_EPS32 = np.float32(1e-30)

try:  # scipy's cdist fast path, minus the per-call validation wrapper
    from scipy.spatial._distance_pybind import (
        cdist_euclidean as _cdist_euclidean,
        cdist_sqeuclidean as _cdist_sqeuclidean,
    )
except ImportError:  # pragma: no cover - older/newer scipy layout
    from scipy.spatial.distance import cdist as _cdist

    def _cdist_euclidean(a, b):
        return _cdist(a, b)

    def _cdist_sqeuclidean(a, b):
        return _cdist(a, b, "sqeuclidean")


def _l2sq_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    diff = sub - q
    return np.einsum("ij,ij->i", diff, diff)


def _l2_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    return np.sqrt(_l2sq_f32(q, sub))


def _ip_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    return -(sub @ q)


def _cosine_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    nq = np.sqrt(q @ q) + _EPS32
    ns = np.sqrt(np.einsum("ij,ij->i", sub, sub)) + _EPS32
    return 1.0 - (sub @ q) / (ns * nq)


def _l2_pairwise_f32(A: np.ndarray) -> np.ndarray:
    return _cdist_euclidean(A, A)


def _l2sq_pairwise_f32(A: np.ndarray) -> np.ndarray:
    return _cdist_sqeuclidean(A, A)


def _ip_pairwise_f32(A: np.ndarray) -> np.ndarray:
    return -(A @ A.T)


def _cosine_pairwise_f32(A: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.einsum("ij,ij->i", A, A)) + _EPS32
    return 1.0 - (A @ A.T) / np.outer(n, n)


def _l2_row_f32(A: np.ndarray, i: int) -> list[float]:
    return _cdist_euclidean(A[i : i + 1], A)[0].tolist()


def _l2sq_row_f32(A: np.ndarray, i: int) -> list[float]:
    return _cdist_sqeuclidean(A[i : i + 1], A)[0].tolist()


_ONE_TO_MANY = {
    "l2": _l2_f32,
    "sqeuclidean": _l2sq_f32,
    "ip": _ip_f32,
    "cosine": _cosine_f32,
}

_SELF_PAIRWISE = {
    "l2": _l2_pairwise_f32,
    "sqeuclidean": _l2sq_pairwise_f32,
    "ip": _ip_pairwise_f32,
    "cosine": _cosine_pairwise_f32,
}

# Row kernels exist only where a single row is guaranteed bit-identical to
# the corresponding row of the full pairwise matrix.  That holds for cdist
# (each entry is an independent pair computation) but NOT for the
# BLAS-backed ip/cosine pairwise, where a matrix-vector product may
# accumulate in a different order than the matrix-matrix product.
_SELF_ROW = {
    "l2": _l2_row_f32,
    "sqeuclidean": _l2sq_row_f32,
}


def fast_kernel_for(metric_name: str):
    """float32 one-to-many kernel ``(q, sub) -> dists``, or None."""
    return _ONE_TO_MANY.get(metric_name)


def fast_self_pairwise_for(metric_name: str):
    """float32 self-pairwise kernel ``A -> (n, n) dists``, or None."""
    return _SELF_PAIRWISE.get(metric_name)


def fast_self_row_for(metric_name: str):
    """float32 pairwise row kernel ``(A, i) -> list``, or None.

    Bit-identical to ``fast_self_pairwise_for(...)(A)[i].tolist()``; lets
    neighbor selection skip the n² matrix when only a few rows are kept.
    """
    return _SELF_ROW.get(metric_name)
