"""Argument validation helpers shared across the public API surface."""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_filter_mask",
    "check_positive_int",
    "check_matrix",
    "check_query",
    "check_vector",
    "check_probability",
]


def check_positive_int(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_matrix(x: np.ndarray, name: str, dtype=np.float32) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float array; reject empties and NaNs."""
    x = np.ascontiguousarray(x, dtype=dtype)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_points, dim), got shape {x.shape}")
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def check_query(Q: np.ndarray, k: int, dim: int, n_points: int) -> tuple[np.ndarray, int]:
    """Validated ``(Q, k)`` of one batch query against a fitted index: a
    float32 matrix of the index's width and a positive integer k no larger
    than the number of indexed points — refused here, at the API edge,
    rather than from inside a simulated worker."""
    Q = check_matrix(Q, "Q")
    if Q.shape[1] != dim:
        raise ValueError(f"queries are {Q.shape[1]}-d, index is {dim}-d")
    k = check_positive_int(k, "k")
    if k > n_points:
        raise ValueError(f"k={k} exceeds the {n_points} indexed points")
    return Q, k


def check_vector(q: np.ndarray, name: str, dim: int | None = None, dtype=np.float32) -> np.ndarray:
    q = np.ascontiguousarray(q, dtype=dtype)
    if q.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {q.shape}")
    if dim is not None and q.shape[0] != dim:
        raise ValueError(f"{name} has dimension {q.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"{name} contains non-finite values")
    return q


def check_filter_mask(filter: np.ndarray, n_rows: int) -> np.ndarray:
    """Validate a filter mask against the index size; returns a bool view."""
    mask = np.asarray(filter)
    if mask.dtype != np.bool_:
        raise TypeError(f"filter must be a boolean mask, got dtype {mask.dtype}")
    if mask.shape != (n_rows,):
        raise ValueError(
            f"filter mask has shape {mask.shape}, index has {n_rows} rows"
        )
    return mask


def check_probability(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")
    return p
