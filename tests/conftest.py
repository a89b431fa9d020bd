"""Shared fixtures.

The repo is importable either via the editable install or, as a fallback,
by prepending ``src/`` to ``sys.path`` (useful in environments where the
editable install cannot be performed, e.g. offline without the ``wheel``
package).
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.datasets import brute_force_knn, sample_queries, sift_like


@pytest.fixture(scope="session")
def small_sift():
    """1500-point SIFT-like corpus with 30 queries and exact ground truth."""
    X = sift_like(1500, seed=11)
    Q = sample_queries(X, 30, noise_scale=0.05, seed=12)
    gt_d, gt_i = brute_force_knn(X, Q, 10)
    return X, Q, gt_d, gt_i


@pytest.fixture(scope="session")
def tiny_clustered():
    """400 low-dimensional clustered points for fast exact-search tests."""
    rng = np.random.default_rng(7)
    centers = rng.normal(0, 10, size=(5, 16))
    X = np.concatenate(
        [c + rng.normal(0, 1, size=(80, 16)) for c in centers]
    ).astype(np.float32)
    Q = X[rng.choice(len(X), 20, replace=False)] + rng.normal(
        0, 0.3, size=(20, 16)
    ).astype(np.float32)
    Q = Q.astype(np.float32)
    gt_d, gt_i = brute_force_knn(X, Q, 5)
    return X, Q, gt_d, gt_i


def _assert_same_graph(a, b) -> None:
    """Two ``HnswIndex`` objects hold byte-identical graphs: same ids,
    levels, entry point and, per level, the same ordered neighbor lists."""
    n = len(a)
    assert n == len(b)
    assert a.entry_point == b.entry_point
    assert a.max_level == b.max_level
    for name in ("_ext", "_node_level"):
        assert getattr(a, name)[:n].tobytes() == getattr(b, name)[:n].tobytes(), name
    for lv in range(a.max_level + 1):
        assert a._cnts[lv][:n].tobytes() == b._cnts[lv][:n].tobytes(), lv
        for node in range(n):
            cnt = a._cnts[lv][node]
            assert a._nbrs[lv][node, :cnt].tobytes() == b._nbrs[lv][node, :cnt].tobytes(), (lv, node)


@pytest.fixture(scope="session")
def assert_same_graph():
    """The graph-equality check the bit-identity tests share."""
    return _assert_same_graph
