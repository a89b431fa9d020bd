"""The compiled incremental shrink against python's full re-selection
and the reference.

``shrink_node`` in ``_hotpath.c`` folds one appended link into the record
of a node's last selection instead of re-selecting the list, which is what
python's ``_shrink`` does.  Data here is built to reach its hard branches —
rows that are all equal, a small integer grid (ties in query distance and in
pair distance, so the ``<=`` dominator test and the ``(d, id)`` order
decide), isotropic gaussian rows (nothing dominates) and ``sift_like`` —
across ``keep_pruned``, degree, width and the ways points can arrive, and
every variant must equal the python build bit for bit: graph, saved
arrays, counters, answers.
"""

import functools

import numpy as np
import pytest

import repro.hnsw.native as hnsw_native
from repro.datasets import sift_like
from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw.reference import ReferenceHnswIndex

N = 64
HALF = 40

pytestmark = pytest.mark.skipif(
    hnsw_native.native_build_for("l2", 32) is None,
    reason="compiled insert path unavailable on this machine",
)


@functools.lru_cache(maxsize=None)
def _data(kind, dim):
    rng = np.random.default_rng([17, dim])
    if kind == "duplicates":
        X = np.tile(rng.normal(size=dim), (N, 1))
    elif kind == "grid":
        X = rng.integers(0, 3, size=(N, dim))
    elif kind == "gaussian":
        X = rng.normal(size=(N, dim))
    else:
        X = sift_like(N, dim=dim, seed=17)
    return np.ascontiguousarray(X, dtype=np.float32)


def _index(dim, params, compiled):
    idx = HnswIndex(dim=dim, params=params, capacity=16)  # small: _grow runs too
    assert idx.native_build_active
    if not compiled:
        idx._native_build = None  # python's insert loop
    return idx


def _reloaded(idx, path, compiled):
    idx.save(str(path))
    idx = HnswIndex.load(str(path))
    if not compiled:
        idx._native_build = None
    return idx


def _arrive(X, params, how, compiled, tmp_path):
    """Insert the rows of X one of four ways; returns the finished index
    and what building it charged."""
    idx = _index(X.shape[1], params, compiled)
    if how == "bulk":
        idx.add_items(X)
    elif how == "chunks":
        for a in range(0, len(X), 7):
            idx.add_items(X[a : a + 7])
    elif how == "single":
        for i, row in enumerate(X):
            assert idx.add(row) == i
    else:  # a loaded index starts with nothing recorded
        idx.add_items(X[:HALF])
        idx = _reloaded(idx, tmp_path / f"half-{compiled}.npz", compiled)
        idx.add_items(X[HALF:])
    return idx, idx.n_dist_evals


def _saved_arrays(idx, path):
    idx.save(str(path))
    with np.load(path) as f:
        return {name: f[name].tobytes() for name in f.files}


def _assert_equal(fast, slow, Q, tmp_path, assert_same_graph):
    (fast, fast_evals), (slow, slow_evals) = fast, slow
    assert_same_graph(fast, slow)
    assert fast_evals == slow_evals
    assert fast.n_shrink_ops == slow.n_shrink_ops
    assert _saved_arrays(fast, tmp_path / "f.npz") == _saved_arrays(slow, tmp_path / "s.npz")
    Df, If = fast.knn_search_batch(Q, 5, ef=20)
    Ds, Is = slow.knn_search_batch(Q, 5, ef=20)
    assert Df.tobytes() == Ds.tobytes() and If.tobytes() == Is.tobytes()


@pytest.mark.parametrize("dim", [3, 32, 128, 960])
@pytest.mark.parametrize("M", [4, 16])
@pytest.mark.parametrize("keep_pruned", [True, False])
@pytest.mark.parametrize("kind", ["duplicates", "grid", "gaussian", "sift_like"])
def test_every_arrival_equals_python_and_reference(
    kind, keep_pruned, M, dim, tmp_path, assert_same_graph
):
    X = _data(kind, dim)
    Q = X[:8] + np.float32(0.25)
    params = HnswParams(M=M, ef_construction=24, seed=5, keep_pruned=keep_pruned)
    slow = _arrive(X, params, "bulk", False, tmp_path)
    for how in ("bulk", "chunks", "single"):
        fast = _arrive(X, params, how, True, tmp_path)
        _assert_equal(fast, slow, Q, tmp_path, assert_same_graph)
    _assert_equal(
        _arrive(X, params, "reload", True, tmp_path),
        _arrive(X, params, "reload", False, tmp_path),
        Q,
        tmp_path,
        assert_same_graph,
    )

    ref = ReferenceHnswIndex(dim=dim, params=params)
    ref.add_items(X)
    fast, fast_evals = fast
    assert ref.entry_point == fast.entry_point
    assert ref.n_dist_evals == fast_evals
    for lv in range(fast.max_level + 1):
        for node in fast.nodes_at_level(lv).tolist():
            assert ref.neighbors(node, lv) == fast.neighbors(node, lv), (lv, node)
    for q in Q:
        rd, ri = ref.knn_search(q, 5, ef=20)
        fd, fi = fast.knn_search(q, 5, ef=20)
        assert rd.tobytes() == fd.tobytes() and ri.tobytes() == fi.tobytes()


def test_fast_path_is_taken():
    """A port that always fell back to the full re-selection would pass
    every identity test above; this one it fails."""
    X = sift_like(1500, dim=128, seed=3)
    idx = HnswIndex(dim=128, params=HnswParams(M=16, ef_construction=100, seed=1), capacity=1500)
    idx.add_items(X)
    assert idx.native_build_active
    assert idx.n_shrink_ops > 20 * len(X)
    assert idx._n_full_shrinks <= 0.15 * idx.n_shrink_ops


def test_scratch_is_kept_between_single_adds():
    """One-row ``add`` finds the selection scratch with the address cache
    instead of allocating and zeroing it per call."""
    X = _data("gaussian", 32)
    params = HnswParams(M=4, ef_construction=24, seed=5, flat=True)  # one level: no rebuilds
    idx = HnswIndex(dim=32, params=params, capacity=N)
    idx.add(X[0])
    cached = idx._native_graph_cache
    assert cached is not None
    _graph, _ext_addr, build, _keep = cached
    assert len(build) == 4  # state table, ws_d, ws_i, maxn
    for row in X[1:]:
        idx.add(row)
    assert idx._native_graph_cache is cached
