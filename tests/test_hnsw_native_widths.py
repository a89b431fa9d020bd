"""The compiled HNSW paths at every width, against numpy and against python.

``_hotpath.c`` carries one width-generic float32 kernel (numpy's einsum
reduction order) and one double kernel (scipy cdist's per-pair order).
This file holds them to their references bit for bit at widths around
every lane boundary and at the catalog's descriptor widths (96 DEEP, 128
SIFT, 960 GIST), then holds everything built on them — graphs, saved
artifacts, answers, filtered answers, counters — equal to the python
path, and finally refuses a silent fallback at the paper's own width.
"""

import functools
import os
import shutil
import subprocess

import numpy as np
import pytest

import repro.hnsw.native as hnsw_native
from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw.kernels import _cdist_euclidean, _cdist_sqeuclidean
from tests.test_hnsw_search_rows import search_rows

WIDTHS = (1, 3, 4, 17, 31, 32, 33, 96, 128, 960)
METRICS = ("l2", "sqeuclidean")
N = 120
PARAMS = HnswParams(M=6, ef_construction=30, seed=9)

needs_native = pytest.mark.skipif(
    hnsw_native.native_search_layer_for("l2", 32) is None,
    reason="compiled HNSW paths unavailable on this machine",
)
every_width = pytest.mark.parametrize("dim", WIDTHS)
every_metric = pytest.mark.parametrize("metric", METRICS)


def _rows(dim, n, seed):
    rng = np.random.default_rng([seed, dim])
    return rng.normal(0, 10, size=(n, dim)).astype(np.float32)


@needs_native
@every_width
@every_metric
class TestKernelsMatchNumpy:
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_float32_kernel_is_einsum(self, dim, metric, n):
        A, B = _rows(dim, n, 1), _rows(dim, n, 2)
        diff = A - B
        ref = np.einsum("ij,ij->i", diff, diff)
        if metric == "l2":
            ref = np.sqrt(ref)
        out = np.empty(n, dtype=np.float32)
        hnsw_native._lib.l2sq_batch(
            A.ctypes.data, B.ctypes.data, n, dim, metric == "l2", out.ctypes.data
        )
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 8, 33])
    def test_double_kernel_is_cdist(self, dim, metric, n):
        a, B = _rows(dim, 1, 3), _rows(dim, n, 4)
        cdist = _cdist_euclidean if metric == "l2" else _cdist_sqeuclidean
        ref = cdist(a, B)[0]
        out = np.empty(n, dtype=np.float64)
        kt = np.zeros(8 * dim, dtype=np.float64)
        hnsw_native._lib.l2d_row(
            a.ctypes.data, B.ctypes.data, n, dim, metric == "l2", kt.ctypes.data, out.ctypes.data
        )
        assert out.tobytes() == ref.tobytes()


@functools.lru_cache(maxsize=None)
def _pair(dim, metric):
    """The same corpus built on the compiled paths and on python."""
    X = _rows(dim, N, 5) / 10
    fast = HnswIndex(dim=dim, params=PARAMS, metric=metric, capacity=N)
    slow = HnswIndex(dim=dim, params=PARAMS, metric=metric, capacity=N)
    slow._native = slow._native_build = None
    fast.add_items(X)
    slow.add_items(X)
    Q = X[:6] + np.float32(0.01)
    return fast, slow, Q


def _same_counters(fast, slow):
    assert fast.n_dist_evals == slow.n_dist_evals
    assert fast.n_shrink_ops == slow.n_shrink_ops
    assert fast._visit_epoch == slow._visit_epoch


def _check_rows_against_single(fast, slow, Q, k, D, I, **kw):
    """Row i of a batch answer is the single-query answer (on both paths)
    followed by inf / -1 padding."""
    for i, q in enumerate(Q):
        d, ids = fast.knn_search(q, k, **kw)
        d2, ids2 = slow.knn_search(q, k, **kw)
        m = len(d)
        assert d.dtype == np.float64 and ids.dtype == np.int64
        assert d.tobytes() == d2.tobytes() == D[i, :m].tobytes()
        assert ids.tobytes() == ids2.tobytes() == I[i, :m].tobytes()
        assert np.all(np.isinf(D[i, m:])) and np.all(I[i, m:] == -1)


@needs_native
@every_width
@every_metric
class TestNativeEqualsPython:
    def test_graph_and_saved_artifact(self, dim, metric, tmp_path, assert_same_graph):
        fast, slow, _ = _pair(dim, metric)
        assert fast.native_search_active and not slow.native_search_active
        assert fast.native_build_active
        _same_counters(fast, slow)
        assert_same_graph(fast, slow)
        fast.save(str(tmp_path / "fast.npz"))
        slow.save(str(tmp_path / "slow.npz"))
        with np.load(tmp_path / "fast.npz") as a, np.load(tmp_path / "slow.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].tobytes() == b[name].tobytes(), name

    def test_search_single_batch_and_padding(self, dim, metric):
        fast, slow, Q = _pair(dim, metric)
        for k, ef in ((5, None), (10, 40), (N + 30, None)):  # the last has k > n
            Df, If = fast.knn_search_batch(Q, k, ef=ef)
            Ds, Is = slow.knn_search_batch(Q, k, ef=ef)
            assert Df.dtype == np.float64 and If.dtype == np.int64
            assert Df.tobytes() == Ds.tobytes() and If.tobytes() == Is.tobytes()
            stats = search_rows(fast, Q, k, ef)[2]
            assert stats.tolist() == search_rows(slow, Q, k, ef)[2].tolist()
            _check_rows_against_single(fast, slow, Q, k, Df, If, ef=ef)
            if k > N:  # short rows are padded, never garbage
                assert np.all(If[:, N:] == -1)
        _same_counters(fast, slow)

    @pytest.mark.parametrize("selectivity", [0.0, 0.05, 0.5, 1.0])
    def test_filtered_search(self, dim, metric, selectivity):
        fast, slow, Q = _pair(dim, metric)
        mask = np.random.default_rng([dim, 7]).random(N) < selectivity
        k = 8
        Df, If = fast.knn_search_batch(Q, k, filter=mask)
        Ds, Is = slow.knn_search_batch(Q, k, filter=mask)
        assert Df.dtype == np.float64 and If.dtype == np.int64
        assert Df.tobytes() == Ds.tobytes() and If.tobytes() == Is.tobytes()
        assert (
            search_rows(fast, Q, k, filter=mask)[2].tolist()
            == search_rows(slow, Q, k, filter=mask)[2].tolist()
        )
        assert np.all(mask[If[If >= 0]])  # the predicate is honored
        assert np.all((If >= 0).sum(axis=1) <= min(k, int(mask.sum())))
        _check_rows_against_single(fast, slow, Q, k, Df, If, filter=mask)
        _same_counters(fast, slow)


@needs_native
class TestIslandOnBothPaths:
    """The disconnected-island case of ``tests/test_filtering.py``: the
    predicate selects a far-away cluster, so the walk only arrives
    because masked-out nodes stay in the frontier.  The compiled beam
    carries the mask itself now; it must arrive exactly as python does."""

    def test_filtered_traversal_reaches_island(self):
        rng = np.random.default_rng(7)
        main = rng.normal(size=(360, 16)).astype(np.float32)
        far = rng.normal(size=(40, 16)).astype(np.float32) + 60.0
        perm = rng.permutation(400)  # interleave insertion order
        X = np.concatenate([main, far])[perm]
        mask = perm >= 360
        Q = far[:8] + rng.normal(scale=0.05, size=(8, 16)).astype(np.float32)
        params = HnswParams(M=8, ef_construction=60, seed=5)
        fast = HnswIndex(dim=16, params=params)
        slow = HnswIndex(dim=16, params=params)
        slow._native = slow._native_build = None
        fast.add_items(X)
        slow.add_items(X)
        assert fast.native_search_active and not slow.native_search_active
        rows = np.flatnonzero(mask)
        for q in Q:
            exact = rows[np.argsort(((X[rows] - q) ** 2).sum(axis=1), kind="stable")][:10]
            d, ids = fast.knn_search(q, 10, filter=mask)
            d2, ids2 = slow.knn_search(q, 10, filter=mask)
            assert d.tobytes() == d2.tobytes() and ids.tobytes() == ids2.tobytes()
            assert sorted(ids) == sorted(exact)
        _same_counters(fast, slow)


def _compiler_works(tmp_path) -> bool:
    cc = os.environ.get("CC") or shutil.which("gcc") or shutil.which("cc")
    if cc is None or os.environ.get("REPRO_HNSW_NO_NATIVE"):
        return False
    src = tmp_path / "probe.c"
    src.write_text("int probe(void) { return 0; }\n")
    try:
        subprocess.run(
            [cc, "-shared", "-fPIC", str(src), "-o", str(tmp_path / "probe.so")],
            check=True, capture_output=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def test_no_silent_fallback_at_the_papers_width(tmp_path):
    """SIFT is 128-d.  Where a C compiler works, a 128-d index must run
    the compiled search *and* the compiled insert: a build error in
    ``_hotpath.c`` or a failed self-check would otherwise only show as a
    slower benchmark."""
    if not _compiler_works(tmp_path):
        pytest.skip("no working C compiler (or REPRO_HNSW_NO_NATIVE set)")
    idx = HnswIndex(dim=128)
    assert idx.native_search_active and idx.native_build_active
