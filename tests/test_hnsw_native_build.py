"""Native-build bit-identity gate coverage.

The compiled INSERT path must be a pure wall-clock optimisation: same
graphs, same counters, same artifacts as the python path, and any
failure of its bit-identity self-checks (or the escape hatch) must fall
back to python cleanly.  The PQ fast-scan kernel carries the same
contract against its numpy fallback.
"""

import ctypes

import numpy as np
import pytest

import repro.hnsw.native as hnsw_native
import repro.pq.native as pq_native
from repro.hnsw import HnswIndex, HnswParams
from repro.pq import IVFPQIndex
from repro.pq.kernels import _adc_scan_numpy, adc_scan, transpose_codes
from repro.pq.quantizer import ProductQuantizer


@pytest.fixture
def corpus():
    rng = np.random.default_rng(11)
    return rng.normal(0, 1, size=(800, 32)).astype(np.float32)


@pytest.fixture
def params():
    return HnswParams(M=8, ef_construction=40, seed=3)


def _build_pair(X, params, metric="l2"):
    """One native-built and one python-built index over the same data."""
    fast = HnswIndex(dim=32, params=params, metric=metric, capacity=len(X))
    fast.add_items(X)
    slow = HnswIndex(dim=32, params=params, metric=metric, capacity=len(X))
    slow._native_build = None
    slow._native = None
    slow.add_items(X)
    return fast, slow


needs_native_build = pytest.mark.skipif(
    hnsw_native.native_build_for("l2", 32) is None,
    reason="compiled insert path unavailable on this machine",
)


@pytest.fixture
def hnsw_native_state():
    """Snapshot/restore the hnsw loader's sticky module state."""
    state = (
        hnsw_native._lib,
        hnsw_native._lib_state,
        dict(hnsw_native._checked),
        dict(hnsw_native._checked_cdist),
    )
    yield
    (
        hnsw_native._lib,
        hnsw_native._lib_state,
    ) = state[0], state[1]
    hnsw_native._checked = state[2]
    hnsw_native._checked_cdist = state[3]


@pytest.fixture
def pq_native_state():
    state = (pq_native._lib, pq_native._lib_state, pq_native._scan_checked)
    yield
    pq_native._lib, pq_native._lib_state, pq_native._scan_checked = state


class TestNativeBuild:
    @needs_native_build
    def test_bulk_build_identical(self, corpus, params, assert_same_graph):
        fast, slow = _build_pair(corpus, params)
        assert fast.native_build_active and not slow.native_build_active
        assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals
        assert fast.n_shrink_ops == slow.n_shrink_ops

    @needs_native_build
    def test_incremental_add_identical(self, corpus, params, assert_same_graph):
        fast = HnswIndex(dim=32, params=params, capacity=len(corpus))
        slow = HnswIndex(dim=32, params=params, capacity=len(corpus))
        slow._native_build = None
        slow._native = None
        for i in range(200):
            assert fast.add(corpus[i], ext_id=1000 + i) == i
            slow.add(corpus[i], ext_id=1000 + i)
        assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals
        np.testing.assert_array_equal(fast._ext[:200], slow._ext[:200])

    @needs_native_build
    def test_search_after_native_build_identical(self, corpus, params):
        fast, slow = _build_pair(corpus, params)
        for q in corpus[:20]:
            df, idf = fast.knn_search(q, 5)
            ds, ids = slow.knn_search(q, 5)
            np.testing.assert_array_equal(idf, ids)
            np.testing.assert_array_equal(df, ds)

    @needs_native_build
    def test_simple_selection_identical(self, corpus, assert_same_graph):
        params = HnswParams(M=8, ef_construction=40, seed=3, select_heuristic=False)
        fast, slow = _build_pair(corpus, params)
        assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals

    @needs_native_build
    def test_save_load_byte_identical(self, corpus, params, tmp_path, assert_same_graph):
        fast, slow = _build_pair(corpus, params)
        pf, ps = str(tmp_path / "fast.npz"), str(tmp_path / "slow.npz")
        fast.save(pf)
        slow.save(ps)
        with np.load(pf) as a, np.load(ps) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].tobytes() == b[name].tobytes(), name
        loaded = HnswIndex.load(pf)
        assert_same_graph(loaded, slow)


class TestBitIdentityGates:
    def test_forced_cdist_selfcheck_failure_falls_back(
        self, corpus, params, monkeypatch, hnsw_native_state
    ):
        """A failing double-kernel self-check disables ONLY the build path;
        construction still succeeds on python (search native untouched)."""
        monkeypatch.setattr(hnsw_native, "_selfcheck_cdist", lambda lib, dim, s: False)
        idx = HnswIndex(dim=32, params=params, capacity=len(corpus))
        assert not idx.native_build_active
        idx.add_items(corpus)
        assert len(idx) == len(corpus)
        d, ids = idx.knn_search(corpus[0], 5)
        assert ids[0] == 0

    def test_forced_einsum_selfcheck_failure_disables_both(
        self, params, monkeypatch, hnsw_native_state
    ):
        monkeypatch.setattr(hnsw_native, "_selfcheck", lambda lib, dim, s: False)
        idx = HnswIndex(dim=32, params=params)
        assert not idx.native_search_active
        assert not idx.native_build_active

    @needs_native_build
    def test_selfcheck_failure_at_one_width_leaves_others_native(
        self, params, monkeypatch, hnsw_native_state
    ):
        """The self-check cache is keyed by width: a kernel that disagrees
        with numpy at 48-d sends 48-d to python and nothing else."""
        real = hnsw_native._lib.l2sq_batch

        def wrong_at_48(A, B, n, dim, do_sqrt, out):
            real(A, B, n, dim, do_sqrt, out)
            if dim == 48:
                ctypes.memset(out, 0, 4)  # corrupt the first distance

        hnsw_native._checked.pop((48, 1), None)
        hnsw_native._checked.pop((32, 1), None)
        monkeypatch.setattr(hnsw_native._lib, "l2sq_batch", wrong_at_48)
        bad = HnswIndex(dim=48, params=params)
        good = HnswIndex(dim=32, params=params)
        assert not bad.native_search_active and not bad.native_build_active
        assert good.native_search_active and good.native_build_active
        assert hnsw_native._checked[(48, 1)] is False
        assert hnsw_native._checked[(32, 1)] is True
        # the failed width still builds and answers, on python
        X = np.random.default_rng(2).normal(size=(60, 48)).astype(np.float32)
        bad.add_items(X)
        assert bad.knn_search(X[7], 3)[1][0] == 7

    def test_no_native_env_covers_build_and_search(
        self, corpus, params, monkeypatch, hnsw_native_state
    ):
        monkeypatch.setenv("REPRO_HNSW_NO_NATIVE", "1")
        monkeypatch.setattr(hnsw_native, "_lib", None)
        monkeypatch.setattr(hnsw_native, "_lib_state", "unloaded")
        idx = HnswIndex(dim=32, params=params, capacity=len(corpus))
        assert not idx.native_search_active
        assert not idx.native_build_active
        idx.add_items(corpus[:100])
        assert len(idx) == 100

    def test_extend_candidates_stays_on_python(self, params):
        p = HnswParams(M=8, ef_construction=40, seed=3, extend_candidates=True)
        idx = HnswIndex(dim=32, params=p)
        assert not idx.native_build_active


class TestPqScanGates:
    def test_scan_matches_numpy_fallback(self, corpus):
        pq = ProductQuantizer(8, 64, seed=1).fit(corpus)
        table = pq.adc_table(corpus[0])
        ct = transpose_codes(pq.encode(corpus))
        np.testing.assert_array_equal(adc_scan(table, ct), _adc_scan_numpy(table, ct))

    def test_no_native_env_forces_numpy(self, corpus, monkeypatch, pq_native_state):
        pq = ProductQuantizer(4, 32, seed=1).fit(corpus)
        codes = pq.encode(corpus)
        with_native = pq.adc_distances(corpus[1], codes)
        monkeypatch.setenv("REPRO_PQ_NO_NATIVE", "1")
        monkeypatch.setattr(pq_native, "_lib", None)
        monkeypatch.setattr(pq_native, "_lib_state", "unloaded")
        monkeypatch.setattr(pq_native, "_scan_checked", None)
        assert pq_native.native_adc_scan() is None
        without = pq.adc_distances(corpus[1], codes)
        np.testing.assert_array_equal(with_native, without)

    def test_ivfpq_results_native_independent(self, corpus, monkeypatch, pq_native_state):
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=32, seed=2, n_probe=3)
        idx.fit(corpus)
        d1, i1 = idx.knn_search(corpus[5], 5)
        monkeypatch.setenv("REPRO_PQ_NO_NATIVE", "1")
        monkeypatch.setattr(pq_native, "_lib", None)
        monkeypatch.setattr(pq_native, "_lib_state", "unloaded")
        monkeypatch.setattr(pq_native, "_scan_checked", None)
        d2, i2 = idx.knn_search(corpus[5], 5)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(d1, d2)
