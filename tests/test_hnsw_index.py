"""Unit tests for the HNSW index: construction, search, invariants."""

import numpy as np
import pytest

from repro.datasets import brute_force_knn
from repro.hnsw import HnswIndex, HnswParams, graph_stats, layer_connectivity


@pytest.fixture(scope="module")
def built_index(tiny_clustered_module):
    X, Q, gt_d, gt_i = tiny_clustered_module
    idx = HnswIndex(dim=X.shape[1], params=HnswParams(M=8, ef_construction=60, seed=1))
    idx.add_items(X)
    return idx, X, Q, gt_d, gt_i


@pytest.fixture(scope="module")
def tiny_clustered_module():
    rng = np.random.default_rng(7)
    centers = rng.normal(0, 10, size=(5, 16))
    X = np.concatenate(
        [c + rng.normal(0, 1, size=(80, 16)) for c in centers]
    ).astype(np.float32)
    Q = (X[rng.choice(len(X), 20, replace=False)] + rng.normal(0, 0.3, (20, 16))).astype(
        np.float32
    )
    gt_d, gt_i = brute_force_knn(X, Q, 5)
    return X, Q, gt_d, gt_i


class TestParams:
    def test_m0_is_double_m(self):
        assert HnswParams(M=12).M0 == 24

    def test_level_mult_formula(self):
        assert HnswParams(M=16).level_mult == pytest.approx(1.0 / np.log(16))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HnswParams(M=1)
        with pytest.raises(ValueError):
            HnswParams(ef_construction=0)
        with pytest.raises(ValueError):
            HnswParams(ef_search=0)


class TestConstruction:
    def test_empty_index_search(self):
        idx = HnswIndex(dim=4)
        d, i = idx.knn_search(np.zeros(4, dtype=np.float32), 3)
        assert len(d) == 0 and len(i) == 0

    def test_single_point(self):
        idx = HnswIndex(dim=4)
        idx.add(np.ones(4, dtype=np.float32), ext_id=99)
        d, i = idx.knn_search(np.ones(4, dtype=np.float32), 1)
        assert i[0] == 99 and d[0] == pytest.approx(0.0)

    def test_capacity_grows(self):
        idx = HnswIndex(dim=4, capacity=2)
        X = np.random.default_rng(0).normal(size=(50, 4)).astype(np.float32)
        idx.add_items(X)
        assert len(idx) == 50

    def test_dim_mismatch_rejected(self):
        idx = HnswIndex(dim=4)
        with pytest.raises(ValueError):
            idx.add(np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError):
            idx.add_items(np.zeros((3, 5), dtype=np.float32))

    def test_ids_length_mismatch_rejected(self):
        idx = HnswIndex(dim=4)
        with pytest.raises(ValueError, match="ids"):
            idx.add_items(np.zeros((3, 4), dtype=np.float32) + np.arange(4), ids=[1, 2])

    def test_degree_bounds_respected(self, built_index):
        idx, *_ = built_index
        for lv in range(idx.max_level + 1):
            limit = idx.params.M0 if lv == 0 else idx.params.M
            for node in idx.nodes_at_level(lv):
                assert len(idx.neighbors(int(node), lv)) <= limit

    def test_layer_sizes_decrease_geometrically(self, built_index):
        idx, *_ = built_index
        s = graph_stats(idx)
        sizes = [l["n_nodes"] for l in s["layers"]]
        assert sizes[0] == len(idx)
        for a, b in zip(sizes, sizes[1:]):
            assert b < a

    def test_entry_point_on_top_layer(self, built_index):
        idx, *_ = built_index
        assert idx.node_level(idx.entry_point) == idx.max_level

    def test_layer0_fully_connected_component(self, built_index):
        idx, *_ = built_index
        assert layer_connectivity(idx, 0) == 1.0

    def test_node_levels_are_nested(self, built_index):
        """A node present at layer L must be present at every layer below."""
        idx, *_ = built_index
        for lv in range(1, idx.max_level + 1):
            below = set(idx.nodes_at_level(lv - 1).tolist())
            for node in idx.nodes_at_level(lv).tolist():
                assert node in below


class _Draws:
    """A stand-in generator handing out fixed uniforms, in order, to both
    ``random()`` and ``random(n)``."""

    def __init__(self, u):
        self._u = list(u)

    def random(self, n=None):
        if n is None:
            return self._u.pop(0)
        out, self._u = np.array(self._u[:n]), self._u[n:]
        return out


class TestLevelSampling:
    """A batch's levels come from one RNG call; they must be the per-point
    ``_sample_level`` draws and values, bit for bit."""

    @pytest.mark.parametrize("M", [2, 4, 16, 48])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_batch_levels_equal_per_point_levels(self, M, seed):
        params = HnswParams(M=M, seed=seed)
        batch, single = HnswIndex(dim=4, params=params), HnswIndex(dim=4, params=params)
        for n in (1, 17, 5000):
            expect = [single._sample_level() for _ in range(n)]
            assert batch._sample_levels(n).tolist() == expect
        # both generators were left at the same state
        assert batch._rng.random() == single._rng.random()

    @pytest.mark.parametrize("M", [2, 4, 16, 48])
    def test_draws_at_or_below_the_clamp(self, M):
        u = [0.0, 1e-320, 5e-324, 1e-300, 9.99e-301, 1.0001e-300, 1e-200, 0.5, 1 - 2**-53]
        params = HnswParams(M=M)
        batch, single = HnswIndex(dim=4, params=params), HnswIndex(dim=4, params=params)
        batch._rng, single._rng = _Draws(u), _Draws(u)
        levels = batch._sample_levels(len(u))
        assert levels.dtype == np.int32
        assert levels.tolist() == [single._sample_level() for _ in u]
        # everything at or below the clamp lands on the clamp's level
        assert len(set(levels[:5].tolist())) == 1

    def test_flat_samples_no_levels_and_draws_nothing(self):
        idx = HnswIndex(dim=4, params=HnswParams(M=4, flat=True))
        idx._rng = _Draws([])
        assert idx._sample_levels(9).tolist() == [0] * 9


class TestSearch:
    def test_recall_above_threshold(self, built_index):
        idx, X, Q, gt_d, gt_i = built_index
        hits = 0
        for qi in range(len(Q)):
            _, ids = idx.knn_search(Q[qi], 5, ef=50)
            hits += len(set(ids) & set(gt_i[qi]))
        assert hits / (len(Q) * 5) >= 0.95

    def test_results_sorted_ascending(self, built_index):
        idx, X, Q, *_ = built_index
        d, _ = idx.knn_search(Q[0], 5)
        assert np.all(np.diff(d) >= -1e-12)

    def test_higher_ef_never_worse_recall(self, built_index):
        idx, X, Q, gt_d, gt_i = built_index
        def recall(ef):
            hits = 0
            for qi in range(len(Q)):
                _, ids = idx.knn_search(Q[qi], 5, ef=ef)
                hits += len(set(ids) & set(gt_i[qi]))
            return hits
        assert recall(100) >= recall(5)

    def test_dist_evals_counted(self, built_index):
        idx, X, Q, *_ = built_index
        before = idx.n_dist_evals
        idx.knn_search(Q[0], 5)
        assert idx.n_dist_evals > before

    def test_external_ids_returned(self):
        X = np.random.default_rng(1).normal(size=(30, 8)).astype(np.float32)
        idx = HnswIndex(dim=8, params=HnswParams(M=4, ef_construction=20))
        ids = np.arange(30) * 10 + 5
        idx.add_items(X, ids=ids)
        _, res = idx.knn_search(X[3], 1, ef=30)
        assert res[0] == 35

    def test_k_larger_than_index(self):
        X = np.random.default_rng(2).normal(size=(5, 4)).astype(np.float32)
        idx = HnswIndex(dim=4)
        idx.add_items(X)
        d, i = idx.knn_search(X[0], 10)
        assert len(i) == 5

    def test_invalid_k(self, built_index):
        idx, X, Q, *_ = built_index
        with pytest.raises(ValueError):
            idx.knn_search(Q[0], 0)


class TestMetrics:
    def test_cosine_metric_search(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 16)).astype(np.float32)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        idx = HnswIndex(dim=16, metric="cosine", params=HnswParams(M=8, ef_construction=40))
        idx.add_items(X)
        gt_d, gt_i = brute_force_knn(X, X[:10], 5, metric="cosine")
        hits = 0
        for qi in range(10):
            _, ids = idx.knn_search(X[qi], 5, ef=60)
            hits += len(set(ids) & set(gt_i[qi]))
        assert hits / 50 >= 0.9

    def test_generic_metric_path(self):
        """l1 has no fast kernel: exercises the generic Metric fallback."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 8)).astype(np.float32)
        idx = HnswIndex(dim=8, metric="l1", params=HnswParams(M=4, ef_construction=20))
        idx.add_items(X)
        d, i = idx.knn_search(X[0], 3, ef=30)
        assert i[0] == 0 and d[0] == pytest.approx(0.0, abs=1e-5)


class TestSerialization:
    def test_save_load_roundtrip(self, built_index, tmp_path):
        idx, X, Q, *_ = built_index
        path = str(tmp_path / "index.npz")
        idx.save(path)
        loaded = HnswIndex.load(path)
        assert len(loaded) == len(idx)
        assert loaded.max_level == idx.max_level
        assert loaded.entry_point == idx.entry_point
        # identical graph => identical search results
        for qi in range(5):
            d1, i1 = idx.knn_search(Q[qi], 5, ef=40)
            d2, i2 = loaded.knn_search(Q[qi], 5, ef=40)
            assert np.array_equal(i1, i2)
            assert np.allclose(d1, d2, atol=1e-5)

    def test_load_preserves_params(self, built_index, tmp_path):
        idx, *_ = built_index
        path = str(tmp_path / "index.npz")
        idx.save(path)
        loaded = HnswIndex.load(path)
        assert loaded.params.M == idx.params.M
        assert loaded.params.ef_construction == idx.params.ef_construction


def _bump(name, at, by):
    def corrupt(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][at] += by

    return corrupt


def _resize(name, n):
    def corrupt(arrays):
        arrays[name] = np.resize(arrays[name], len(arrays[name]) + n)

    return corrupt


#: name -> (the array ``load`` must blame, what a damaged file holds)
CORRUPTIONS = {
    "truncated_links": ("links", _resize("links", -3)),
    "counts_do_not_sum": ("links", _bump("link_index", (5, 2), -1)),
    "count_above_limit": ("link_index", _bump("link_index", (0, 2), 100)),
    "node_out_of_range": ("link_index", _bump("link_index", (0, 1), 200)),
    "link_id_out_of_range": ("links", _bump("links", 7, 200)),
    "negative_link_id": ("links", _bump("links", 7, -300)),
    "entry_out_of_range": ("entry", _bump("entry", 0, 200)),
    "short_ext_ids": ("ext_ids", _resize("ext_ids", -1)),
    "long_node_level": ("node_level", _resize("node_level", 1)),
    "wrong_dim": ("meta", _bump("meta", 0, 1)),
    # a graph built with Alg. 4's candidate extension, which ``add`` cannot
    # continue the way it was built
    "extend_candidates_flag": ("meta", _bump("meta", 7, 1)),
    # graphs linked by closest-M selection or without the pruned backfill
    "simple_selection_flag": ("meta", _bump("meta", 4, -1)),
    "no_backfill_flag": ("meta", _bump("meta", 8, -1)),
}


class TestLoadChecksItsFile:
    @pytest.fixture(scope="class")
    def saved(self, tiny_clustered_module, tmp_path_factory):
        X = tiny_clustered_module[0][:200]
        idx = HnswIndex(dim=X.shape[1], params=HnswParams(M=8, ef_construction=60, seed=1))
        idx.add_items(X)
        path = tmp_path_factory.mktemp("hnsw") / "index.npz"
        idx.save(str(path))
        with np.load(path) as f:
            return path, {name: f[name] for name in f.files}

    def test_intact_file_resaves_byte_identical(self, saved, tmp_path):
        path, arrays = saved
        again = tmp_path / "again.npz"
        HnswIndex.load(str(path)).save(str(again))
        with np.load(again) as f:
            assert sorted(f.files) == sorted(arrays)
            for name in f.files:
                assert f[name].tobytes() == arrays[name].tobytes(), name

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_file_is_refused(self, saved, tmp_path, case):
        field, corrupt = CORRUPTIONS[case]
        arrays = dict(saved[1])
        corrupt(arrays)
        path = str(tmp_path / "bad.npz")
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"bad.npz.*'{field}'"):
            HnswIndex.load(path)
