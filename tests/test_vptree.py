"""Unit tests for the serial VP-tree, selection heuristic, and router."""

import numpy as np
import pytest

from repro.datasets import brute_force_knn
from repro.vptree import PartitionRouter, VPTree, select_vantage_point, spread_score
from repro.metrics import get_metric


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    centers = rng.normal(0, 20, size=(4, 12))
    X = np.concatenate([c + rng.normal(0, 1.5, size=(100, 12)) for c in centers]).astype(
        np.float32
    )
    Q = (X[rng.choice(len(X), 25, replace=False)] + rng.normal(0, 0.5, (25, 12))).astype(
        np.float32
    )
    gt_d, gt_i = brute_force_knn(X, Q, 7)
    return X, Q, gt_d, gt_i


class TestSelect:
    def test_spread_score_prefers_separating_point(self):
        """A corner point separates a two-cluster set better than the
        midpoint between the clusters."""
        m = get_metric("l2")
        left = np.zeros((50, 2)) + [0.0, 0.0]
        right = np.zeros((50, 2)) + [10.0, 0.0]
        sample = np.concatenate([left, right])
        corner = np.array([0.0, 0.0])
        midpoint = np.array([5.0, 0.0])
        assert spread_score(corner, sample, m) > spread_score(midpoint, sample, m)

    def test_select_returns_valid_index(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 8))
        idx, score = select_vantage_point(X, rng=rng)
        assert 0 <= idx < 200 and np.isfinite(score)

    def test_explicit_candidates_mode(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 4))
        cands = rng.normal(size=(5, 4))
        idx, _ = select_vantage_point(X, candidates=cands, rng=rng)
        assert 0 <= idx < 5


class TestVPTree:
    def test_exact_search_matches_brute_force(self, data):
        X, Q, gt_d, gt_i = data
        tree = VPTree(X, leaf_size=16, seed=1)
        for qi in range(len(Q)):
            d, ids = tree.knn_search(Q[qi], 7)
            assert np.array_equal(ids, gt_i[qi])
            assert np.allclose(d, gt_d[qi], atol=1e-5)

    def test_leaves_partition_dataset(self, data):
        X, *_ = data
        tree = VPTree(X, leaf_size=16, seed=1)
        leaves = tree.leaves()
        assert all(len(l) <= 16 for l in leaves)
        allids = np.sort(np.concatenate(leaves))
        assert np.array_equal(allids, np.arange(len(X)))

    def test_pruning_beats_exhaustive_scan(self, data):
        """The point of the structure: fewer distance evals than brute force."""
        X, Q, *_ = data
        tree = VPTree(X, leaf_size=16, seed=1)
        before = tree.n_dist_evals
        for qi in range(len(Q)):
            tree.knn_search(Q[qi], 7)
        per_query = (tree.n_dist_evals - before) / len(Q)
        assert per_query < 0.8 * len(X)

    def test_non_metric_rejected(self, data):
        X, *_ = data
        with pytest.raises(ValueError, match="true metric"):
            VPTree(X, metric="sqeuclidean")

    def test_l1_metric_exact(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 6)).astype(np.float32)
        Q = X[:5]
        tree = VPTree(X, leaf_size=8, metric="l1", seed=2)
        gt_d, gt_i = brute_force_knn(X, Q, 4, metric="l1")
        for qi in range(5):
            _, ids = tree.knn_search(Q[qi], 4)
            assert np.array_equal(ids, gt_i[qi])

    def test_duplicate_points_terminate(self):
        X = np.ones((100, 4), dtype=np.float32)
        tree = VPTree(X, leaf_size=8, seed=0)
        d, ids = tree.knn_search(np.ones(4, dtype=np.float32), 3)
        assert len(ids) == 3 and np.allclose(d, 0)

    def test_leaf_size_one(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4)).astype(np.float32)
        tree = VPTree(X, leaf_size=1, seed=0)
        _, ids = tree.knn_search(X[11], 1)
        assert ids[0] == 11


class TestRouter:
    def test_from_vptree_partition_count(self, data):
        X, *_ = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        assert router.n_partitions == len(tree.leaves())
        assert sorted(router.partitions()) == list(range(router.n_partitions))

    def test_route_exact_covers_true_neighbors(self, data):
        X, Q, gt_d, gt_i = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        leaves = tree.leaves()
        id2leaf = {int(i): li for li, l in enumerate(leaves) for i in l}
        for qi in range(len(Q)):
            parts = set(router.route_exact(Q[qi], float(gt_d[qi][-1]) * (1 + 1e-9)))
            need = {id2leaf[int(i)] for i in gt_i[qi]}
            assert need <= parts

    def test_route_exact_zero_tau_single_path(self, data):
        X, Q, *_ = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        parts = router.route_exact(Q[0], 0.0)
        assert len(parts) >= 1

    def test_route_approx_returns_n_probe(self, data):
        X, Q, *_ = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        for n in (1, 2, 4):
            parts = router.route_approx(Q[0], n)
            assert len(parts) == min(n, router.n_partitions)
            assert len(set(parts)) == len(parts)

    def test_route_approx_first_matches_descent(self, data):
        """n_probe=1 must return the leaf a plain tree descent reaches."""
        X, Q, *_ = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        q = Q[0]
        node = router.root
        m = get_metric("l2")
        while not node.is_leaf:
            d = m.pair(q, node.vp)
            node = node.left if d <= node.mu else node.right
        assert router.route_approx(q, 1)[0] == node.partition

    def test_route_approx_probes_increase_coverage(self, data):
        X, Q, gt_d, gt_i = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        leaves = tree.leaves()
        id2leaf = {int(i): li for li, l in enumerate(leaves) for i in l}

        def coverage(n_probe):
            cov = 0
            for qi in range(len(Q)):
                parts = set(router.route_approx(Q[qi], n_probe))
                need = {id2leaf[int(i)] for i in gt_i[qi]}
                cov += len(need & parts) / len(need)
            return cov

        assert coverage(4) >= coverage(1)

    @pytest.mark.parametrize("metric", ["l2", "l1"])
    def test_prepared_float64_rows_change_no_bit(self, metric):
        """Routing on the stored float64 vantage-point rows visits the same
        nodes, sees the same distances and returns the same partitions as
        the original step: the metric on the float32 query and vantage point."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(2048, 24)).astype(np.float32)
        Q = (X[rng.choice(len(X), 200)] + rng.normal(0, 0.3, (200, 24))).astype(np.float32)
        tree = VPTree(X, leaf_size=2, metric=metric, seed=4)
        seen: list[float] = []

        class Recording(PartitionRouter):
            def _d(self, q64, node):
                seen.append(super()._d(q64, node))
                return seen[-1]

        class Original(PartitionRouter):
            def _d(self, q64, node):
                self.n_dist_evals += 1
                q, vp = q64.astype(np.float32), node.vp
                seen.append(float(self.metric.one_to_many(q, vp[np.newaxis, :])[0]))
                return seen[-1]

        new, old = Recording.from_vptree(tree), Original.from_vptree(tree)
        assert new.depth() >= 10
        routes = []
        for router in (new, old):
            seen.clear()
            parts = [
                (router.route_approx(q, 4), router.route_exact(q, 0.5 * seen[-1])) for q in Q
            ]
            routes.append((parts, list(seen), router.n_dist_evals))
        assert routes[0] == routes[1]
        assert routes[0][2] == len(routes[0][1]) > 200 * 10

    def test_invalid_args(self, data):
        X, Q, *_ = data
        tree = VPTree(X, leaf_size=32, seed=1)
        router = PartitionRouter.from_vptree(tree)
        with pytest.raises(ValueError):
            router.route_exact(Q[0], -1.0)
        with pytest.raises(ValueError):
            router.route_approx(Q[0], 0)
