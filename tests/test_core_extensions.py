"""Tests for the extensibility seam: alternative local indexes and
incremental insertion."""

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.core.localindex import (
    BruteForceSearcher,
    IvfPqLocalSearcher,
    VPTreeLocalSearcher,
)
from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.eval import recall_at_k
from repro.hnsw import HnswParams
from repro.simmpi import CostModel


@pytest.fixture(scope="module")
def fitted():
    X = sift_like(1600, dim=32, seed=61)
    Q = sample_queries(X, 40, noise_scale=0.05, seed=62)
    gt_d, gt_i = brute_force_knn(X, Q, 10)
    ann = DistributedANN(
        SystemConfig(
            n_cores=4,
            cores_per_node=2,
            k=10,
            hnsw=HnswParams(M=8, ef_construction=40, seed=61),
            n_probe=4,  # probe everything: recall limited only by local search
            seed=61,
        )
    )
    ann.fit(X)
    return ann, X, Q, gt_d, gt_i


class TestAlternativeLocalIndexes:
    def test_brute_force_local_search_is_exact(self, fitted):
        ann, X, Q, gt_d, gt_i = fitted
        searcher = BruteForceSearcher(CostModel())
        D, I, rep = ann.query_with_searcher(Q, 10, searcher)
        assert recall_at_k(I, gt_i, gt_d, D) == 1.0

    def test_custom_searcher_queries_are_validated_like_query(self, fitted):
        ann, X, Q, *_ = fitted
        searcher = BruteForceSearcher(CostModel())
        with pytest.raises(ValueError, match="queries are 7-d, index is 32-d"):
            ann.query_with_searcher(np.ones((2, 7), dtype=np.float32), 10, searcher)
        with pytest.raises(ValueError, match="k must be positive"):
            ann.query_with_searcher(Q[:2], 0, searcher)

    def test_vptree_local_search_is_exact(self, fitted):
        ann, X, Q, gt_d, gt_i = fitted
        for p in ann.partitions.values():
            VPTreeLocalSearcher.build(p, seed=1)
        try:
            searcher = VPTreeLocalSearcher(CostModel())
            D, I, rep = ann.query_with_searcher(Q, 10, searcher)
            assert recall_at_k(I, gt_i, gt_d, D) == 1.0
        finally:
            restore_hnsw_indexes(ann)

    def test_vptree_cheaper_than_brute_in_low_dim(self):
        """VP pruning pays off where it should: low-dimensional data.
        (At 32-d with 400-point buckets the prune radius barely bites —
        the same dimensionality effect the paper discusses.)"""
        rng = np.random.default_rng(70)
        X = rng.normal(0, 5, size=(1600, 4)).astype(np.float32)
        Q = (X[:30] + rng.normal(0, 0.2, (30, 4))).astype(np.float32)
        ann = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=5,
                hnsw=HnswParams(M=8, ef_construction=40, seed=70), n_probe=4, seed=70,
            )
        )
        ann.fit(X)
        brute = BruteForceSearcher(CostModel())
        _, _, rep_b = ann.query_with_searcher(Q, 5, brute)
        for p in ann.partitions.values():
            VPTreeLocalSearcher.build(p, seed=1)
        _, _, rep_v = ann.query_with_searcher(Q, 5, VPTreeLocalSearcher(CostModel()))
        assert rep_v.worker_breakdown["compute"] < rep_b.worker_breakdown["compute"]

    def test_ivfpq_local_search_lossy_but_useful(self, fitted):
        ann, X, Q, gt_d, gt_i = fitted
        for p in ann.partitions.values():
            IvfPqLocalSearcher.build(p, n_cells=8, n_subspaces=4, n_centroids=32, seed=1)
        try:
            searcher = IvfPqLocalSearcher(CostModel(), n_probe_cells=8)
            D, I, rep = ann.query_with_searcher(Q, 10, searcher)
            rec = recall_at_k(I, gt_i)
            # compressed: clearly below exact, clearly above chance
            assert 0.2 <= rec < 0.999
        finally:
            restore_hnsw_indexes(ann)

    def test_wrong_index_type_raises(self, fitted):
        ann, X, Q, *_ = fitted
        searcher = VPTreeLocalSearcher(CostModel())  # partitions hold HNSW
        with pytest.raises(Exception, match="expected VPTree — run VPTreeLocalSearcher.build"):
            ann.query_with_searcher(Q[:2], 5, searcher)


def restore_hnsw_indexes(ann) -> None:
    """Rebuild the original HNSW local indexes after a swap."""
    from repro.hnsw import HnswIndex

    for p in ann.partitions.values():
        idx = HnswIndex(
            dim=p.points.shape[1], params=ann.config.hnsw, metric=ann.config.metric,
            capacity=max(p.n_points, 16),
        )
        if p.n_points:
            idx.add_items(p.points, p.ids)
        p.index = idx


class TestIncrementalAdd:
    def test_added_points_are_findable(self):
        X = sift_like(800, dim=32, seed=63)
        ann = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=5,
                hnsw=HnswParams(M=8, ef_construction=40, seed=63), n_probe=4, seed=63,
            )
        )
        ann.fit(X)
        new = sift_like(50, dim=32, seed=64) + 1.0
        new_ids = ann.add_points(new)
        assert len(new_ids) == 50 and new_ids.min() >= 800
        D, I, _ = ann.query(new, k=1)
        # each new point must be its own nearest neighbor
        assert (I[:, 0] == new_ids).mean() >= 0.95

    def test_partition_bookkeeping_consistent(self):
        X = sift_like(400, dim=32, seed=65)
        ann = DistributedANN(
            SystemConfig(
                n_cores=2, cores_per_node=2, k=5,
                hnsw=HnswParams(M=8, ef_construction=40, seed=65), n_probe=2, seed=65,
            )
        )
        ann.fit(X)
        ann.add_points(sift_like(30, dim=32, seed=66))
        total = sum(p.n_points for p in ann.partitions.values())
        assert total == 430
        for p in ann.partitions.values():
            assert len(p.index) == p.n_points
            assert len(p.ids) == p.n_points

    def test_explicit_ids_respected(self):
        X = sift_like(200, dim=32, seed=67)
        ann = DistributedANN(
            SystemConfig(
                n_cores=2, cores_per_node=2, k=3,
                hnsw=HnswParams(M=8, ef_construction=30, seed=67), n_probe=2, seed=67,
            )
        )
        ann.fit(X)
        ids = ann.add_points(X[:3] + 0.5, ids=np.array([9001, 9002, 9003]))
        assert list(ids) == [9001, 9002, 9003]

    def test_modeled_mode_rejected(self):
        X = sift_like(200, dim=32, seed=68)
        ann = DistributedANN(
            SystemConfig(n_cores=2, cores_per_node=2, searcher="modeled", seed=68)
        )
        ann.fit(X)
        with pytest.raises(RuntimeError, match="real"):
            ann.add_points(X[:2])

    def test_dim_mismatch_rejected(self):
        X = sift_like(200, dim=32, seed=69)
        ann = DistributedANN(
            SystemConfig(
                n_cores=2, cores_per_node=2,
                hnsw=HnswParams(M=8, ef_construction=30), seed=69,
            )
        )
        ann.fit(X)
        with pytest.raises(ValueError, match="-d"):
            ann.add_points(np.ones((2, 16), dtype=np.float32))
