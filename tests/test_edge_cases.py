"""Edge cases and failure handling across the system."""

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.datasets import brute_force_knn, sift_like
from repro.eval import recall_at_k
from repro.hnsw import HnswIndex, HnswParams, graph_stats
from repro.simmpi import Simulation
from repro.simmpi.errors import SimError


class TestSingleCoreSystem:
    def test_n_cores_one_is_a_plain_index(self):
        X = sift_like(300, dim=16, seed=90)
        ann = DistributedANN(
            SystemConfig(
                n_cores=1, cores_per_node=1, k=5,
                hnsw=HnswParams(M=8, ef_construction=40, seed=90), n_probe=1, seed=90,
            )
        )
        ann.fit(X)
        gt_d, gt_i = brute_force_knn(X, X[:10], 5)
        D, I, rep = ann.query(X[:10], k=5)
        assert recall_at_k(I, gt_i, gt_d, D) >= 0.95
        assert rep.mean_fanout == 1.0


class TestSmallK:
    def test_k_one(self):
        X = sift_like(400, dim=16, seed=91)
        ann = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=1,
                hnsw=HnswParams(M=8, ef_construction=30, seed=91), n_probe=4, seed=91,
            )
        )
        ann.fit(X)
        D, I, _ = ann.query(X[:20], k=1)
        assert (I[:, 0] == np.arange(20)).all()
        assert np.allclose(D[:, 0], 0.0, atol=1e-4)

    def test_k_exceeds_probed_points(self):
        """k larger than the points reachable via n_probe partitions:
        results are padded, not crashed."""
        X = sift_like(64, dim=16, seed=92)
        ann = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=5,
                hnsw=HnswParams(M=4, ef_construction=20, seed=92), n_probe=1, seed=92,
            )
        )
        ann.fit(X)
        D, I, _ = ann.query(X[:3], k=40)
        assert I.shape == (3, 40)
        assert (I >= 0).sum(axis=1).min() >= 10  # got the local partition
        assert (I[:, -1] == -1).all()  # padded tail

    def test_k_exceeds_indexed_points_raises(self):
        """k larger than the whole index is a caller error, not thousands of
        padded columns; the count follows add_points."""
        X = sift_like(64, dim=16, seed=92)
        ann = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=5,
                hnsw=HnswParams(M=4, ef_construction=20, seed=92), n_probe=1, seed=92,
            )
        )
        ann.fit(X)
        with pytest.raises(ValueError, match="k=65 exceeds the 64 indexed points"):
            ann.query(X[:3], k=65)
        with pytest.raises(ValueError, match="k=5000 exceeds the 64"):
            ann.query_with_searcher(X[:3], 5000, ann._make_searcher())
        ann.add_points(X[:1] + 0.5)
        assert ann.query(X[:3], k=65)[1].shape == (3, 65)


class TestSingleQuery:
    def test_batch_of_one(self):
        X = sift_like(200, dim=16, seed=93)
        ann = DistributedANN(
            SystemConfig(
                n_cores=2, cores_per_node=2, k=3,
                hnsw=HnswParams(M=4, ef_construction=20, seed=93), n_probe=2, seed=93,
            )
        )
        ann.fit(X)
        D, I, rep = ann.query(X[:1], k=3)
        assert rep.n_queries == 1 and I.shape == (1, 3)


class TestHnswFlatMode:
    def test_flat_graph_has_single_layer(self):
        X = sift_like(500, dim=16, seed=94)
        idx = HnswIndex(dim=16, params=HnswParams(M=8, ef_construction=40, flat=True, seed=94))
        idx.add_items(X)
        assert idx.max_level == 0
        s = graph_stats(idx)
        assert len(s["layers"]) == 1
        assert s["layers"][0]["n_nodes"] == 500

    def test_flat_search_still_accurate(self):
        X = sift_like(500, dim=16, seed=95)
        idx = HnswIndex(dim=16, params=HnswParams(M=8, ef_construction=40, flat=True, seed=95))
        idx.add_items(X)
        gt_d, gt_i = brute_force_knn(X, X[:15], 5)
        hits = sum(
            len(set(idx.knn_search(X[i], 5, ef=40)[1]) & set(gt_i[i])) for i in range(15)
        )
        assert hits / 75 >= 0.9


class TestEngineErrorContext:
    def test_proc_exception_annotated(self):
        sim = Simulation()

        def bad(ctx):
            yield from ctx.compute(1.5)
            raise KeyError("partition 42")

        sim.add_proc(bad, node=3, name="worker_n3_t0")
        with pytest.raises(SimError, match=r"worker_n3_t0.*node=3.*t=1\.5.*partition 42"):
            sim.run()

    def test_sim_errors_pass_through_unwrapped(self):
        sim = Simulation()

        def bad(ctx):
            yield from ctx.compute(-1.0)

        sim.add_proc(bad)
        with pytest.raises(SimError, match="negative"):
            sim.run()


class TestDuplicateAndDegenerate:
    def test_all_identical_points_system(self):
        X = np.ones((256, 8), dtype=np.float32)
        ann = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=3,
                hnsw=HnswParams(M=4, ef_construction=20, seed=96), n_probe=4, seed=96,
            )
        )
        ann.fit(X)
        D, I, _ = ann.query(X[:5], k=3)
        assert np.allclose(D[np.isfinite(D)], 0.0, atol=1e-6)

    def test_tiny_partitions(self):
        """More cores than points-per-partition can comfortably hold."""
        X = sift_like(64, dim=8, seed=97)
        ann = DistributedANN(
            SystemConfig(
                n_cores=16, cores_per_node=4, k=2,
                hnsw=HnswParams(M=4, ef_construction=10, seed=97), n_probe=4, seed=97,
            )
        )
        report = ann.fit(X)
        assert sum(report.partition_sizes) == 64
        D, I, _ = ann.query(X[:4], k=2)
        assert (I[:, 0] >= 0).all()
