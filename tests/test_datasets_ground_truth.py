"""Unit tests for brute-force ground truth."""

import numpy as np
import pytest

from repro.datasets import brute_force_knn


class TestBruteForce:
    def test_matches_naive_argsort(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 12)).astype(np.float32)
        Q = rng.normal(size=(7, 12)).astype(np.float32)
        d, i = brute_force_knn(X, Q, 5)
        ref = np.linalg.norm(
            X.astype(np.float64)[None, :, :] - Q.astype(np.float64)[:, None, :], axis=2
        )
        for qi in range(7):
            order = np.lexsort((np.arange(len(X)), ref[qi]))[:5]
            assert np.array_equal(i[qi], order)
            assert np.allclose(d[qi], ref[qi][order], atol=1e-5)

    def test_blocking_does_not_change_result(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 8)).astype(np.float32)
        Q = rng.normal(size=(9, 8)).astype(np.float32)
        d1, i1 = brute_force_knn(X, Q, 7, block_queries=3, block_points=64)
        d2, i2 = brute_force_knn(X, Q, 7)
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2)

    @pytest.mark.parametrize("block_points", [7, 64, 65_536])
    def test_ties_at_the_kth_distance_go_by_id(self, block_points):
        """On a 3 x 3 grid most distances are tied; the k kept are the
        first k in ``(d, id)`` order within a block and across merges."""
        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, size=(200, 2)).astype(np.float32)
        Q = rng.integers(0, 3, size=(40, 2)).astype(np.float32)
        d, i = brute_force_knn(X, Q, 9, block_queries=16, block_points=block_points)
        ref = ((X[None, :, :].astype(np.float64) - Q[:, None, :]) ** 2).sum(axis=2)
        for qi in range(len(Q)):
            order = np.lexsort((np.arange(len(X)), ref[qi]))[:9]
            assert np.array_equal(i[qi], order), qi
            assert np.allclose(d[qi] ** 2, ref[qi][order], atol=1e-6)

    def test_k_equals_n(self):
        X = np.eye(4, dtype=np.float32)
        Q = X[:1]
        d, i = brute_force_knn(X, Q, 4)
        assert i.shape == (1, 4)
        assert i[0, 0] == 0 and d[0, 0] == pytest.approx(0.0)

    def test_k_too_large_raises(self):
        X = np.eye(3, dtype=np.float32)
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_knn(X, X, 4)

    def test_dim_mismatch_raises(self):
        X = np.zeros((5, 3), dtype=np.float32) + np.arange(3)
        Q = np.zeros((2, 4), dtype=np.float32) + np.arange(4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            brute_force_knn(X, Q, 2)

    def test_other_metric(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 6)).astype(np.float32)
        Q = rng.normal(size=(3, 6)).astype(np.float32)
        d, i = brute_force_knn(X, Q, 4, metric="l1")
        ref = np.abs(X.astype(np.float64)[None] - Q.astype(np.float64)[:, None]).sum(2)
        for qi in range(3):
            order = np.lexsort((np.arange(len(X)), ref[qi]))[:4]
            assert np.array_equal(i[qi], order)

    def test_distances_ascending(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4)).astype(np.float32)
        d, _ = brute_force_knn(X, X[:5], 10)
        assert np.all(np.diff(d, axis=1) >= -1e-12)
