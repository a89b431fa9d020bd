"""Unit tests for the complete KD-tree baseline system (Table III's rival)."""

import numpy as np
import pytest

from repro.core import SystemConfig
from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.eval import recall_at_k
from repro.kdtree import KDBaselineSystem
from repro.simmpi.engine import Simulation


@pytest.fixture(scope="module")
def corpus():
    X = sift_like(1200, dim=24, seed=55)
    Q = sample_queries(X, 30, noise_scale=0.05, seed=56)
    gt_d, gt_i = brute_force_knn(X, Q, 8)
    return X, Q, gt_d, gt_i


@pytest.fixture(scope="module")
def fitted(corpus):
    X, *_ = corpus
    cfg = SystemConfig(n_cores=4, cores_per_node=2, k=8, seed=55)
    kd = KDBaselineSystem(cfg, leaf_size=16)
    kd.fit(X)
    return kd


class TestKDBaseline:
    def test_results_are_exact(self, fitted, corpus):
        X, Q, gt_d, gt_i = corpus
        D, I, rep = fitted.query(Q)
        assert recall_at_k(I, gt_i, gt_d, D) == 1.0
        # distances exact too
        assert np.allclose(D, gt_d, atol=1e-4)

    def test_routing_forced_adaptive_two_sided(self):
        cfg = SystemConfig(n_cores=4, cores_per_node=2, routing="approx", one_sided=True)
        kd = KDBaselineSystem(cfg)
        assert kd.config.routing == "adaptive"
        assert kd.config.one_sided is False

    def test_build_time_positive(self, fitted):
        assert fitted.build_seconds > 0

    def test_query_before_fit_raises(self):
        kd = KDBaselineSystem(SystemConfig(n_cores=2, cores_per_node=2))
        with pytest.raises(RuntimeError, match="fit"):
            kd.query(np.ones((1, 8), dtype=np.float32))

    def test_dim_mismatch_raises(self, fitted):
        with pytest.raises(ValueError, match="-d"):
            fitted.query(np.ones((1, 7), dtype=np.float32))

    @pytest.mark.parametrize(
        "k, error, match",
        [
            (0, ValueError, "k must be positive"),
            (2000, ValueError, "k=2000 exceeds the 1200 indexed points"),
            (2.5, TypeError, "k must be an int"),
        ],
    )
    def test_bad_k_is_refused_before_the_run(self, fitted, corpus, monkeypatch, k, error, match):
        """The same rule as ``DistributedANN.query``, at the API edge: not
        the config's k for 0, not a padded (n, 2000) answer, not a
        ``ProcError`` out of a worker coroutine."""
        _, Q, *_ = corpus
        monkeypatch.setattr(Simulation, "run", lambda self: pytest.fail("the simulation started"))
        with pytest.raises(error, match=match):
            fitted.query(Q, k)

    def test_default_k_is_the_configs(self, fitted, corpus):
        _, Q, *_ = corpus
        assert fitted.query(Q)[0].shape == (len(Q), 8)
        assert fitted.query(Q, 3)[0].shape == (len(Q), 3)

    def test_too_few_points_raises(self):
        kd = KDBaselineSystem(SystemConfig(n_cores=8, cores_per_node=4))
        with pytest.raises(ValueError, match="partitions"):
            kd.fit(np.ones((4, 8), dtype=np.float32) + np.arange(8))

    def test_fanout_explodes_in_high_dim(self, fitted, corpus):
        """The baseline's Achilles heel: exact routing visits most
        partitions at 24-d (vs the VP system's fixed n_probe)."""
        X, Q, *_ = corpus
        _, _, rep = fitted.query(Q)
        assert rep.mean_fanout > 0.5 * 4

    def test_work_scale_multiplies_search_cost(self, corpus):
        X, Q, *_ = corpus
        cfg = SystemConfig(n_cores=4, cores_per_node=2, k=8, seed=55)
        plain = KDBaselineSystem(cfg, leaf_size=16)
        plain.fit(X)
        _, _, rep1 = plain.query(Q)
        scaled = KDBaselineSystem(cfg, leaf_size=16, work_scale=50.0)
        scaled.fit(X)
        _, _, rep50 = scaled.query(Q)
        assert rep50.total_seconds > 10 * rep1.total_seconds
