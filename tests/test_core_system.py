"""Integration tests for the full distributed system (fit + query).

One session-scoped fitted system is shared across read-only tests; mode
comparisons (one-sided vs two-sided, replication, owner strategy) build
their own small systems.
"""

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.eval import recall_at_k
from repro.hnsw import HnswParams


HNSW = HnswParams(M=8, ef_construction=40, seed=2)


@pytest.fixture(scope="module")
def corpus():
    X = sift_like(2000, dim=32, seed=21)
    Q = sample_queries(X, 50, noise_scale=0.05, seed=22)
    gt_d, gt_i = brute_force_knn(X, Q, 10)
    return X, Q, gt_d, gt_i


@pytest.fixture(scope="module")
def fitted(corpus):
    X, *_ = corpus
    ann = DistributedANN(
        SystemConfig(n_cores=8, cores_per_node=4, k=10, hnsw=HNSW, n_probe=3, seed=5)
    )
    report = ann.fit(X)
    return ann, report


class TestFit:
    def test_partitions_balanced(self, fitted):
        _, report = fitted
        assert all(s == 250 for s in report.partition_sizes)

    def test_build_phases_positive(self, fitted):
        _, report = fitted
        assert report.total_seconds > 0
        assert report.hnsw_seconds > 0
        assert report.vptree_seconds > 0
        assert report.total_seconds >= report.hnsw_seconds

    def test_partitions_hold_real_indexes(self, fitted):
        ann, _ = fitted
        for p in ann.partitions.values():
            assert p.index is not None
            assert len(p.index) == p.n_points

    def test_router_has_all_partitions(self, fitted):
        ann, _ = fitted
        assert sorted(ann.router.partitions()) == list(range(8))

    def test_query_before_fit_raises(self):
        ann = DistributedANN(SystemConfig(n_cores=2, cores_per_node=2))
        with pytest.raises(RuntimeError, match="fit"):
            ann.query(np.zeros((1, 8), dtype=np.float32) + 1)

    def test_too_few_points_raises(self):
        ann = DistributedANN(SystemConfig(n_cores=8, cores_per_node=4))
        with pytest.raises(ValueError, match="partitions"):
            ann.fit(np.random.default_rng(0).normal(size=(4, 8)).astype(np.float32))


class TestQuery:
    def test_recall_reasonable(self, fitted, corpus):
        ann, _ = fitted
        X, Q, gt_d, gt_i = corpus
        D, I, rep = ann.query(Q)
        assert recall_at_k(I, gt_i, gt_d, D) >= 0.85

    def test_report_consistency(self, fitted, corpus):
        ann, _ = fitted
        X, Q, *_ = corpus
        D, I, rep = ann.query(Q)
        assert rep.n_queries == len(Q)
        assert rep.tasks == int(rep.dispatch_counts.sum())
        assert rep.mean_fanout == pytest.approx(3.0)  # n_probe partitions each
        assert rep.total_seconds > 0
        assert 0.0 <= rep.comm_fraction <= 1.0

    def test_results_sorted_and_padded(self, fitted, corpus):
        ann, _ = fitted
        X, Q, *_ = corpus
        D, I, _ = ann.query(Q, k=10)
        assert D.shape == (len(Q), 10)
        valid = D[np.isfinite(D)]
        for row in D:
            finite = row[np.isfinite(row)]
            assert np.all(np.diff(finite) >= -1e-12)

    def test_dim_mismatch_raises(self, fitted):
        ann, _ = fitted
        with pytest.raises(ValueError, match="-d"):
            ann.query(np.zeros((2, 7), dtype=np.float32) + 1)

    def test_k_defaults_only_on_none(self, fitted, corpus):
        """``k=0`` used to fall through ``k or config.k`` and answer with
        ``config.k`` columns."""
        ann, _ = fitted
        X, Q, *_ = corpus
        for bad in (0, -3):
            with pytest.raises(ValueError, match="k must be positive"):
                ann.query(Q[:2], k=bad)
        D, _, _ = ann.query(Q[:2], k=None)
        assert D.shape == (2, ann.config.k)

    def test_distances_are_true_distances(self, fitted, corpus):
        """Returned distances must equal the real L2 distance to the
        returned id (no approximation in the reported distances)."""
        ann, _ = fitted
        X, Q, *_ = corpus
        D, I, _ = ann.query(Q[:10])
        for qi in range(10):
            for j in range(10):
                if I[qi, j] >= 0:
                    ref = np.linalg.norm(
                        X[I[qi, j]].astype(np.float64) - Q[qi].astype(np.float64)
                    )
                    assert D[qi, j] == pytest.approx(ref, rel=1e-4)


class TestResultPathEquivalence:
    """One-sided RMA accumulation and two-sided master merging must produce
    bit-identical k-NN results (the combiner is shared; the transport is
    not)."""

    def test_one_sided_equals_two_sided(self, corpus):
        X, Q, *_ = corpus
        base = dict(n_cores=4, cores_per_node=2, k=10, hnsw=HNSW, n_probe=2, seed=7)
        a = DistributedANN(SystemConfig(**base, one_sided=True))
        a.fit(X)
        Da, Ia, _ = a.query(Q)
        b = DistributedANN(SystemConfig(**base, one_sided=False))
        b.fit(X)
        Db, Ib, _ = b.query(Q)
        assert np.array_equal(Ia, Ib)
        assert np.allclose(Da, Db, equal_nan=True)

    def test_one_sided_master_cheaper(self, corpus):
        """The master's own busy time must drop with one-sided results —
        the optimisation's purpose (§IV-C1)."""
        X, Q, *_ = corpus
        base = dict(n_cores=4, cores_per_node=2, k=10, hnsw=HNSW, n_probe=2, seed=7)
        a = DistributedANN(SystemConfig(**base, one_sided=True))
        a.fit(X)
        _, _, ra = a.query(Q)
        b = DistributedANN(SystemConfig(**base, one_sided=False))
        b.fit(X)
        _, _, rb = b.query(Q)
        # CPU components only — blocked wait is idle time, and an idle
        # master is precisely what one-sided accumulation buys
        def cpu(br):
            return br["compute"] + br["send"] + br["recv"]

        assert cpu(ra.master_breakdown) < cpu(rb.master_breakdown)


class TestAdaptiveRouting:
    def test_adaptive_recall_at_least_approx(self, corpus):
        X, Q, gt_d, gt_i = corpus
        base = dict(n_cores=8, cores_per_node=4, k=10, hnsw=HNSW, seed=3)
        approx = DistributedANN(SystemConfig(**base, n_probe=1))
        approx.fit(X)
        _, Ia, _ = approx.query(Q)
        adaptive = DistributedANN(
            SystemConfig(**base, routing="adaptive", one_sided=False)
        )
        adaptive.fit(X)
        Dd, Id, rep = adaptive.query(Q)
        ra = recall_at_k(Ia, gt_i)
        rd = recall_at_k(Id, gt_i, gt_d, Dd)
        assert rd >= ra
        assert rd >= 0.95  # exact coverage + good local searches
        assert rep.mean_fanout > 1.0


class TestReplication:
    def test_replicas_resident_on_nodes(self, corpus):
        X, *_ = corpus
        cfg = SystemConfig(
            n_cores=8, cores_per_node=2, k=10, hnsw=HNSW, replication_factor=3, seed=5
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        for p in range(8):
            for core in ann._build.workgroups.cores_for_partition(p):
                node = cfg.node_of_core(core)
                assert p in ann._build.node_stores[node]

    def test_replication_spreads_load(self, corpus):
        """Skewed queries: the dispatch-count spread must narrow with r
        (Fig. 4b's claim)."""
        X, *_ = corpus
        # all queries near one point => all route to the same partitions
        hot = sample_queries(X[:50], 100, noise_scale=0.01, seed=1)
        spreads = {}
        for r in (1, 3):
            cfg = SystemConfig(
                n_cores=8, cores_per_node=2, k=10, hnsw=HNSW,
                replication_factor=r, n_probe=2, seed=5,
            )
            ann = DistributedANN(cfg)
            ann.fit(X)
            _, _, rep = ann.query(hot)
            counts = rep.dispatch_counts
            spreads[r] = counts.max() - counts.min()
        assert spreads[3] < spreads[1]

    def test_replication_same_results(self, corpus):
        X, Q, *_ = corpus
        base = dict(n_cores=8, cores_per_node=4, k=10, hnsw=HNSW, n_probe=2, seed=5)
        a = DistributedANN(SystemConfig(**base, replication_factor=1))
        a.fit(X)
        _, Ia, _ = a.query(Q)
        b = DistributedANN(SystemConfig(**base, replication_factor=4))
        b.fit(X)
        _, Ib, _ = b.query(Q)
        assert np.array_equal(Ia, Ib)


class TestMultipleOwner:
    def test_same_results_as_master(self, corpus):
        X, Q, *_ = corpus
        base = dict(
            n_cores=4, cores_per_node=2, k=10, hnsw=HNSW, n_probe=2,
            one_sided=False, seed=9,
        )
        m = DistributedANN(SystemConfig(**base, owner_strategy="master"))
        m.fit(X)
        _, Im, _ = m.query(Q)
        o = DistributedANN(SystemConfig(**base, owner_strategy="multiple"))
        o.fit(X)
        _, Io, rep = o.query(Q)
        assert np.array_equal(Im, Io)
        assert rep.tasks == len(Q) * 2


class TestModeledSearcher:
    def test_modeled_mode_runs_at_scale(self, corpus):
        X, Q, *_ = corpus
        cfg = SystemConfig(
            n_cores=64, cores_per_node=8, k=10, hnsw=HnswParams(M=16),
            searcher="modeled", modeled_partition_points=1_000_000,
            modeled_sample_points=64, n_probe=2, seed=3,
        )
        ann = DistributedANN(cfg)
        br = ann.fit(X)
        D, I, rep = ann.query(Q[:20])
        assert rep.n_queries == 20
        # virtual times reflect million-point partitions, not the real 31
        assert br.hnsw_seconds > 1.0
        assert rep.total_seconds > 0
        # results come from real subsamples: ids must be valid dataset ids
        valid = I[I >= 0]
        assert valid.size > 0 and valid.max() < len(X)

    def test_modeled_partitions_have_samples_not_indexes(self, corpus):
        X, *_ = corpus
        cfg = SystemConfig(
            n_cores=4, cores_per_node=2, searcher="modeled",
            modeled_sample_points=16, hnsw=HNSW, seed=3,
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        for p in ann.partitions.values():
            assert p.index is None
            assert p.sample is not None
            assert len(p.sample[1]) == 16


class TestDeterminism:
    def test_fit_and_query_reproducible(self, corpus):
        X, Q, *_ = corpus
        cfg = SystemConfig(n_cores=4, cores_per_node=2, k=10, hnsw=HNSW, seed=13)
        a = DistributedANN(cfg)
        ra = a.fit(X)
        Da, Ia, sa = a.query(Q)
        b = DistributedANN(cfg)
        rb = b.fit(X)
        Db, Ib, sb = b.query(Q)
        assert ra.total_seconds == rb.total_seconds
        assert np.array_equal(Ia, Ib)
        assert sa.total_seconds == sb.total_seconds
        assert np.array_equal(sa.dispatch_counts, sb.dispatch_counts)
