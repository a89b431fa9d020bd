"""End-to-end fault tolerance: crash + failover through the full system.

The acceptance scenario for the fault subsystem: on a 4-node cluster
(one core per node, so workgroups span nodes), a single rank crash mid-run

- with replication r=2 is fully masked — every query completes with full
  results via failover to the surviving replica, bit-identical to the
  fault-free golden run;
- with r=1 yields flagged partial results (completeness < 1), never a
  hang or an unhandled exception, with the retry/failover activity
  visible in the span trace.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.engine import DistributedANN
from repro.eval import availability_stats, degraded_recall
from repro.faults import FaultInjector, FaultPolicy, FaultSpec, LinkFault, RankCrash, SlowNode
from repro.simmpi.errors import SimConfigError


def make_data(n=600, dim=12, n_queries=16, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)).astype(np.float32)
    Q = rng.standard_normal((n_queries, dim)).astype(np.float32)
    return X, Q


def run(X, Q, replication, fault_spec=None, fault_policy=None, **overrides):
    cfg = SystemConfig(
        n_cores=4,
        cores_per_node=1,  # workgroups must span nodes for failover
        k=5,
        n_probe=2,
        replication_factor=replication,
        one_sided=False,
        fault_spec=fault_spec,
        fault_policy=fault_policy,
        **overrides,
    )
    ann = DistributedANN(cfg)
    ann.fit(X)
    return ann.query(Q)


@pytest.fixture(scope="module")
def data():
    return make_data()


@pytest.fixture(scope="module")
def golden(data):
    X, Q = data
    return run(X, Q, replication=2)


class TestFaultFree:
    def test_ft_dispatcher_matches_plain_dispatch(self, data, golden):
        """With no faults injected the FT master must be a no-op wrapper."""
        X, Q = data
        D0, I0, rep0 = golden
        D1, I1, rep1 = run(X, Q, replication=2, fault_policy=FaultPolicy())
        assert np.array_equal(I0, I1)
        assert np.array_equal(D0, D1)
        assert rep1.retries == 0 and rep1.failovers == 0 and rep1.failed_tasks == 0
        assert rep1.availability == 1.0
        assert np.all(rep1.completeness == 1.0)

    def test_latencies_finite(self, data):
        X, Q = data
        _, _, rep = run(X, Q, replication=2, fault_policy=FaultPolicy())
        assert rep.query_latencies is not None
        assert np.all(np.isfinite(rep.query_latencies))


class TestCrashWithReplication:
    @pytest.fixture(scope="class")
    def crashed(self, data, golden):
        X, Q = data
        t_crash = golden[2].total_seconds * 0.3  # mid-batch
        spec = FaultSpec(crashes=(RankCrash(node=1, at=t_crash),))
        return run(X, Q, replication=2, fault_spec=spec)

    def test_results_identical_to_golden(self, golden, crashed):
        _, I0, _ = golden
        _, I2, _ = crashed
        assert np.array_equal(I0, I2)

    def test_all_queries_complete(self, crashed):
        rep = crashed[2]
        assert rep.availability == 1.0
        assert rep.failed_tasks == 0
        assert np.all(rep.completeness == 1.0)

    def test_failover_happened_and_is_traced(self, crashed):
        rep = crashed[2]
        assert rep.failovers > 0
        assert 1 in rep.suspected_dead_cores
        assert rep.phase_breakdown.get("failover", 0.0) > 0.0
        assert any(e.kind == "crash" for e in rep.fault_events)
        assert len(rep.crashed_pids) > 0

    def test_latencies_finite_under_crash(self, crashed):
        rep = crashed[2]
        assert np.all(np.isfinite(rep.query_latencies))


class TestCrashWithoutReplication:
    @pytest.fixture(scope="class")
    def crashed(self, data, golden):
        X, Q = data
        t_crash = golden[2].total_seconds * 0.3
        spec = FaultSpec(crashes=(RankCrash(node=1, at=t_crash),))
        return run(X, Q, replication=1, fault_spec=spec)

    def test_degrades_instead_of_hanging(self, crashed):
        rep = crashed[2]
        assert rep.failed_tasks > 0
        assert rep.availability < 1.0
        assert np.all(rep.completeness >= 0.0)
        assert np.any(rep.completeness < 1.0)

    def test_unaffected_queries_still_complete(self, crashed):
        rep = crashed[2]
        assert np.any(rep.completeness == 1.0)

    def test_retries_traced(self, crashed):
        rep = crashed[2]
        assert rep.retries > 0  # r=1: no replica to fail over to
        assert rep.phase_breakdown.get("retry", 0.0) > 0.0

    def test_latencies_finite_even_when_degraded(self, crashed):
        rep = crashed[2]
        assert np.all(np.isfinite(rep.query_latencies))


class TestOtherFaultKinds:
    def test_slow_node_is_absorbed(self, data, golden):
        """A straggler stretches time but must not change the answers."""
        X, Q = data
        spec = FaultSpec(slow_nodes=(SlowNode(node=2, factor=50.0),))
        D, I, rep = run(X, Q, replication=2, fault_spec=spec)
        assert np.array_equal(I, golden[1])
        assert rep.availability == 1.0

    def test_lossy_link_recovered_by_retries(self, data, golden):
        X, Q = data
        spec = FaultSpec(links=(LinkFault(drop_prob=0.15),), seed=5)
        # a 15% loss rate needs a deeper retry budget than the default 4
        D, I, rep = run(
            X, Q, replication=2, fault_spec=spec, fault_policy=FaultPolicy(max_attempts=8)
        )
        assert rep.availability == 1.0
        assert np.array_equal(I, golden[1])
        assert rep.retries + rep.failovers > 0

    def test_duplicating_link_deduped(self, data, golden):
        X, Q = data
        spec = FaultSpec(links=(LinkFault(dup_prob=1.0),))
        D, I, rep = run(X, Q, replication=2, fault_spec=spec)
        assert np.array_equal(I, golden[1])
        assert rep.duplicate_results > 0


class TestServingIngressIsNotALink:
    def test_wildcard_link_fault_spares_the_ingress(self, data):
        """The arrival source hands queries to the master on the master's
        own node; a wildcard ``LinkFault`` used to drop those hand-offs too,
        and the master then waited for a query that never came —
        ``DeadlockError`` on every seed."""
        X, Q = data
        for seed in range(8):
            spec = FaultSpec(links=(LinkFault(drop_prob=0.3),), seed=seed)
            _, _, rep = run(X, Q, replication=2, fault_spec=spec, arrival="poisson:400000",
                            fault_policy=FaultPolicy(max_attempts=8))
            assert rep.offered_queries == len(Q), seed
            assert (
                rep.admitted_queries + rep.shed_queries + rep.rejected_queries
                == rep.offered_queries
            ), seed
            assert rep.completeness.shape == (len(Q),), seed
            assert np.all(rep.completeness <= 1.0) and rep.completeness.mean() > 0.9, seed
            assert rep.retries + rep.failovers > 0, seed

    def test_naming_both_endpoints_still_faults_a_node_local_transfer(self):
        named, wild = LinkFault(src=4, dst=4, drop_prob=1.0), LinkFault(drop_prob=1.0)
        inj = FaultInjector(FaultSpec(links=(named, wild)))
        assert inj._match_link(4, 4) is named
        assert inj._match_link(3, 3) is None
        assert inj._match_link(3, 4) is wild and inj._match_link(3, None) is wild


class TestShutdownDrain:
    def test_duplicated_exit_notice_is_not_another_thread(self):
        """Node 1 duplicates all it sends, every other link drops 15 %: the
        drain used to count node 1's second exit notice as a thread, stop
        rebroadcasting End-of-Queries, and leave a node whose copy was
        dropped waiting — ``DeadlockError`` on seeds 7, 14 and 15."""
        X, Q = make_data(dim=16, n_queries=24, seed=2021)
        links = (LinkFault(src=1, dup_prob=1.0), LinkFault(drop_prob=0.15))
        cfg = dict(n_cores=8, cores_per_node=1, k=5, n_probe=3, seed=3, one_sided=False,
                   replication_factor=2, fault_policy=FaultPolicy(max_attempts=8))
        for seed in range(16):
            ann = DistributedANN(SystemConfig(fault_spec=FaultSpec(links=links, seed=seed), **cfg))
            ann.fit(X)
            _, _, rep = ann.query(Q)
            assert rep.completeness.shape == (24,) and np.all(rep.completeness == 1.0), seed
            assert rep.duplicate_results > 0, seed

    def test_a_thread_that_misses_every_end_ends_with_the_run(self):
        """A lossy fabric can drop every End-of-Queries copy a live node
        is sent: its thread stayed blocked in its receive and the query
        ended in ``DeadlockError: worker_n5_t0 blocked forever`` at these
        seeds.  Such a thread ends with the run, so the query returns its
        (degraded or complete) report."""
        from tests.test_query_path_identity import CASES, LOSSY, Q, X

        config, _, _, _ = CASES["ft_serve_lossy_w1"]
        for seed in (6, 18, 39):
            cfg = SystemConfig(**dict(config, fault_spec=FaultSpec(links=LOSSY, seed=seed)))
            ann = DistributedANN(cfg)
            ann.fit(X)
            D, I, rep = ann.query(Q)
            assert rep.completeness.shape == (len(Q),), seed
            assert np.all(rep.completeness <= 1.0), seed
            # the session's ended thread is respawned for the next call
            again = ann.query(Q)
            assert np.array_equal(again[1], I), seed


class TestConfigValidation:
    def test_faults_require_two_sided(self):
        with pytest.raises(SimConfigError, match="two-sided"):
            SystemConfig(one_sided=True, fault_policy=FaultPolicy())

    def test_faults_require_master_strategy(self):
        with pytest.raises(SimConfigError, match="master"):
            SystemConfig(
                one_sided=False, owner_strategy="multiple", fault_policy=FaultPolicy()
            )

    def test_faults_require_approx_routing(self):
        with pytest.raises(SimConfigError, match="approx"):
            SystemConfig(one_sided=False, routing="adaptive", fault_policy=FaultPolicy())


class TestAvailabilityMetrics:
    def test_stats_without_completeness(self):
        s = availability_stats(None, 10)
        assert s.availability == 1.0 and s.n_degraded == 0

    def test_stats_with_degradation(self):
        c = np.array([1.0, 0.5, 1.0, 0.0])
        s = availability_stats(c, 4)
        assert s.n_complete == 2 and s.n_degraded == 2
        assert s.availability == pytest.approx(0.5)
        assert s.mean_completeness == pytest.approx(0.625)
        assert s.min_completeness == 0.0

    def test_stats_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            availability_stats(np.ones(3), 4)

    def test_degraded_recall_split(self):
        I = np.array([[0, 1], [2, 3], [4, 5]])
        gt = np.array([[0, 1], [2, 9], [8, 9]])
        c = np.array([1.0, 1.0, 0.5])
        split = degraded_recall(I, gt, c)
        assert split["complete"] == pytest.approx(0.75)  # (1.0 + 0.5) / 2
        assert split["degraded"] == pytest.approx(0.0)
        assert split["overall"] == pytest.approx(0.5)

    def test_degraded_recall_no_degraded_slice_is_nan(self):
        I = np.array([[0, 1]])
        gt = np.array([[0, 1]])
        split = degraded_recall(I, gt, None)
        assert np.isnan(split["degraded"]) and split["overall"] == 1.0
