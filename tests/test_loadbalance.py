"""Unit and integration tests for replica selection (repro.loadbalance)."""

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.core.replication import Workgroups
from repro.datasets import zipf_queries
from repro.hnsw import HnswParams
from repro.loadbalance import (
    SELECTORS,
    LeastLoadedSelector,
    LoadTracker,
    PrimarySelector,
    make_selector,
)
from repro.simmpi.errors import SimConfigError


def skewed_corpus(n: int, dim: int, n_parts: int) -> np.ndarray:
    """Clustered corpus with ~n_parts natural clusters (routing targets)."""
    rng = np.random.default_rng([0, 0x10AD])
    centers = rng.normal(0.0, 8.0, size=(n_parts, dim)).astype(np.float32)
    assign = rng.integers(0, n_parts, size=n)
    return (centers[assign] + rng.normal(0.0, 0.5, size=(n, dim))).astype(np.float32)


def skewed_system(cores: int, **kw) -> DistributedANN:
    """The skew scenario's cluster: one worker per node for crisp per-core
    attribution, n_probe=1 so the skew lands undiluted on the routed
    partition, and a modeled 5 ms search so makespans are exact."""
    return DistributedANN(
        SystemConfig(
            n_cores=cores,
            cores_per_node=1,
            k=10,
            n_probe=1,
            hnsw=HnswParams(M=8, ef_construction=40, seed=0),
            searcher="modeled",
            modeled_search_seconds=5e-3,
            modeled_sample_points=64,
            seed=0,
            **kw,
        )
    )


def partition_anchors(ann: DistributedANN) -> np.ndarray:
    """The fitted partitions' centroids in a seeded order, so the hottest
    Zipf rank is not structurally special (e.g. not always partition 0)."""
    anchors = np.stack(
        [p.points.mean(axis=0) for _, p in sorted(ann.partitions.items()) if p.n_points]
    )
    return anchors[np.random.default_rng([0, 0xFACE]).permutation(len(anchors))]


def skewed_queries(ann: DistributedANN, n: int, skew: float) -> np.ndarray:
    """A Zipf(skew) workload over the fitted partition layout."""
    return zipf_queries(partition_anchors(ann), n, skew=skew, compactness=0.02, seed=0)


class TestLoadTracker:
    def test_backlog_extends_and_drains(self):
        t = LoadTracker(2, task_cost_hint=1.0)
        t.record_dispatch(0, now=0.0)
        t.record_dispatch(0, now=0.0)
        assert t.backlog(0, 0.0) == pytest.approx(2.0)
        assert t.backlog(0, 1.5) == pytest.approx(0.5)  # drains with the clock
        assert t.backlog(0, 5.0) == 0.0  # never negative
        assert t.backlog(1, 0.0) == 0.0

    def test_busy_horizon_starts_at_now(self):
        # a dispatch to an idle core queues from `now`, not from the last horizon
        t = LoadTracker(1, task_cost_hint=1.0)
        t.record_dispatch(0, now=0.0)
        t.record_dispatch(0, now=10.0)
        assert t.backlog(0, 10.0) == pytest.approx(1.0)  # horizon 11, not 2

    def test_batch_and_cost_overrides(self):
        t = LoadTracker(1, task_cost_hint=2.0)
        t.record_dispatch(0, now=0.0, n_tasks=3)
        assert t.backlog(0, 0.0) == pytest.approx(6.0)
        t.record_dispatch(0, now=0.0, cost=0.5)
        assert t.backlog(0, 0.0) == pytest.approx(6.5)
        # the depth counts the batch as three tasks, the override as 0.25
        np.testing.assert_allclose(t.timeline()[:, 1], [3.0, 3.25])

    def test_queue_depth_in_tasks(self):
        t = LoadTracker(2, task_cost_hint=0.5)
        t.record_dispatch(0, now=0.0)
        t.record_dispatch(1, now=0.0)
        assert t.backlog(0, 0.0) / t.task_cost_hint == pytest.approx(1.0)
        assert t.timeline()[-1, 1] == pytest.approx(2.0)  # summed over cores

    def test_now_going_back_is_refused(self):
        t = LoadTracker(2, task_cost_hint=1.0)
        t.record_dispatch(0, now=2.0)
        t.record_dispatch(1, now=2.0)  # the same now is fine
        with pytest.raises(SimConfigError, match="after one at 2.0"):
            t.record_dispatch(0, now=1.5)

    @pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
    def test_bad_cost_override_is_refused(self, cost):
        with pytest.raises(SimConfigError):
            LoadTracker(1, task_cost_hint=1.0).record_dispatch(0, now=0.0, cost=cost)

    def test_timeline_records_dispatches(self):
        t = LoadTracker(1, task_cost_hint=1.0)
        assert t.timeline().shape == (0, 2)
        t.record_dispatch(0, now=1.0)
        t.record_dispatch(0, now=2.0)
        tl = t.timeline()
        assert tl.shape == (2, 2)
        np.testing.assert_allclose(tl[:, 0], [1.0, 2.0])

    def test_invalid_cores(self):
        with pytest.raises(SimConfigError):
            LoadTracker(0, 1.0)


def total_queued(horizons: np.ndarray, now: float, hint: float) -> float:
    """The O(n_cores) reduction a timeline sample must equal: every
    core's backlog at ``now``, summed, in tasks."""
    return float(np.maximum(horizons - now, 0.0).sum()) / hint


def sampled_dispatches(n: int, cap: int) -> tuple[list[int], list[int]]:
    """Which of ``n`` dispatches the timeline keeps under a ``cap``, and
    which it ever sampled (the peak gauge sees those)."""
    kept, ever, stride = [], [], 1
    for i in range(n):
        if (i + 1) % stride == 0:
            kept.append(i)
            ever.append(i)
            if len(kept) >= cap:
                kept, stride = kept[::2], stride * 2
    return kept, ever


class TestQueueDepthTimeline:
    """Every timeline sample equals the O(n_cores) reduction over busy
    horizons kept by the documented rule, ``max(horizon, now) + cost``,
    and the peak gauge the largest sample."""

    @pytest.mark.parametrize(
        "n_cores, n_dispatches, cap, start",
        [
            (1, 400, 4096, 0.0),
            (64, 3000, 4096, 0.0),
            (1024, 3000, 4096, 0.0),
            (64, 3000, 64, 0.0),  # decimated past the cap
            (1024, 1500, 4096, 1e3),  # backlogs tiny against `now`
        ],
    )
    def test_samples_match_the_full_reduction(self, monkeypatch, n_cores, n_dispatches, cap, start):
        from repro import loadbalance
        from repro.obs.metrics import MetricsRegistry

        monkeypatch.setattr(loadbalance, "MAX_TIMELINE_SAMPLES", cap)
        rng = np.random.default_rng([n_cores, n_dispatches, cap])
        hint = 1e-4
        metrics = MetricsRegistry()
        t = LoadTracker(n_cores, task_cost_hint=hint, metrics=metrics)
        horizons = np.zeros(n_cores)
        now, times, depths = start, [], []
        for _ in range(n_dispatches):
            step = rng.random()
            if step < 0.03:
                now = max(now, horizons.max()) + hint  # an idle gap drains every core
            elif step > 0.25:  # else a repeat dispatch at the same now
                now += rng.exponential(hint / n_cores)
            core = int(rng.integers(n_cores))
            if rng.random() < 0.2:
                cost = float(rng.choice([0.0, rng.uniform(0.0, 3.0) * hint]))
                t.record_dispatch(core, now, cost=cost)
            else:
                n_tasks = int(rng.integers(1, 5))
                t.record_dispatch(core, now, n_tasks=n_tasks)
                cost = hint * n_tasks
            horizons[core] = max(horizons[core], now) + cost
            assert t.backlog(core, now) == max(horizons[core] - now, 0.0)
            times.append(now)
            depths.append(total_queued(horizons, now, hint))
        kept, ever = sampled_dispatches(n_dispatches, cap)
        timeline = t.timeline()
        np.testing.assert_array_equal(timeline[:, 0], np.take(times, kept))
        np.testing.assert_allclose(timeline[:, 1], np.take(depths, kept), rtol=1e-12, atol=0)
        peak = metrics.gauge("loadtracker.peak_total_queued").value
        assert peak == pytest.approx(max(np.take(depths, ever)), rel=1e-12)


class TestSelectors:
    def test_primary_is_workgroup_pointer(self):
        wg = Workgroups(6, 3, seed=9)
        ref = Workgroups(6, 3, seed=9)
        sel = PrimarySelector(wg)
        picks = [sel.pick(p, 0.0) for p in range(6) for _ in range(4)]
        expected = [ref.next_core(p) for p in range(6) for _ in range(4)]
        assert picks == expected

    def test_primary_advances_shared_state(self):
        # failover excursions through the same Workgroups advance primary's cycle
        wg = Workgroups(4, 2)
        sel = PrimarySelector(wg)
        assert sel.pick(0, 0.0) == 0
        wg.next_core(0)
        assert sel.pick(0, 0.0) == 0  # pointer wrapped past 1

    def test_least_loaded_follows_backlog(self):
        wg = Workgroups(4, 2)
        sel = LeastLoadedSelector(wg, LoadTracker(4, 1.0))
        sel.tracker.record_dispatch(0, now=0.0)
        assert sel.pick(0, 0.0) == 1  # core 0 busy -> pick 1
        sel.tracker.record_dispatch(1, now=0.0)
        sel.tracker.record_dispatch(1, now=0.0)
        assert sel.pick(0, 0.0) == 0

    def test_least_loaded_ties_break_low(self):
        sel = LeastLoadedSelector(Workgroups(4, 3))
        assert sel.pick(0, 0.0) == 0

    @pytest.mark.parametrize("name", SELECTORS)
    def test_exclude_and_exhaustion(self, name):
        sel = make_selector(name, Workgroups(4, 2), LoadTracker(4, 1.0))
        for _ in range(4):
            assert sel.pick(0, 0.0, exclude={0}) == 1
        assert sel.pick(0, 0.0, exclude={0, 1}) is None

    @pytest.mark.parametrize("name", SELECTORS)
    def test_picks_stay_in_workgroup(self, name):
        wg = Workgroups(8, 3, seed=5)
        sel = make_selector(name, wg, LoadTracker(8, 1.0))
        for p in range(8):
            for _ in range(5):
                assert sel.pick(p, 0.0) in wg.cores_for_partition(p)

    def test_make_selector_rejects_unknown(self):
        for name in ("busiest", "round_robin", "power_of_two_choices"):
            with pytest.raises(SimConfigError, match="replica_selector"):
                make_selector(name, Workgroups(4, 2))

    def test_default_tracker_attached(self):
        sel = make_selector("least_loaded", Workgroups(4, 2))
        assert sel.tracker.n_cores == 4


class TestEndToEnd:
    """Selector choice moves tasks between replicas, never changes results."""

    BASE = dict(
        n_cores=8,
        cores_per_node=2,
        k=5,
        hnsw=HnswParams(M=8, ef_construction=40, seed=13),
        n_probe=2,
        replication_factor=2,
        seed=13,
    )

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(600, 16)).astype(np.float32)
        Q = X[rng.choice(600, 40, replace=False)] + rng.normal(
            scale=0.01, size=(40, 16)
        ).astype(np.float32)
        return X, Q.astype(np.float32)

    def _run(self, data, **kw):
        X, Q = data
        ann = DistributedANN(SystemConfig(**{**self.BASE, **kw}))
        ann.fit(X)
        return ann.query(Q, k=5)

    @pytest.mark.parametrize("selector", SELECTORS[1:])
    def test_results_identical_to_primary(self, data, selector):
        D0, I0, rep0 = self._run(data)
        D1, I1, rep1 = self._run(data, replica_selector=selector)
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_allclose(D0, D1)
        assert rep0.tasks == rep1.tasks

    def test_report_carries_load_metrics(self, data):
        _, _, rep = self._run(data, replica_selector="least_loaded")
        assert rep.core_busy_seconds is not None
        assert rep.core_busy_seconds.shape == (self.BASE["n_cores"],)
        assert rep.imbalance_factor >= 1.0
        assert rep.queue_depth_timeline is not None
        assert rep.queue_depth_timeline.shape[1] == 2
        # dispatch times are non-decreasing in virtual time
        assert np.all(np.diff(rep.queue_depth_timeline[:, 0]) >= 0)

    def test_selector_composes_with_faults(self, data):
        from repro.faults import FaultSpec, RankCrash

        X, Q = data
        base = {**self.BASE, "cores_per_node": 1, "n_cores": 4, "one_sided": False}
        ann = DistributedANN(
            SystemConfig(
                **base,
                replica_selector="least_loaded",
                fault_spec=FaultSpec(crashes=(RankCrash(node=1, at=0.0),)),
            )
        )
        ann.fit(X)
        Df, If, repf = ann.query(Q, k=5)
        # the crashed rank's tasks fail over to live replicas; with r=2 the
        # crash is fully masked and the load metrics still come through
        assert np.all(repf.completeness == 1.0)
        assert repf.failovers > 0
        assert repf.core_busy_seconds is not None
        assert repf.queue_depth_timeline is not None


def test_least_loaded_beats_primary_under_skew():
    """The §IV replication argument as a floor: on 16 cores with every
    partition on r = 4 cores and a Zipf(1.3) workload of 600 queries,
    ``least_loaded`` finishes at least 1.5x sooner than ``primary``
    (0.440193 s vs 0.280127 s, 1.571x).  Virtual makespans are exact, so
    this is a property of the policies, not of the machine."""
    X = skewed_corpus(4000, 16, 16)
    makespan = {}
    for selector in ("primary", "least_loaded"):
        ann = skewed_system(16, replication_factor=4, replica_selector=selector)
        ann.fit(X)
        if selector == "primary":
            Q = skewed_queries(ann, 600, skew=1.3)
        makespan[selector] = ann.query(Q)[2].total_seconds
    assert makespan["primary"] / makespan["least_loaded"] >= 1.5, makespan
