"""Report invariants across all three query modes, and the golden
equivalence test protecting the ClusterRuntime refactor.

Every dispatch strategy must emit the same report shape: breakdown dicts
with exactly the {compute, send, recv, wait, poll, rma} keys, a
comm_fraction in [0, 1], per-query latencies only where they are
observable (two-sided master-worker), and a phase breakdown over the
uniform span vocabulary.  And for a fixed seed, (D, I) must be identical
across modes and runs, with virtual makespans reproduced exactly.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from repro import DistributedANN, SystemConfig
from repro.runtime import (
    ClusterRuntime,
    MasterWorkerStrategy,
    MultipleOwnerStrategy,
    SearchReport,
    strategy_for,
)
from repro.runtime.report import REPORT_INSTRUMENTS, REPORT_SCHEMA
from repro.simmpi.trace import PHASES

BREAKDOWN_KEYS = {"compute", "send", "recv", "wait", "rma"}

MODES = {
    "two_sided": dict(one_sided=False, owner_strategy="master"),
    "one_sided": dict(one_sided=True, owner_strategy="master"),
    "multiple_owner": dict(one_sided=False, owner_strategy="multiple"),
}


def _dataset(seed: int = 7, n: int = 400, dim: int = 12):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)).astype("float32")
    Q = rng.normal(size=(12, dim)).astype("float32")
    return X, Q


def _run_mode(mode_kwargs, X, Q, k=5, seed=3):
    cfg = SystemConfig(n_cores=4, cores_per_node=2, seed=seed, **mode_kwargs)
    ann = DistributedANN(cfg)
    ann.fit(X)
    return ann.query(Q, k=k)


@pytest.fixture(scope="module")
def mode_runs():
    X, Q = _dataset()
    return {name: _run_mode(kwargs, X, Q) for name, kwargs in MODES.items()}


class TestReportInvariants:
    def test_comm_fraction_in_unit_interval(self, mode_runs):
        for name, (_, _, rep) in mode_runs.items():
            assert 0.0 <= rep.comm_fraction <= 1.0, name

    def test_breakdowns_have_exactly_the_standard_keys(self, mode_runs):
        for name, (_, _, rep) in mode_runs.items():
            assert set(rep.worker_breakdown) == BREAKDOWN_KEYS, name
            assert set(rep.master_breakdown) == BREAKDOWN_KEYS, name

    def test_query_latencies_present_iff_two_sided_master_worker(self, mode_runs):
        for name, (_, _, rep) in mode_runs.items():
            if name == "two_sided":
                assert rep.query_latencies is not None
                assert len(rep.query_latencies) == rep.n_queries
                assert np.all(np.isfinite(rep.query_latencies))
            else:
                assert rep.query_latencies is None, name

    def test_task_accounting_is_consistent(self, mode_runs):
        for name, (_, _, rep) in mode_runs.items():
            assert rep.dispatch_counts is not None, name
            assert rep.tasks == int(rep.dispatch_counts.sum()), name
            assert rep.mean_fanout > 0, name
            assert rep.throughput > 0, name

    def test_phase_breakdown_covers_standard_phases(self, mode_runs):
        for name, (_, _, rep) in mode_runs.items():
            assert set(PHASES) <= set(rep.phase_breakdown), name
            assert all(v >= 0.0 for v in rep.phase_breakdown.values()), name
            # every mode routes, searches, and reduces
            assert rep.phase_breakdown["route"] > 0, name
            assert rep.phase_breakdown["search"] > 0, name
            assert rep.phase_breakdown["reduce"] > 0, name


class TestGoldenEquivalence:
    """The refactor-protection contract: fixed seed => fixed answers/times."""

    def test_results_identical_across_modes(self, mode_runs):
        (D0, I0, _) = mode_runs["two_sided"]
        for name in ("one_sided", "multiple_owner"):
            D, I, _ = mode_runs[name]
            np.testing.assert_array_equal(I0, I, err_msg=name)
            np.testing.assert_allclose(D0, D, err_msg=name)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_repeat_run_reproduces_results_and_makespan(self, mode):
        X, Q = _dataset()
        D1, I1, rep1 = _run_mode(MODES[mode], X, Q)
        D2, I2, rep2 = _run_mode(MODES[mode], X, Q)
        np.testing.assert_array_equal(I1, I2)
        np.testing.assert_array_equal(D1, D2)
        assert rep1.total_seconds == rep2.total_seconds
        assert rep1.n_events == rep2.n_events
        assert rep1.worker_breakdown == rep2.worker_breakdown
        assert rep1.master_breakdown == rep2.master_breakdown
        assert rep1.phase_breakdown == rep2.phase_breakdown

    def test_facade_and_runtime_entrypoints_agree(self):
        """DistributedANN.query and a hand-built ClusterRuntime are the
        same code path — same results, same virtual makespan."""
        X, Q = _dataset()
        cfg = SystemConfig(n_cores=4, cores_per_node=2, one_sided=False, seed=3)
        ann = DistributedANN(cfg)
        ann.fit(X)
        D1, I1, rep1 = ann.query(Q, k=5)
        build = ann._build
        D2, I2, rep2 = ClusterRuntime(cfg).run_search(
            MasterWorkerStrategy(),
            build.router,
            build.workgroups,
            build.node_stores,
            ann._make_searcher(),
            Q,
            5,
        )
        np.testing.assert_array_equal(I1, I2)
        np.testing.assert_array_equal(D1, D2)
        assert rep1.total_seconds == rep2.total_seconds


class TestStrategySelection:
    def test_strategy_for_config(self):
        assert isinstance(strategy_for(SystemConfig()), MasterWorkerStrategy)
        assert isinstance(
            strategy_for(SystemConfig(owner_strategy="multiple")), MultipleOwnerStrategy
        )


class TestSearchReportDefaults:
    def test_throughput_zero_for_zero_makespan(self):
        rep = SearchReport(total_seconds=0.0, n_queries=5)
        assert rep.throughput == 0.0

    def test_dispatch_counts_defaults_to_none(self):
        rep = SearchReport(total_seconds=1.0, n_queries=5)
        assert rep.dispatch_counts is None

    def test_search_report_importable_from_core(self):
        from repro.core import SearchReport as CoreSearchReport

        assert CoreSearchReport is SearchReport

    def test_load_metrics_default_to_none(self):
        rep = SearchReport(total_seconds=1.0, n_queries=5)
        assert rep.core_busy_seconds is None
        assert rep.queue_depth_timeline is None
        assert rep.imbalance_factor == 1.0  # no data -> perfectly balanced

    def test_imbalance_factor_is_max_over_mean(self):
        rep = SearchReport(
            total_seconds=1.0, n_queries=5,
            core_busy_seconds=np.array([1.0, 2.0, 3.0]),
        )
        assert rep.imbalance_factor == pytest.approx(3.0 / 2.0)
        idle = SearchReport(
            total_seconds=1.0, n_queries=5,
            core_busy_seconds=np.zeros(3),
        )
        assert idle.imbalance_factor == 1.0


class TestOneHomePerNumber:
    """A scalar an instrument holds is not stored on the report again."""

    def test_no_projected_name_is_a_field(self):
        stored = {f.name for f in dataclasses.fields(SearchReport)}
        assert not stored & set(REPORT_INSTRUMENTS)
        assert len(stored) <= 22
        for name in REPORT_INSTRUMENTS:
            assert isinstance(getattr(SearchReport, name), property), name
            with pytest.raises(AttributeError):
                setattr(SearchReport(total_seconds=1.0, n_queries=5), name, 1)

    def test_projected_names_read_the_metrics_dump(self, mode_runs):
        _, _, rep = mode_runs["two_sided"]
        assert rep.tasks == rep.metrics["counters"]["coordinator.tasks_sent"] > 0
        assert rep.cache_hits == 0
        rep.metrics["counters"]["cache.hits"] = 7
        assert rep.cache_hits == 7
        rep.metrics["counters"]["cache.hits"] = 0

    def test_hand_built_report_reads_zeros(self):
        rep = SearchReport(total_seconds=1.0, n_queries=5)
        assert {getattr(rep, name) for name in REPORT_INSTRUMENTS} == {0}

    def test_docs_table_lists_every_row(self):
        text = (pathlib.Path(__file__).parent.parent / "docs" / "observability.md").read_text()
        rows = dict(re.findall(r"^\| `(\w+)` \| `([\w.]+)` \((?:counter|gauge)\) \|", text, re.M))
        assert rows == {name: inst for name, (_, inst) in REPORT_INSTRUMENTS.items()}
        for name, (kind, inst) in REPORT_INSTRUMENTS.items():
            assert f"| `{name}` | `{inst}` ({kind}) |" in text


class TestFromDict:
    def _payload(self, mode_runs) -> dict:
        return mode_runs["two_sided"][2].to_dict()

    def test_unknown_schema_is_refused_by_name(self, mode_runs):
        payload = dict(self._payload(mode_runs), schema="something/else-v9")
        with pytest.raises(ValueError, match="something/else-v9"):
            SearchReport.from_dict(payload)
        payload.pop("schema")
        with pytest.raises(ValueError, match=re.escape(REPORT_SCHEMA)):
            SearchReport.from_dict(payload)

    def test_missing_required_key_is_named(self, mode_runs):
        for name in ("total_seconds", "n_queries"):
            payload = self._payload(mode_runs)
            del payload[name]
            with pytest.raises(ValueError, match=name):
                SearchReport.from_dict(payload)

    def test_flat_scalar_keys_are_ignored(self, mode_runs):
        rep = mode_runs["two_sided"][2]
        payload = rep.to_dict()
        assert set(REPORT_INSTRUMENTS) <= set(payload)
        payload["tasks"] = payload["tasks"] + 1000  # derived: metrics wins
        assert SearchReport.from_dict(payload).tasks == rep.tasks
        for name in REPORT_INSTRUMENTS:
            del payload[name]
        back = SearchReport.from_dict(payload)
        assert back.tasks == rep.tasks and back.metrics == rep.metrics
        assert back.to_dict() == rep.to_dict()


class TestLoadMetricsPopulated:
    def test_every_query_mode_reports_core_busy(self):
        X, Q = _dataset(seed=19, n=300)
        for kw in ({}, {"one_sided": False}, {"owner_strategy": "multiple"}):
            cfg = SystemConfig(n_cores=4, cores_per_node=2, seed=3, **kw)
            ann = DistributedANN(cfg)
            ann.fit(X)
            _, _, rep = ann.query(Q, k=5)
            assert rep.core_busy_seconds is not None, kw
            assert rep.core_busy_seconds.shape == (4,)
            assert rep.core_busy_seconds.sum() > 0
            assert np.isfinite(rep.imbalance_factor)


class TestAddPointsBatching:
    def test_batched_insert_matches_single_inserts(self):
        X, Q = _dataset(seed=11, n=300)
        extra = _dataset(seed=12, n=40)[0][:24]
        cfg = SystemConfig(n_cores=4, cores_per_node=2, seed=3)

        batched = DistributedANN(cfg)
        batched.fit(X)
        ids_b = batched.add_points(extra)

        loop = DistributedANN(cfg)
        loop.fit(X)
        ids_l = np.concatenate([loop.add_points(extra[i : i + 1]) for i in range(len(extra))])

        np.testing.assert_array_equal(ids_b, ids_l)
        for pid in batched.partitions:
            np.testing.assert_array_equal(
                batched.partitions[pid].ids, loop.partitions[pid].ids
            )
            np.testing.assert_array_equal(
                batched.partitions[pid].points, loop.partitions[pid].points
            )
        D1, I1, _ = batched.query(Q, k=5)
        D2, I2, _ = loop.query(Q, k=5)
        np.testing.assert_array_equal(I1, I2)

    def test_bulk_insert_builds_the_per_point_graph(self, assert_same_graph):
        """``add_points`` inserts each partition's rows with one
        ``add_items``; graph bytes, ids and counters must equal one
        ``index.add`` per point (levels are drawn in row order)."""
        X, _ = _dataset(seed=11, n=300)
        extra = _dataset(seed=12, n=40)[0][:24]
        cfg = SystemConfig(n_cores=4, cores_per_node=2, seed=3)

        bulk = DistributedANN(cfg)
        bulk.fit(X)
        new_ids = bulk.add_points(extra)

        single = DistributedANN(cfg)
        single.fit(X)
        for x, gid in zip(extra, new_ids):
            pid = single.router.route_approx(x, 1)[0]
            single.partitions[pid].index.add(x, ext_id=int(gid))

        assert sum(len(p.index) for p in bulk.partitions.values()) == len(X) + len(extra)
        for pid, part in bulk.partitions.items():
            a, b = part.index, single.partitions[pid].index
            assert_same_graph(a, b)
            assert a.n_dist_evals == b.n_dist_evals
            assert a.n_shrink_ops == b.n_shrink_ops
