"""Coverage for small public surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.hnsw import HnswIndex, HnswParams, graph_stats
from repro.obs.metrics import MetricsRegistry
from repro.runtime.report import ReportBuilder
from repro.simmpi import Comm, Simulation
from repro.simmpi.engine import SimulationResult, payload_nbytes
from repro.simmpi.trace import PHASES, ProcStats
from repro.vptree import PartitionRouter, VPTree


def breakdowns(stats: dict, coordinators=(), aux=(), worker_cores=None):
    """The report's one pass over ``stats`` (pid -> ProcStats)."""
    out = SimulationResult(0.0, {}, {}, stats, 0)
    return ReportBuilder(
        out, list(coordinators), 0, MetricsRegistry(), worker_cores=worker_cores, aux_pids=aux
    )._breakdowns()


class TestProcStats:
    def test_aggregate_sums_all_fields(self):
        a = ProcStats(compute={"search": 1.0}, span_time={"search": 1.0, "retry": 0.25})
        a.send_time = 0.1
        a.comm_wait = 0.5
        b = ProcStats(compute={"route": 2.0}, span_time={"failover": 0.5, "search": 2.0})
        b.rma_time = 0.2
        master = ProcStats(compute={"route": 4.0}, span_time={"route": 4.0})
        source = ProcStats(compute={"arrival_gap": 8.0})
        agg, magg, phases, _ = breakdowns({0: master, 1: source, 2: a, 3: b}, [0], [1])
        assert agg["compute"] == pytest.approx(3.0)
        assert agg["send"] == pytest.approx(0.1)
        assert agg["wait"] == pytest.approx(0.5)
        assert agg["rma"] == pytest.approx(0.2)
        assert magg == {"compute": 4.0, "send": 0.0, "recv": 0.0, "wait": 0.0, "rma": 0.0}
        # every phase first, then custom spans in first-seen order
        assert list(phases) == [*PHASES, "retry", "failover"]
        assert phases["search"] == pytest.approx(3.0)

    def test_busy_and_comm_totals(self):
        s = ProcStats(compute={"x": 1.0})
        s.recv_time = 0.25
        s.send_time = 0.25
        s.comm_wait = 2.0  # blocked, so not busy
        t = ProcStats(compute={"x": 0.5})
        _, _, _, busy = breakdowns({0: s, 1: t}, worker_cores={0: 1, 1: 1})
        np.testing.assert_allclose(busy, [0.0, 2.0])

    def test_compute_kinds_accumulate(self):
        def prog(ctx):
            yield from ctx.compute(1.0, kind="search")
            yield ctx.compute_op(2.0, "search")

        sim = Simulation()
        pid = sim.add_proc(prog)
        assert sim.run().stats[pid].compute == {"search": 3.0}


class TestPayloadNbytes:
    def test_str_and_dict(self):
        assert payload_nbytes("hello") == 45
        d = {"k": np.zeros(10, dtype=np.float64)}
        assert payload_nbytes(d) > 80

    def test_nested_list(self):
        inner = np.zeros(100, dtype=np.float32)
        assert payload_nbytes([inner, inner]) > 2 * 400


class TestCommAccessors:
    def test_pid_and_mailbox_of_rank(self):
        sim = Simulation()

        def p(ctx):
            yield from ctx.compute(0)

        pids = [sim.add_proc(p, name=f"r{i}") for i in range(3)]
        comm = Comm(sim, pids)
        assert comm.pid_of_rank(1) == pids[1]
        assert comm.mailbox_of_rank(2) is sim.mailbox_of(pids[2])
        assert comm.size == 3


class TestStructureDiagnostics:
    @pytest.fixture(scope="class")
    def tree_and_router(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 8)).astype(np.float32)
        tree = VPTree(X, leaf_size=32, seed=1)
        return tree, PartitionRouter.from_vptree(tree)

    def test_router_depth_positive(self, tree_and_router):
        tree, router = tree_and_router
        assert router.depth() >= 1
        assert router.depth() == tree.depth()

    def test_graph_stats_fields(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 8)).astype(np.float32)
        idx = HnswIndex(dim=8, params=HnswParams(M=6, ef_construction=30, seed=2))
        idx.add_items(X)
        s = graph_stats(idx)
        assert s["n_points"] == 200
        assert s["layers"][0]["n_nodes"] == 200
        assert s["layers"][0]["max_degree"] <= idx.params.M0
        # link-list shrinking makes the graph partially directed (as in
        # hnswlib); bound it below half of all links
        total_links = s["layers"][0]["mean_degree"] * s["layers"][0]["n_nodes"]
        assert s["layers"][0]["asymmetric_links"] <= 0.5 * total_links

    def test_vector_and_external_id_accessors(self):
        X = np.arange(20, dtype=np.float32).reshape(5, 4)
        idx = HnswIndex(dim=4, params=HnswParams(M=4, ef_construction=10))
        idx.add_items(X, ids=[10, 11, 12, 13, 14])
        assert idx.external_id(0) == 10
        assert np.array_equal(idx.vector(2), X[2])
        assert np.array_equal(idx.points, X)
