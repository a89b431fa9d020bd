"""Coverage for small public surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.hnsw import HnswIndex, HnswParams, graph_stats
from repro.simmpi import Comm, Simulation
from repro.simmpi.engine import payload_nbytes
from repro.simmpi.trace import ProcStats, aggregate_stats
from repro.vptree import PartitionRouter, VPTree


class TestProcStats:
    def test_aggregate_sums_all_fields(self):
        a = ProcStats(name="a")
        a.add_compute("search", 1.0)
        a.send_time = 0.1
        a.comm_wait = 0.5
        b = ProcStats(name="b")
        b.add_compute("route", 2.0)
        b.rma_time = 0.2
        agg = aggregate_stats([a, b])
        assert agg["compute"] == pytest.approx(3.0)
        assert agg["send"] == pytest.approx(0.1)
        assert agg["wait"] == pytest.approx(0.5)
        assert agg["rma"] == pytest.approx(0.2)

    def test_busy_and_comm_totals(self):
        s = ProcStats()
        s.add_compute("x", 1.0)
        s.recv_time = 0.25
        s.send_time = 0.25
        assert s.comm_total == pytest.approx(0.5)
        assert s.busy_total == pytest.approx(1.5)

    def test_compute_kinds_accumulate(self):
        s = ProcStats()
        s.add_compute("search", 1.0)
        s.add_compute("search", 2.0)
        assert s.compute == {"search": 3.0}


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
