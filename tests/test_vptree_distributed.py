"""Integration tests for the distributed VP-tree construction (Algs 1-2)."""

import numpy as np
import pytest

from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.simmpi import Comm, Simulation
from repro.vptree import PartitionRouter, distributed_build


def run_build_sim(X, P, seed=7, **kwargs):
    chunks = np.array_split(np.arange(len(X)), P)
    sim = Simulation()
    holder = {}

    def program(ctx):
        comm = holder["comm"]
        r = comm.rank(ctx)
        return (
            yield from distributed_build(ctx, comm, X[chunks[r]], chunks[r], seed=seed, **kwargs)
        )

    pids = [sim.add_proc(program, node=r // 4, name=f"rank{r}") for r in range(P)]
    holder["comm"] = Comm(sim, pids)
    out = sim.run()
    return [out.results[p] for p in pids], out


@pytest.fixture(scope="module")
def built8():
    X = sift_like(2048, dim=32, seed=4)
    results, out = run_build_sim(X, 8)
    return X, results, out


class TestPartitioning:
    def test_partitions_are_equal_sized(self, built8):
        X, results, _ = built8
        sizes = [len(r.ids) for r in results]
        assert all(s == len(X) // 8 for s in sizes)

    def test_partitions_cover_dataset_exactly(self, built8):
        X, results, _ = built8
        allids = np.sort(np.concatenate([r.ids for r in results]))
        assert np.array_equal(allids, np.arange(len(X)))

    def test_points_match_ids(self, built8):
        X, results, _ = built8
        for r in results:
            assert np.array_equal(r.points, X[r.ids])

    def test_ball_containment_invariant(self, built8):
        """Every point must respect each (vp, mu, side) on its rank's path."""
        X, results, _ = built8
        for res in results:
            pts = res.points.astype(np.float64)
            for vp, mu, went_left in res.path:
                d = np.sqrt(((pts - vp.astype(np.float64)) ** 2).sum(1))
                if went_left:
                    assert (d <= mu + 1e-3).all()
                else:
                    assert (d > mu - 1e-3).all()

    def test_path_depth_is_log2_p(self, built8):
        _, results, _ = built8
        assert all(len(r.path) == 3 for r in results)

    @pytest.mark.parametrize("P", [2, 3, 5])
    def test_non_power_of_two_worlds(self, P):
        X = sift_like(600, dim=16, seed=1)
        results, _ = run_build_sim(X, P)
        sizes = [len(r.ids) for r in results]
        assert sum(sizes) == len(X)
        assert max(sizes) - min(sizes) <= len(X) // (2 * P)  # near-equal

    def test_single_rank_world(self):
        X = sift_like(100, dim=8, seed=2)
        results, _ = run_build_sim(X, 1)
        assert len(results[0].ids) == 100
        assert results[0].path == []

    def test_deterministic_given_seed(self):
        X = sift_like(512, dim=16, seed=3)
        r1, o1 = run_build_sim(X, 4, seed=5)
        r2, o2 = run_build_sim(X, 4, seed=5)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.ids, b.ids)
        assert o1.makespan == o2.makespan

    def test_non_metric_rejected(self):
        X = sift_like(64, dim=8, seed=0)
        with pytest.raises(Exception, match="true metric"):
            run_build_sim(X, 2, metric="sqeuclidean")

    @pytest.mark.parametrize("name", ["n_candidates", "n_sample"])
    def test_empty_tournament_rejected_by_name(self, name):
        X = sift_like(64, dim=8, seed=0)
        with pytest.raises(Exception, match=name):
            run_build_sim(X, 2, **{name: 0})

    def test_mismatched_ids_rejected(self):
        X = sift_like(64, dim=8, seed=0)
        sim = Simulation()
        holder = {}

        def program(ctx):
            return (
                yield from distributed_build(ctx, holder["comm"], X, np.arange(10))
            )

        pids = [sim.add_proc(program)]
        holder["comm"] = Comm(sim, pids)
        # the engine annotates proc failures with rank/time context
        from repro.simmpi.errors import SimError

        with pytest.raises(SimError, match="ids"):
            sim.run()


class TestRouterAssembly:
    def test_router_from_paths(self, built8):
        _, results, _ = built8
        router = PartitionRouter.from_paths([r.path for r in results])
        assert router.n_partitions == 8
        assert sorted(router.partitions()) == list(range(8))

    def test_exact_routing_covers_true_neighbors(self, built8):
        X, results, _ = built8
        router = PartitionRouter.from_paths([r.path for r in results])
        Q = sample_queries(X, 15, noise_scale=0.05, seed=9)
        gt_d, gt_i = brute_force_knn(X, Q, 5)
        id2part = {int(i): r for r in range(8) for i in results[r].ids}
        for qi in range(len(Q)):
            parts = set(router.route_exact(Q[qi], float(gt_d[qi][-1]) * (1 + 1e-9)))
            need = {id2part[int(i)] for i in gt_i[qi]}
            assert need <= parts

    def test_work_scale_inflates_data_volume_terms_only(self):
        """work_scale multiplies the data-proportional phases (splitting
        distances, shuffles) but NOT the vantage-candidate tournament,
        whose cost is fixed by the algorithm's 100x100 constants."""
        X = sift_like(256, dim=16, seed=6)
        _, out1 = run_build_sim(X, 4, seed=1)
        _, out2 = run_build_sim(X, 4, seed=1, work_scale=100.0)

        def by_kind(out, kind):
            return sum(s.compute.get(kind, 0.0) for s in out.stats.values())

        assert by_kind(out2, "build_split") > 50 * by_kind(out1, "build_split")
        assert by_kind(out2, "build_shuffle") > 50 * by_kind(out1, "build_shuffle")
        # candidate tournament: scale raises the virtual sample floor to the
        # algorithm's constants but never multiplies beyond them
        assert by_kind(out2, "build_vp") <= 40 * by_kind(out1, "build_vp")
