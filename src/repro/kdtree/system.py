"""The complete KD-tree baseline system (Table III's comparator).

A PANDA-style exact distributed k-NN pipeline assembled from the same
simulated-cluster scaffolding as the main system:

- fit: distributed KD partitioning (coordinate-median splits), then one
  real serial KD-tree per partition;
- query: adaptive two-phase exact search — pilot probe of the containing
  cell for an upper bound, then exact cell routing with that radius —
  which is the standard way to make a distributed KD search exact.

The comparison against VP+HNSW is apples-to-apples: identical network and
cost models, identical master/worker machinery; only the partitioning
geometry, the router, and the local searcher differ.  In high dimensions
the KD cells' exact routing fans out to nearly every partition and the
exact local searches scan most of each partition — the two effects that
produce the ≳10X gap the paper reports.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import SystemConfig
from repro.core.partition import NodeStore, Partition
from repro.core.replication import Workgroups
from repro.kdtree.distributed import distributed_build_kd
from repro.kdtree.router import KDPartitionRouter
from repro.kdtree.tree import KDTree
from repro.runtime import ClusterRuntime, MasterWorkerStrategy
from repro.simmpi.comm import Comm
from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import Simulation
from repro.utils.validation import check_matrix, check_query

__all__ = ["KDExactSearcher", "KDBaselineSystem"]


class KDExactSearcher:
    """Exact local search over a partition's serial KD-tree."""

    def __init__(self, cost: CostModel, work_scale: float = 1.0) -> None:
        self.cost = cost
        self.work_scale = work_scale

    def search(self, partition: Partition, query: np.ndarray, k: int):
        tree = partition.index
        if tree is None:
            raise ValueError(f"partition {partition.partition_id} has no KD-tree")
        before = tree.n_dist_evals
        d, local_ids = tree.knn_search(query, k)
        evals = tree.n_dist_evals - before
        ids = partition.ids[local_ids]
        return d, ids, self.cost.distance_cost(evals, tree.X.shape[1]) * self.work_scale

    def build_seconds(self, partition: Partition) -> float:
        n = partition.n_points
        if n == 0:
            return 0.0
        return self.cost.compare_cost(int(n * max(np.log2(n), 1.0))) * self.work_scale


class KDBaselineSystem:
    """Distributed exact KD-tree k-NN search (the PANDA stand-in).

    Accepts the same :class:`SystemConfig`; routing is forced to the
    adaptive two-phase exact mode with two-sided results (exact search
    requires the pilot radius back at the master).  ``work_scale``
    multiplies local search costs for paper-scale modeled comparisons.
    """

    def __init__(self, config: SystemConfig, leaf_size: int = 64, work_scale: float = 1.0):
        self.config = replace(config, routing="adaptive", one_sided=False)
        self.leaf_size = leaf_size
        self.work_scale = work_scale
        self._router: KDPartitionRouter | None = None
        self._partitions: dict[int, Partition] | None = None
        self._node_stores: dict[int, NodeStore] | None = None
        self._workgroups: Workgroups | None = None
        self._dim: int | None = None
        self.build_seconds: float = 0.0

    def fit(self, X: np.ndarray) -> float:
        """Build the distributed KD index; returns the virtual build time."""
        X = check_matrix(X, "X")
        self._dim = X.shape[1]
        cfg = self.config
        P = cfg.n_cores
        if len(X) < P:
            raise ValueError(f"dataset has {len(X)} points for {P} partitions")

        sim = Simulation(network=cfg.network, cost=cfg.cost)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD7]))
        perm = rng.permutation(len(X))
        chunks = np.array_split(perm, P)
        searcher_cost = KDExactSearcher(cfg.cost, self.work_scale)
        world: Comm

        def program_factory(rank):
            def program(ctx):
                res = yield from distributed_build_kd(
                    ctx, world, X[np.sort(chunks[rank])], np.sort(chunks[rank])
                )
                tree = KDTree(res.points, leaf_size=self.leaf_size, metric=cfg.metric)
                part = Partition(rank, res.points, res.ids, index=tree)
                yield from ctx.compute(searcher_cost.build_seconds(part), kind="build_kd")
                paths = yield from world.gather(ctx, res.path, root=0)
                return part, paths

            return program

        pids = [
            sim.add_proc(program_factory(r), node=cfg.node_of_core(r), name=f"kdbuild{r}")
            for r in range(P)
        ]
        world = Comm(sim, pids, "kdbuild")
        out = sim.run()

        self._partitions = {r: out.results[pids[r]][0] for r in range(P)}
        if P > 1:
            self._router = KDPartitionRouter.from_paths(out.results[pids[0]][1])
        else:
            from repro.kdtree.router import KDRouteNode

            self._router = KDPartitionRouter(KDRouteNode(partition=0), 1)
        self._workgroups = Workgroups(P, 1)  # the baseline has no replication
        self._node_stores = {n: NodeStore(n) for n in range(cfg.n_nodes)}
        for r in range(P):
            self._node_stores[cfg.node_of_core(r)].add(self._partitions[r])
        self.build_seconds = out.makespan
        return out.makespan

    def query(self, Q: np.ndarray, k: int | None = None):
        """Exact batch k-NN; returns (D, I, SearchReport)."""
        if self._router is None:
            raise RuntimeError("call fit(X) before querying")
        n_points = sum(p.n_points for p in self._partitions.values())
        Q, k = check_query(Q, self.config.k if k is None else k, self._dim, n_points)
        searcher = KDExactSearcher(self.config.cost, self.work_scale)
        runtime = ClusterRuntime(self.config)
        return runtime.run_search(
            MasterWorkerStrategy(),
            self._router,
            self._workgroups,
            self._node_stores,
            searcher,
            Q,
            k,
        )
