"""Alternative local index strategies (the paper's extensibility claim).

§VI: "Our approach is extensible in that any algorithm can be used for
local indexing and searching instead of HNSW."  These searchers exercise
that seam:

- :class:`BruteForceSearcher` — exact scan of the partition (the quality
  ceiling and the cost ceiling; with it the whole system's recall equals
  its routing coverage).
- :class:`VPTreeLocalSearcher` — exact metric-tree search per partition
  (cheaper than brute force, still exact).
- :class:`IvfPqLocalSearcher` — compressed IVF-PQ partitions (the
  related-work comparator class); demonstrates the recall plateau of
  compressed indexes inside the same distributed harness.

Each offers the one-row ``search(partition, query, k)`` call, which
``ClusterRuntime.run_search`` adapts to the batched
:class:`~repro.core.searcher.LocalSearcher` protocol.  The VP-tree and
IVF-PQ searchers are paired with a ``build(partition)`` hook that puts
their index into ``partition.index``; run it over a fitted system's
``partitions.values()`` before querying with the searcher.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import Partition
from repro.metrics import Metric, get_metric
from repro.pq.ivfpq import IVFPQIndex
from repro.simmpi.costmodel import CostModel
from repro.vptree.tree import VPTree

__all__ = [
    "BruteForceSearcher",
    "VPTreeLocalSearcher",
    "IvfPqLocalSearcher",
]


class BruteForceSearcher:
    """Exact linear scan of the partition's raw points."""

    def __init__(self, cost: CostModel, metric: str | Metric = "l2") -> None:
        self.cost = cost
        self.metric = get_metric(metric)

    def search(self, partition: Partition, query: np.ndarray, k: int):
        pts = partition.points
        if len(pts) == 0:
            return np.empty(0), np.empty(0, dtype=np.int64), self.cost.sec_per_dist_call
        d = self.metric.one_to_many(query, pts)
        order = np.lexsort((partition.ids, d))[:k]
        return (
            d[order],
            partition.ids[order],
            self.cost.distance_cost(len(pts), pts.shape[1]),
        )

    def build_seconds(self, partition: Partition) -> float:
        return 0.0  # nothing to build


class VPTreeLocalSearcher:
    """Exact VP-tree search per partition (stored in ``partition.index``)."""

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost

    @staticmethod
    def build(partition: Partition, leaf_size: int = 32, metric: str = "l2", seed: int = 0):
        partition.index = VPTree(partition.points, leaf_size=leaf_size, metric=metric, seed=seed)

    def search(self, partition: Partition, query: np.ndarray, k: int):
        tree = partition.index
        if not isinstance(tree, VPTree):
            raise ValueError(
                f"partition {partition.partition_id} holds {type(tree).__name__}, "
                "expected VPTree — run VPTreeLocalSearcher.build on it first"
            )
        before = tree.n_dist_evals
        d, local = tree.knn_search(query, k)
        evals = tree.n_dist_evals - before
        return d, partition.ids[local], self.cost.distance_cost(evals, tree.X.shape[1])

    def build_seconds(self, partition: Partition) -> float:
        n = partition.n_points
        return self.cost.distance_cost(int(n * max(np.log2(max(n, 2)), 1.0)), partition.points.shape[1])


class IvfPqLocalSearcher:
    """Compressed IVF-PQ search per partition.

    ``n_probe_cells`` probes that many coarse cells inside the partition's
    index.  The ADC cost charged is one lookup-sum per scanned code — far
    cheaper per point than full distances, which is the compression
    trade's other half.
    """

    def __init__(self, cost: CostModel, n_probe_cells: int = 4) -> None:
        self.cost = cost
        self.n_probe_cells = n_probe_cells

    @staticmethod
    def build(
        partition: Partition,
        n_cells: int = 16,
        n_subspaces: int = 8,
        n_centroids: int = 64,
        seed: int = 0,
    ) -> None:
        idx = IVFPQIndex(n_cells=n_cells, n_subspaces=n_subspaces, n_centroids=n_centroids, seed=seed)
        idx.fit(partition.points, partition.ids)
        partition.index = idx

    def search(self, partition: Partition, query: np.ndarray, k: int):
        idx = partition.index
        if not isinstance(idx, IVFPQIndex):
            raise ValueError(
                f"partition {partition.partition_id} holds {type(idx).__name__}, "
                "expected IVFPQIndex — run IvfPqLocalSearcher.build on it first"
            )
        before = idx.n_dist_evals
        idx.n_probe = self.n_probe_cells
        d, ids = idx.knn_search(query, k)
        scanned = idx.n_dist_evals - before
        # ADC: table build (n_centroids x sub_dim madds x n_subspaces) plus
        # n_subspaces lookup-adds per scanned code
        table_cost = self.cost.distance_cost(
            idx.pq.n_centroids * idx.pq.n_subspaces, idx.pq.sub_dim
        )
        scan_cost = self.cost.compare_cost(scanned * idx.pq.n_subspaces)
        return d, ids, table_cost + scan_cost

    def build_seconds(self, partition: Partition) -> float:
        n = partition.n_points
        # k-means training passes dominate
        return self.cost.distance_cost(25 * n, partition.points.shape[1])
