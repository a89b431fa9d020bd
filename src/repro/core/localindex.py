"""Alternative local index strategies (the paper's extensibility claim).

§VI: "Our approach is extensible in that any algorithm can be used for
local indexing and searching instead of HNSW."  These searchers exercise
that seam:

- :class:`BruteForceSearcher` — exact scan of the partition (the quality
  ceiling and the cost ceiling; with it the whole system's recall equals
  its routing coverage).
- :class:`VPTreeLocalSearcher` — exact metric-tree search per partition
  (cheaper than brute force, still exact).

Each offers the one-row ``search(partition, query, k)`` call, which
``ClusterRuntime.run_search`` adapts to the batched
:class:`~repro.core.searcher.LocalSearcher` protocol.  The VP-tree
searcher is paired with a ``build(partition)`` hook that puts its tree into
``partition.index``; run it over a fitted system's ``partitions.values()``
before querying with the searcher.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import Partition
from repro.metrics import Metric, get_metric
from repro.metrics.topk import exact_topk
from repro.simmpi.costmodel import CostModel
from repro.vptree.tree import VPTree

__all__ = [
    "BruteForceSearcher",
    "VPTreeLocalSearcher",
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
        ds, idss = exact_topk(self.metric, np.asarray(query).reshape(1, -1), pts, partition.ids, k)
        return ds[0], idss[0], self.cost.distance_cost(len(pts), pts.shape[1])

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

