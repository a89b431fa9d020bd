"""Partition routing: the master's query → partitions map F(q).

The master process holds only the VP-tree *skeleton* (vantage points and
radii; the data itself lives on workers).  Leaves are labeled with partition
ids — partition ``i`` lives on worker rank handling ``D_i``.  Two routing
modes:

- ``route_exact(q, tau)``: every partition whose subspace intersects the
  ball of radius ``tau`` around ``q``.  With ``tau`` equal to the true k-th
  neighbor distance this reconstructs the exact F(q) of the paper — results
  from these partitions suffice to recover the global k-NN (up to the
  local searchers' own approximation).
- ``route_approx(q, n_probe)``: best-first multi-probe — descend the tree,
  charging each detour by its boundary margin ``|d(q, vp) - mu|``, and
  return the ``n_probe`` partitions with the smallest accumulated penalty.
  This is the throughput mode: a small fixed fan-out per query.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.metrics import Metric, get_metric
from repro.metrics.lp import EuclideanMetric, _l2sq_one_to_many
from repro.utils.validation import check_positive_int, check_vector

__all__ = ["RouteNode", "PartitionRouter"]


@dataclass
class RouteNode:
    """Skeleton node: internal (vp, mu, children) or leaf (partition id)."""

    vp: np.ndarray | None = None
    mu: float = 0.0
    left: "RouteNode | None" = None
    right: "RouteNode | None" = None
    partition: int = -1

    def __post_init__(self) -> None:
        # the float64 (1, d) row the metric kernels work on, converted here
        # once instead of from the float32 ``vp`` on every routing step
        self._vp64 = None if self.vp is None else np.asarray(self.vp, np.float64)[np.newaxis, :]

    @property
    def is_leaf(self) -> bool:
        return self.partition >= 0


class PartitionRouter:
    """VP-tree skeleton mapping queries to partition ids."""

    def __init__(self, root: RouteNode, n_partitions: int, metric: str | Metric = "l2"):
        self.root = root
        self.n_partitions = n_partitions
        self.metric = get_metric(metric)
        if not self.metric.is_true_metric:
            raise ValueError("partition routing requires a true metric")
        #: both operands of a routing step are float64 already, so L2 calls
        #: the metric's own kernel without its per-call conversion wrapper
        self._l2 = type(self.metric) is EuclideanMetric
        self.n_dist_evals = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_paths(
        cls,
        paths: list[list[tuple[np.ndarray, float, bool]]],
        metric: str | Metric = "l2",
    ) -> "PartitionRouter":
        """Rebuild the skeleton from per-rank root-to-leaf paths.

        ``paths[r]`` is rank r's recorded construction path: a list of
        ``(vp, mu, went_left)`` from root to leaf.  This is how the master
        assembles the global tree after the distributed build (each rank
        knows only the splits it participated in).
        """
        n = len(paths)

        def rec(members: list[int], depth: int) -> RouteNode:
            if len(members) == 1:
                return RouteNode(partition=members[0])
            lefts = [r for r in members if paths[r][depth][2]]
            rights = [r for r in members if not paths[r][depth][2]]
            vp, mu, _ = paths[lefts[0]][depth]
            return RouteNode(
                vp=np.asarray(vp, dtype=np.float32),
                mu=float(mu),
                left=rec(lefts, depth + 1),
                right=rec(rights, depth + 1),
            )

        return cls(rec(list(range(n)), 0), n, metric)

    @classmethod
    def from_vptree(cls, tree, leaf_to_partition: dict[int, int] | None = None) -> "PartitionRouter":
        """Derive a router from a serial :class:`~repro.vptree.tree.VPTree`.

        Leaves are numbered left-to-right; ``leaf_to_partition`` can remap
        them.  Used by the single-process engine mode and by tests that
        compare routing against an exact tree search.
        """
        counter = [0]

        def rec(node) -> RouteNode:
            if node.is_leaf:
                pid = counter[0]
                counter[0] += 1
                if leaf_to_partition is not None:
                    pid = leaf_to_partition[pid]
                return RouteNode(partition=pid)
            return RouteNode(
                vp=node.vp, mu=node.mu, left=rec(node.left), right=rec(node.right)
            )

        root = rec(tree.root)
        return cls(root, counter[0], tree.metric)

    # -- routing -------------------------------------------------------------

    def _d(self, q64: np.ndarray, node: RouteNode) -> float:
        self.n_dist_evals += 1
        if self._l2:
            return math.sqrt(_l2sq_one_to_many(q64, node._vp64)[0])
        return float(self.metric.one_to_many(q64, node._vp64)[0])

    def route_exact(self, query: np.ndarray, tau: float) -> list[int]:
        """All partitions intersecting the ball of radius ``tau``.

        Build invariant: left holds ``d(x, vp) <= mu``, right holds
        ``d(x, vp) >= mu`` (ties at the radius go to either side to keep the
        split exact), so both tests are non-strict.
        """
        q = check_vector(query, "query").astype(np.float64)
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        out: list[int] = []

        def rec(node: RouteNode) -> None:
            if node.is_leaf:
                out.append(node.partition)
                return
            d = self._d(q, node)
            if d - tau <= node.mu:
                rec(node.left)
            if d + tau >= node.mu:
                rec(node.right)

        rec(self.root)
        return out

    def route_approx(self, query: np.ndarray, n_probe: int = 1) -> list[int]:
        """The ``n_probe`` most promising partitions, best-first by margin.

        Penalty of a leaf is the sum of boundary-crossing margins along its
        path; the nearest leaf always has penalty 0.  Returned in
        increasing-penalty order.
        """
        q = check_vector(query, "query").astype(np.float64)
        check_positive_int(n_probe, "n_probe")
        out: list[int] = []
        seq = 0
        heap: list[tuple[float, int, RouteNode]] = [(0.0, seq, self.root)]
        while heap and len(out) < n_probe:
            penalty, _, node = heapq.heappop(heap)
            while not node.is_leaf:
                d = self._d(q, node)
                margin = abs(d - node.mu)
                near, far = (
                    (node.left, node.right) if d <= node.mu else (node.right, node.left)
                )
                seq += 1
                heapq.heappush(heap, (penalty + margin, seq, far))
                node = near
            out.append(node.partition)
        return out

    # -- diagnostics ------------------------------------------------------------

    def partitions(self) -> list[int]:
        out: list[int] = []

        def rec(node: RouteNode) -> None:
            if node.is_leaf:
                out.append(node.partition)
            else:
                rec(node.left)
                rec(node.right)

        rec(self.root)
        return out

    def depth(self) -> int:
        def rec(node: RouteNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(self.root)
