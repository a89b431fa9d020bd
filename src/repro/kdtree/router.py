"""Axis-aligned partition routing for the KD baseline master."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import heapq

from repro.utils.validation import check_positive_int, check_vector

__all__ = ["KDRouteNode", "KDPartitionRouter"]


@dataclass
class KDRouteNode:
    axis: int = -1
    threshold: float = 0.0
    left: "KDRouteNode | None" = None
    right: "KDRouteNode | None" = None
    partition: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.partition >= 0


class KDPartitionRouter:
    """KD-tree skeleton mapping queries to partition ids (exact routing)."""

    def __init__(self, root: KDRouteNode, n_partitions: int):
        self.root = root
        self.n_partitions = n_partitions
        #: coordinate compares only — no full distance evaluations; kept for
        #: interface parity with PartitionRouter (the master charges this)
        self.n_dist_evals = 0

    @classmethod
    def from_paths(
        cls, paths: list[list[tuple[int, float, bool]]]
    ) -> "KDPartitionRouter":
        """Assemble from per-rank (axis, threshold, went_left) paths, the
        same mechanism as the VP router."""
        n = len(paths)

        def rec(members: list[int], depth: int) -> KDRouteNode:
            if len(members) == 1:
                return KDRouteNode(partition=members[0])
            lefts = [r for r in members if paths[r][depth][2]]
            rights = [r for r in members if not paths[r][depth][2]]
            axis, threshold, _ = paths[lefts[0]][depth]
            return KDRouteNode(
                axis=int(axis),
                threshold=float(threshold),
                left=rec(lefts, depth + 1),
                right=rec(rights, depth + 1),
            )

        return cls(rec(list(range(n)), 0), n)

    @classmethod
    def from_kdtree(cls, tree) -> "KDPartitionRouter":
        counter = [0]

        def rec(node) -> KDRouteNode:
            if node.is_leaf:
                pid = counter[0]
                counter[0] += 1
                return KDRouteNode(partition=pid)
            return KDRouteNode(
                axis=node.axis,
                threshold=node.threshold,
                left=rec(node.left),
                right=rec(node.right),
            )

        root = rec(tree.root)
        return cls(root, counter[0])

    def route_exact(self, query: np.ndarray, tau: float) -> list[int]:
        """All partitions whose cell intersects the L2 ball of radius tau
        (left holds ``<= threshold``, right ``>= threshold``: ties at the
        median go to either side, so both tests are non-strict)."""
        q = check_vector(query, "query")
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        out: list[int] = []

        def rec(node: KDRouteNode) -> None:
            if node.is_leaf:
                out.append(node.partition)
                return
            delta = float(q[node.axis]) - node.threshold
            if delta - tau <= 0:
                rec(node.left)
            if delta + tau >= 0:
                rec(node.right)

        rec(self.root)
        return out

    def route_approx(self, query: np.ndarray, n_probe: int = 1) -> list[int]:
        """Best-first multi-probe by axis-margin penalty (mirror of the VP
        router's mode, so both routers drive the same master program)."""
        q = check_vector(query, "query")
        check_positive_int(n_probe, "n_probe")
        out: list[int] = []
        seq = 0
        heap: list[tuple[float, int, KDRouteNode]] = [(0.0, seq, self.root)]
        while heap and len(out) < n_probe:
            penalty, _, node = heapq.heappop(heap)
            while not node.is_leaf:
                delta = float(q[node.axis]) - node.threshold
                near, far = (
                    (node.left, node.right) if delta <= 0 else (node.right, node.left)
                )
                seq += 1
                heapq.heappush(heap, (penalty + abs(delta), seq, far))
                node = near
            out.append(node.partition)
        return out

    def route_nearest(self, query: np.ndarray) -> int:
        """The single partition whose cell contains the query."""
        q = check_vector(query, "query")
        node = self.root
        while not node.is_leaf:
            node = node.left if float(q[node.axis]) <= node.threshold else node.right
        return node.partition
