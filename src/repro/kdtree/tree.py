"""Serial bucket-leaf KD-tree with exact k-NN search.

Splits on the widest-spread coordinate at the median (PANDA's strategy),
keeps points in leaf buckets scanned with vectorized distance kernels (the
stand-in for PANDA's SIMD buckets), and prunes with the classic
axis-distance bound.  Only correct for L2/Linf-style coordinate metrics —
which is the point the paper makes about KD-trees being metric-specific,
and why only ``l2`` and ``linf`` are accepted here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics import Metric, get_metric
from repro.utils.heaps import KnnBuffer
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["KDTree", "KDNode"]

_SUPPORTED = ("l2", "linf")


@dataclass
class KDNode:
    axis: int = -1
    threshold: float = 0.0
    left: "KDNode | None" = None
    right: "KDNode | None" = None
    ids: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.ids is not None


class KDTree:
    """Exact k-NN index over a point matrix with axis-aligned splits."""

    def __init__(
        self,
        X: np.ndarray,
        leaf_size: int = 32,
        metric: str | Metric = "l2",
    ) -> None:
        self.X = check_matrix(X, "X")
        self.metric = get_metric(metric)
        if self.metric.name not in _SUPPORTED:
            raise ValueError(
                f"KD-tree pruning supports {_SUPPORTED}, not {self.metric.name!r} "
                "(KD-trees are coordinate-metric specific — see paper §III-B)"
            )
        check_positive_int(leaf_size, "leaf_size")
        self.leaf_size = leaf_size
        self.n_dist_evals = 0
        self.root = self._build(np.arange(len(self.X), dtype=np.int64))

    def _build(self, ids: np.ndarray) -> KDNode:
        if len(ids) <= self.leaf_size:
            return KDNode(ids=ids)
        sub = self.X[ids]
        spreads = sub.max(axis=0) - sub.min(axis=0)
        axis = int(np.argmax(spreads))
        values = sub[:, axis]
        threshold = float(np.median(values))
        inside = values <= threshold
        if inside.all() or not inside.any():
            order = np.argsort(values, kind="stable")
            half = len(ids) // 2
            inside = np.zeros(len(ids), dtype=bool)
            inside[order[:half]] = True
            threshold = float(values[order[half - 1]])
        return KDNode(
            axis=axis,
            threshold=threshold,
            left=self._build(ids[inside]),
            right=self._build(ids[~inside]),
        )

    def knn_search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN; returns (distances, ids) closest first."""
        check_positive_int(k, "k")
        q = check_vector(query, "query", dim=self.X.shape[1])
        buf = KnnBuffer(k)
        self._search(self.root, q, buf)
        return buf.result()

    def _search(self, node: KDNode, q: np.ndarray, buf: KnnBuffer) -> None:
        if node.is_leaf:
            if len(node.ids):
                d = self.metric.one_to_many(q, self.X[node.ids])
                self.n_dist_evals += len(node.ids)
                buf.offer_many(d, node.ids)
            return
        delta = float(q[node.axis]) - node.threshold
        first, second = (node.left, node.right) if delta <= 0 else (node.right, node.left)
        self._search(first, q, buf)
        # the other half-space is reachable iff the axis distance to the
        # splitting hyperplane is below the current pruning radius
        if abs(delta) <= buf.tau:
            self._search(second, q, buf)

    def leaves(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []

        def rec(node: KDNode) -> None:
            if node.is_leaf:
                out.append(node.ids)
            else:
                rec(node.left)
                rec(node.right)

        rec(self.root)
        return out
