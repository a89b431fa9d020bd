"""Serial bucket-leaf VP-tree with exact k-NN search.

Differences from a textbook VP-tree, both taken from the paper:

- leaves hold *buckets* of points instead of single points ("the leaves of
  the VP tree we construct will be a set of data points"), and
- every point lives in a leaf — vantage points are stored by copy at
  internal nodes but their data rows descend into the left child (distance
  zero to themselves, always inside the ball), so the leaves exactly
  partition the dataset.  That invariant is what lets the same structure
  drive data partitioning.

Search uses the classic ball-overlap pruning: with current k-th best
distance tau, the left child (inside the ball of radius mu) is visited iff
``d(q, vp) - tau <= mu`` and the right child iff ``d(q, vp) + tau > mu``.
Correct for true metrics only — the constructor enforces
``metric.is_true_metric``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics import Metric, get_metric
from repro.utils.heaps import KnnBuffer
from repro.utils.validation import check_matrix, check_positive_int, check_vector
from repro.vptree.select import select_vantage_point

__all__ = ["VPTree", "VPNode"]


@dataclass
class VPNode:
    """Internal node (vp, mu) or leaf (ids).  Exactly one of the two forms."""

    vp: np.ndarray | None = None
    mu: float = 0.0
    left: "VPNode | None" = None
    right: "VPNode | None" = None
    ids: np.ndarray | None = None  # leaf bucket (global point ids)

    @property
    def is_leaf(self) -> bool:
        return self.ids is not None


class VPTree:
    """Exact metric-space k-NN index.

    Parameters
    ----------
    X:
        (n, dim) float matrix.
    leaf_size:
        Bucket capacity; recursion stops at or below this size.
    metric:
        A *true* metric (triangle inequality required for pruning).
    """

    def __init__(
        self,
        X: np.ndarray,
        leaf_size: int = 32,
        metric: str | Metric = "l2",
        seed: int = 0,
        n_candidates: int = 16,
    ) -> None:
        self.X = check_matrix(X, "X")
        self.metric = get_metric(metric)
        if not self.metric.is_true_metric:
            raise ValueError(
                f"VP-tree pruning requires a true metric; {self.metric.name!r} is not one"
            )
        check_positive_int(leaf_size, "leaf_size")
        self.leaf_size = leaf_size
        self.n_candidates = check_positive_int(n_candidates, "n_candidates")
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0x59]))
        self.n_dist_evals = 0
        self.root = self._build(np.arange(len(self.X), dtype=np.int64))

    # -- construction -----------------------------------------------------

    def _build(self, ids: np.ndarray) -> VPNode:
        if len(ids) <= self.leaf_size:
            return VPNode(ids=ids)
        sub = self.X[ids]
        vp_local, _ = select_vantage_point(
            sub,
            metric=self.metric,
            n_candidates=min(self.n_candidates, len(ids)),
            n_sample=min(100, len(ids)),
            rng=self._rng,
        )
        vp = sub[vp_local].copy()
        d = self.metric.one_to_many(vp, sub)
        self.n_dist_evals += len(ids)
        mu = float(np.median(d))
        inside = d <= mu
        # Degenerate split (many ties at mu): fall back to a half/half split
        # by distance rank so recursion always terminates.
        if inside.all() or not inside.any():
            order = np.argsort(d, kind="stable")
            half = len(ids) // 2
            inside = np.zeros(len(ids), dtype=bool)
            inside[order[:half]] = True
            mu = float(d[order[half - 1]])
        return VPNode(
            vp=vp,
            mu=mu,
            left=self._build(ids[inside]),
            right=self._build(ids[~inside]),
        )

    # -- search ------------------------------------------------------------

    def knn_search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN; returns (distances, ids) closest first."""
        check_positive_int(k, "k")
        q = check_vector(query, "query", dim=self.X.shape[1])
        buf = KnnBuffer(k)
        self._search(self.root, q, buf)
        return buf.result()

    def _search(self, node: VPNode, q: np.ndarray, buf: KnnBuffer) -> None:
        if node.is_leaf:
            if len(node.ids):
                d = self.metric.one_to_many(q, self.X[node.ids])
                self.n_dist_evals += len(node.ids)
                buf.offer_many(d, node.ids)
            return
        d_vp = float(self.metric.one_to_many(q, node.vp[np.newaxis, :])[0])
        self.n_dist_evals += 1
        near_first = d_vp <= node.mu
        first, second = (
            (node.left, node.right) if near_first else (node.right, node.left)
        )
        self._search(first, q, buf)
        tau = buf.tau
        # visit the other side only if the query ball crosses the boundary
        if near_first:
            if d_vp + tau > node.mu:
                self._search(second, q, buf)
        else:
            if d_vp - tau <= node.mu:
                self._search(second, q, buf)

    # -- diagnostics --------------------------------------------------------

    def leaves(self) -> list[np.ndarray]:
        """Leaf buckets in left-to-right order (they partition 0..n-1)."""
        out: list[np.ndarray] = []

        def rec(node: VPNode) -> None:
            if node.is_leaf:
                out.append(node.ids)
            else:
                rec(node.left)
                rec(node.right)

        rec(self.root)
        return out

    def depth(self) -> int:
        def rec(node: VPNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(self.root)
