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

The router flattens its skeleton once, at construction: one float64
vantage-point matrix (``RouteNode._vp64`` is a row view of it, so the
skeleton is not stored twice), the radii and each internal node's child
codes.  Under L2 both routes are then one call into ``hnsw/_hotpath.c``
(``vp_route_approx`` / ``vp_route_exact``): the same best-first heap on
``(penalty, seq)`` and the same left-first DFS as the python methods
below, on a float64 kernel that reproduces the einsum order of
:func:`repro.metrics.lp._l2sq_one_to_many`.  A self-check per width gates
it (:func:`repro.hnsw.native.native_route_for`), so partitions, their
order and ``n_dist_evals`` are the python router's bit for bit; without a
compiler, with ``REPRO_HNSW_NO_NATIVE`` set, or under L1 / L-infinity the
python per-step ``_d`` runs, and it is the oracle the compiled descent is
tested against.
"""

from __future__ import annotations

import ctypes
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.hnsw.native import RouteDesc, native_route_for
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
    #: the float64 (1, d) row a python routing step works on: a row view of
    #: the owning router's vantage-point matrix, set when it flattens
    _vp64: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # routing arithmetic is double on both paths, whatever ``mu`` came in as
        self.mu = float(self.mu)

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
        self._flatten()

    def _flatten(self) -> None:
        """The skeleton as arrays, internal nodes in preorder: ``_vps``
        (n, d) float64, ``_mus`` (n,) and ``_child`` (n, 2) codes — ``c >= 0``
        internal node ``c``, ``c < 0`` the leaf of partition ``~c`` — then,
        where the compiled descent serves this width, its query, heap and
        output buffers behind one ``RouteDesc``."""
        internal: list[RouteNode] = []
        child: list[tuple[int, int]] = []

        def code(node: RouteNode) -> int:
            if node.is_leaf:
                return ~node.partition
            i = len(internal)
            internal.append(node)
            child.append((0, 0))
            child[i] = (code(node.left), code(node.right))
            return i

        root = code(self.root)
        self._vps = np.array([node.vp for node in internal], dtype=np.float64)
        self._mus = np.array([node.mu for node in internal], dtype=np.float64)
        self._child = np.array(child, dtype=np.int64).reshape(-1, 2)
        for i, node in enumerate(internal):
            node._vp64 = self._vps[i : i + 1]
        #: query width; None for a one-leaf skeleton, which computes nothing
        self._dim = self._vps.shape[1] if internal else None
        # a subclass that replaces the python step (an instrumented or a
        # custom distance) keeps it: the compiled descent would bypass it
        own_step = type(self)._d is PartitionRouter._d
        self._native = native_route_for(self._dim) if self._l2 and internal and own_step else None
        if self._native is None:
            return
        n = len(internal) + 1  # bounds the heap, the DFS stack and the leaves
        self._q64 = np.empty(self._dim)
        self._out = np.empty(n, dtype=np.int64)
        self._heap = (np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
        arrays = (self._vps, self._mus, self._child)
        self._desc = RouteDesc(
            *(a.ctypes.data for a in arrays),
            self._dim,
            root,
            self._q64.ctypes.data,
            *(a.ctypes.data for a in self._heap),
            self._out.ctypes.data,
            0,
        )
        self._desc_addr = ctypes.addressof(self._desc)

    @property
    def native_active(self) -> bool:
        """True when routing runs the compiled descent."""
        return self._native is not None

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
        q = check_vector(query, "query", dim=self._dim)
        tau = float(tau)
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        if self._native is not None:
            self._q64[:] = q
            n = self._native.vp_route_exact(self._desc_addr, tau)
            self.n_dist_evals += self._desc.evals
            return self._out[:n].tolist()
        q = q.astype(np.float64)
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
        q = check_vector(query, "query", dim=self._dim)
        n_probe = check_positive_int(n_probe, "n_probe")
        if self._native is not None:
            self._q64[:] = q
            n = self._native.vp_route_approx(self._desc_addr, min(n_probe, len(self._out)))
            self.n_dist_evals += self._desc.evals
            return self._out[:n].tolist()
        q = q.astype(np.float64)
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
