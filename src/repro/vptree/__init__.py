"""Vantage-Point trees (Yianilos, SODA 1993).

Three roles in the system:

- :class:`~repro.vptree.tree.VPTree` — a serial bucket-leaf VP-tree with
  exact k-NN search, used as a correctness oracle and for the ablation
  comparing VP against KD partitioning quality.
- :class:`~repro.vptree.router.PartitionRouter` — the master's routing
  structure: a VP-tree whose leaves name data partitions.  Computes
  :math:`\\mathcal{F}(q)`, the set of partitions a query must visit, either
  exactly (ball-overlap with a given radius) or approximately (best-first
  multi-probe by boundary margin).
- :func:`~repro.vptree.distributed.distributed_build` — the paper's
  Algorithms 1 and 2: all ranks cooperatively select vantage points, find
  splitting radii with a distributed selection algorithm, shuffle points
  with ``alltoallv``, and recurse on split communicators until every rank
  holds exactly one partition.
"""

from repro.vptree.select import select_vantage_point, spread_score, spread_scores
from repro.vptree.tree import VPTree
from repro.vptree.router import PartitionRouter, RouteNode
from repro.vptree.median import weighted_median, distributed_select
from repro.vptree.distributed import distributed_build, DistributedBuildResult

__all__ = [
    "select_vantage_point",
    "spread_score",
    "spread_scores",
    "VPTree",
    "PartitionRouter",
    "RouteNode",
    "weighted_median",
    "distributed_select",
    "distributed_build",
    "DistributedBuildResult",
]
