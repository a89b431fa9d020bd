"""PANDA-style distributed KD-tree construction.

Mirrors :func:`repro.vptree.distributed.distributed_build` with coordinate
splits instead of vantage-point balls: at each level the group agrees on
the widest-spread axis (via allreduce of local min/max), finds the exact
global coordinate median with the distributed selection algorithm, shuffles
with alltoallv, and recurses on split communicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.engine import Context
from repro.vptree.distributed import _shuffle_sends, _split_inside
from repro.vptree.median import distributed_select

__all__ = ["DistributedKDBuildResult", "distributed_build_kd"]


@dataclass
class DistributedKDBuildResult:
    """One rank's outcome of the distributed KD partitioning."""

    points: np.ndarray
    ids: np.ndarray
    #: root-to-leaf path: (axis, threshold, went_left)
    path: list[tuple[int, float, bool]] = field(default_factory=list)


def distributed_build_kd(
    ctx: Context,
    world: Comm,
    local_points: np.ndarray,
    local_ids: np.ndarray,
):
    """Run PANDA's coarse-level construction on the calling rank.

    Generator; every rank of ``world`` must run it.  Returns this rank's
    :class:`DistributedKDBuildResult`.
    """
    X = np.ascontiguousarray(local_points, dtype=np.float32)
    ids = np.asarray(local_ids, dtype=np.int64)
    if len(X) != len(ids):
        raise ValueError(f"{len(X)} points but {len(ids)} ids")
    comm = world
    path: list[tuple[int, float, bool]] = []

    while comm.size > 1:
        my_rank = comm.rank(ctx)
        # agree on the globally widest-spread axis
        if len(X):
            lo, hi = X.min(axis=0), X.max(axis=0)
        else:
            lo = np.full(X.shape[1], np.inf, dtype=np.float32)
            hi = np.full(X.shape[1], -np.inf, dtype=np.float32)
        bounds = yield from comm.allreduce(
            ctx,
            (lo, hi),
            op=lambda pairs: (
                np.minimum.reduce([p[0] for p in pairs]),
                np.maximum.reduce([p[1] for p in pairs]),
            ),
        )
        yield from ctx.compute(ctx.cost.compare_cost(2 * len(X)), kind="build_split")
        axis = int(np.argmax(bounds[1] - bounds[0]))

        values = X[:, axis].astype(np.float64) if len(X) else np.empty(0)
        n_left_ranks = (comm.size + 1) // 2
        total = yield from comm.allreduce(ctx, len(X), op=sum)
        k_global = max(1, min(total - 1, round(total * n_left_ranks / comm.size)))
        threshold = yield from distributed_select(ctx, comm, values, k_global)
        inside = yield from _split_inside(ctx, comm, values, threshold, k_global)

        send = _shuffle_sends(inside, X, ids, my_rank, n_left_ranks, comm.size)
        yield from ctx.compute(ctx.cost.copy_cost(X.nbytes + ids.nbytes), kind="build_shuffle")
        inbox = yield from comm.alltoallv(ctx, send)

        went_left = my_rank < n_left_ranks
        # an empty inbox leaves an empty shard of the same width and dtypes
        X = np.concatenate([p for p, _ in inbox.values()] or [X[:0]])
        ids = np.concatenate([i for _, i in inbox.values()] or [ids[:0]])
        path.append((axis, float(threshold), went_left))
        comm = yield from comm.split(ctx, color=0 if went_left else 1, key=my_rank)

    return DistributedKDBuildResult(points=X, ids=ids, path=path)
