"""Distributed VP-tree construction (paper Algorithms 1 and 2).

All ranks of a communicator cooperatively build one VP-tree level, then the
communicator splits in half and each half recurses on its side of the data,
until every rank holds exactly one leaf — its data partition.  Per level:

1. **Vantage point selection** (Alg. 1): every rank scores a local candidate
   sample against its own data and sends its best representative to the
   group master; the master re-scores the representatives against *its*
   local subset and broadcasts the winner.  (Assumption, as in the paper:
   each rank's subset is representative of the global distribution.)
2. **Splitting radius**: distances from every local point to the vantage
   point, then the exact global q-th quantile via
   :func:`~repro.vptree.median.distributed_select` (the median when the
   group size is even — the paper's case; the generalization to any group
   size keeps per-rank loads equal for non-power-of-two worlds).
3. **Shuffle** (Alg. 2's ``MPI_Alltoallv``): inside-ball points are spread
   evenly over the first half of the ranks, outside points over the second
   half, with a rank-indexed rotation so remainders don't pile onto the
   first rank of each side.
4. **Recurse**: ``comm.split`` by side.

Every rank records its root-to-leaf path of ``(vp, mu, went_left)``; the
master assembles the global :class:`~repro.vptree.router.PartitionRouter`
from the gathered paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from repro.metrics import Metric, get_metric
from repro.simmpi.comm import Comm
from repro.simmpi.engine import Context
from repro.utils.rng import rng_for
from repro.vptree.median import distributed_select
from repro.vptree.select import spread_scores

__all__ = ["DistributedBuildResult", "distributed_build"]


@dataclass
class DistributedBuildResult:
    """One rank's outcome of the distributed partitioning."""

    #: this rank's partition (points)
    points: np.ndarray
    #: global ids of the partition's points
    ids: np.ndarray
    #: root-to-leaf path: (vantage point, radius, went_left)
    path: list[tuple[np.ndarray, float, bool]] = field(default_factory=list)


def _select_vantage_point_dist(
    ctx: Context,
    comm: Comm,
    X: np.ndarray,
    metric: Metric,
    n_candidates: int,
    n_sample: int,
    rng: np.random.Generator,
    work_scale: float = 1.0,
):
    """Algorithm 1: two-level candidate tournament.  Returns the vp vector."""
    my_rank = comm.rank(ctx)
    # Virtual local size: at work_scale > 1 this rank stands in for a
    # paper-scale shard, so the candidate/sample counts saturate at the
    # algorithm's constants (100x100) rather than the tiny real shard.
    # Selection cost is candidates x samples — it does NOT scale with the
    # data volume, so it is charged unscaled.
    virt_local = max(1, int(len(X) * work_scale))
    n_c_virt = min(n_candidates, virt_local)
    n_s_virt = min(n_sample, virt_local)
    # local round: sample candidates from local data, score on local sample
    if len(X):
        cand_idx = rng.choice(len(X), size=min(n_candidates, len(X)), replace=False)
        samp_idx = rng.choice(len(X), size=min(n_sample, len(X)), replace=False)
        scores = spread_scores(X[cand_idx], X[samp_idx], metric)
        yield from ctx.compute(
            ctx.cost.distance_cost(n_c_virt * n_s_virt, X.shape[1]), kind="build_vp"
        )
        # argmax is the first maximum, the one a strict ``>`` scan keeps
        representative = X[cand_idx[np.argmax(scores)]]
    else:
        representative = None

    reps = yield from comm.gather(ctx, representative, root=0)
    if my_rank == 0:
        cands = [r for r in reps if r is not None]
        if not cands:
            raise ValueError("no rank holds any data; cannot select a vantage point")
        stacked = np.stack(cands)
        if len(X):
            sample = X[rng.choice(len(X), size=min(n_sample, len(X)), replace=False)]
        else:
            sample = stacked
        scores = spread_scores(stacked, sample, metric)
        yield from ctx.compute(
            ctx.cost.distance_cost(len(cands) * n_s_virt, stacked.shape[1]), kind="build_vp"
        )
        vp = cands[np.argmax(scores)]
    else:
        vp = None
    vp = yield from comm.bcast(ctx, vp, root=0)
    return np.asarray(vp, dtype=np.float32)


def _split_inside(
    ctx: Context, comm: Comm, d: np.ndarray, mu: float, k_global: int
):
    """Boolean mask with exactly ``k_global`` True entries across ranks.

    Points strictly inside the radius always go left; boundary ties are
    assigned left in rank order until the global quota is met, so the split
    is exact even with many duplicate distances.
    """
    inside = d < mu
    equal = d == mu
    n_strict = yield from comm.allreduce(ctx, int(inside.sum()), op=sum)
    # what the ranks before each rank take: the exclusive prefix sums of the
    # per-rank tie counts, summed once for the whole group
    take_before = yield from comm.allgather(
        ctx, int(equal.sum()), then=lambda counts: list(accumulate(counts, initial=0))
    )
    my_take = min(int(equal.sum()), k_global - n_strict - take_before[comm.rank(ctx)])
    if my_take > 0:
        inside[np.flatnonzero(equal)[:my_take]] = True
    return inside


def _shuffle_sends(
    inside: np.ndarray, X: np.ndarray, ids: np.ndarray, my_rank: int, n_left_ranks: int, size: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """One rank's ``alltoallv`` outbox for the shuffle (the KD baseline's too).

    ``inside`` rows go to ranks ``0 .. n_left_ranks - 1`` and the rest to
    ``n_left_ranks .. size - 1``, each side in near-equal contiguous slices
    with the +1 remainders rotated by ``my_rank``.  Only non-empty slices are
    listed, so a rank holding a few points pays for those, not for every
    destination of a large group.
    """
    send: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for mask, dests in ((inside, range(n_left_ranks)), (~inside, range(n_left_ranks, size))):
        pts, pid = X[mask], ids[mask]
        n = len(dests)
        base, rem = divmod(len(pts), n)
        first = my_rank % n  # destinations first .. first + rem - 1 (mod n) get one more
        if base:
            nonempty = range(n)
        else:
            nonempty = chain(range(first + rem - n), range(first, min(first + rem, n)))
        pos = 0
        for j in nonempty:
            stop = pos + base + ((j - first) % n < rem)
            send[dests[j]] = (pts[pos:stop], pid[pos:stop])
            pos = stop
    return send


def distributed_build(
    ctx: Context,
    world: Comm,
    local_points: np.ndarray,
    local_ids: np.ndarray,
    metric: str | Metric = "l2",
    n_candidates: int = 100,
    n_sample: int = 100,
    seed: int = 0,
    work_scale: float = 1.0,
):
    """Run the full distributed partitioning on the calling rank.

    Generator; every rank of ``world`` must run it.  Returns this rank's
    :class:`DistributedBuildResult`.

    ``work_scale`` multiplies all local compute charges; the modeled
    (paper-scale) mode sets it to virtual_points / real_points so the
    virtual construction time reflects the billion-point workload while
    the algorithm itself runs on the reduced-scale data (see DESIGN.md).
    """
    m = get_metric(metric)
    if not m.is_true_metric:
        raise ValueError(f"VP partitioning requires a true metric, not {m.name!r}")
    X = np.ascontiguousarray(local_points, dtype=np.float32)
    ids = np.asarray(local_ids, dtype=np.int64)
    if len(X) != len(ids):
        raise ValueError(f"{len(X)} points but {len(ids)} ids")
    comm = world
    path: list[tuple[np.ndarray, float, bool]] = []
    depth = 0

    while comm.size > 1:
        my_rank = comm.rank(ctx)
        rng = rng_for(seed, "vpbuild", depth, my_rank)
        vp = yield from _select_vantage_point_dist(
            ctx, comm, X, m, n_candidates, n_sample, rng, work_scale
        )

        d = m.one_to_many(vp, X) if len(X) else np.empty(0)
        yield from ctx.compute(
            ctx.cost.distance_cost(len(X), X.shape[1]) * work_scale, kind="build_split"
        )

        n_left_ranks = (comm.size + 1) // 2
        total = yield from comm.allreduce(ctx, len(X), op=sum)
        k_global = max(1, min(total - 1, round(total * n_left_ranks / comm.size)))
        mu = yield from distributed_select(ctx, comm, d, k_global)
        inside = yield from _split_inside(ctx, comm, d, mu, k_global)

        send = _shuffle_sends(inside, X, ids, my_rank, n_left_ranks, comm.size)
        yield from ctx.compute(
            ctx.cost.copy_cost(X.nbytes + ids.nbytes) * work_scale, kind="build_shuffle"
        )
        inbox = yield from comm.alltoallv(ctx, send)

        went_left = my_rank < n_left_ranks
        # an empty inbox leaves an empty shard of the same width and dtypes
        X = np.concatenate([p for p, _ in inbox.values()] or [X[:0]])
        ids = np.concatenate([i for _, i in inbox.values()] or [ids[:0]])
        path.append((vp, float(mu), went_left))
        comm = yield from comm.split(ctx, color=0 if went_left else 1, key=my_rank)
        depth += 1

    return DistributedBuildResult(points=X, ids=ids, path=path)
