"""Distributed selection (median of medians across ranks).

Algorithm 2 needs the exact median of the distances-to-vantage-point over
data scattered across the group ("Use median of medians algorithm").  This
module provides:

- :func:`weighted_median` — serial weighted median, the pivot chooser;
- :func:`distributed_select` — an exact distributed k-th-smallest: each
  round, ranks contribute their local median and count, the weighted median
  of those becomes the global pivot, an allreduce counts elements below /
  equal to the pivot, and the search narrows to one side.  The weighted
  median pivot discards at least ~1/4 of the remaining elements per round,
  so rounds are O(log n); when the active set is small it is gathered and
  finished serially.

All algorithmic work happens on real NumPy arrays; communication goes
through the simulated comm, and local compare work is charged to the cost
model — so construction timings (Table II) account for it.
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.engine import Context

__all__ = ["weighted_median", "distributed_select"]

#: below this many active elements the selection finishes serially
_GATHER_LIMIT = 4096


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Smallest value whose cumulative weight reaches half the total."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.size == 0:
        raise ValueError("weighted_median of empty input")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    half = cum[-1] / 2.0
    idx = int(np.searchsorted(cum, half))
    return float(values[order[min(idx, len(order) - 1)]])


def _pivot(meds: list) -> float:
    """A round's pivot from every rank's ``(local median, count)``."""
    vals, wts = zip(*(mc for mc in meds if mc[1] > 0))
    return weighted_median(vals, wts)


def distributed_select(ctx: Context, comm: Comm, values: np.ndarray, k: int):
    """Exact k-th smallest (1-based) of the concatenation of every rank's
    ``values``.  All ranks return the same scalar.  Generator — call with
    ``yield from``.
    """
    active = np.asarray(values, dtype=np.float64).ravel()
    total = yield from comm.allreduce(ctx, len(active), op=sum)
    if not 1 <= k <= total:
        raise ValueError(f"k={k} out of range for {total} total elements")
    rank_below = 0  # how many discarded elements are smaller than the active set

    while True:
        n_active = yield from comm.allreduce(ctx, len(active), op=sum)
        if n_active <= _GATHER_LIMIT:
            gathered = yield from comm.gather(ctx, active, root=0)
            if comm.rank(ctx) == 0:
                allv = np.sort(np.concatenate([np.asarray(g) for g in gathered]))
                # charge the serial sort
                yield from ctx.compute(
                    ctx.cost.compare_cost(int(len(allv) * max(np.log2(len(allv)), 1.0))),
                    kind="select",
                )
                answer = float(allv[k - rank_below - 1])
            else:
                answer = None
            answer = yield from comm.bcast(ctx, answer, root=0)
            return answer

        if len(active):
            local_med = float(np.median(active))
            yield from ctx.compute(ctx.cost.compare_cost(len(active)), kind="select")
            contrib = (local_med, len(active))
        else:
            contrib = (None, 0)
        pivot = yield from comm.allgather(ctx, contrib, then=_pivot)

        below = active < pivot
        equal = active == pivot
        counts = yield from comm.allreduce(
            ctx,
            (int(below.sum()), int(equal.sum())),
            op=lambda pairs: (sum(p[0] for p in pairs), sum(p[1] for p in pairs)),
        )
        yield from ctx.compute(ctx.cost.compare_cost(len(active)), kind="select")
        n_below, n_equal = counts
        target = k - rank_below
        if target <= n_below:
            active = active[below]
        elif target <= n_below + n_equal:
            return pivot
        else:
            active = active[~below & ~equal]
            rank_below += n_below + n_equal
