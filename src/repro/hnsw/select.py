"""Neighbor-selection strategies for HNSW construction.

Two strategies from the HNSW paper:

- ``select_simple``: keep the M closest candidates (paper Alg. 3).
- ``select_heuristic``: the diversity heuristic (paper Alg. 4) — a candidate
  is kept only if it is closer to the inserted point than to every
  already-kept neighbor.  This spreads links across directions, which is
  what preserves graph navigability on clustered data; without it recall
  collapses on datasets with strong cluster structure (exactly the
  descriptor corpora used here).

On the python path selection runs ~30 times per insert (every
link-overflow ``_shrink`` re-selects the whole list; only the compiled
INSERT folds the new link in incrementally), so the loop shape matters.
The paper's formulation tracks,
for every remaining candidate, its distance to the nearest kept neighbor;
here the test is flipped into an early-exit scan — candidate ``i`` is kept
iff no already-kept row ``r`` has ``r[i] <= dist(q, i)`` — which examines
exactly the comparisons the min-tracking version's decisions depend on and
not one more.  The scan runs on plain Python floats (one ``tolist`` per
*kept* row), and the pairwise matrix is consumed row-by-row, which is what
lets callers hand in lazily-computed rows (``select_heuristic_rows``)
instead of materializing the full n² matrix for n candidates when only a
handful are ever kept.  Decision-identical to Algorithm 4 by construction;
the flat-vs-reference equivalence tests pin it bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["select_simple", "select_heuristic", "select_heuristic_rows"]


def select_simple(
    candidates: list[tuple[float, int]], m: int
) -> list[tuple[float, int]]:
    """Closest-``m`` selection.  ``candidates`` are (distance, id) pairs."""
    return sorted(candidates)[:m]


def select_heuristic_rows(
    candidates: list[tuple[float, int]],
    m: int,
    row_for: Callable[[int], list[float]],
    keep_pruned: bool = True,
) -> list[tuple[float, int]]:
    """Diversity-aware selection (HNSW paper, Algorithm 4).

    ``candidates`` must be sorted ascending by distance-to-query.
    ``row_for(i)`` returns candidate ``i``'s distances to all candidates
    (same order), and is only called for candidates that are *kept* — the
    row is what later candidates are tested against.  A candidate is kept
    iff it is closer to the query than to every already-kept candidate; if
    ``keep_pruned``, discarded candidates backfill the result up to ``m``.
    """
    result: list[tuple[float, int]] = []
    discarded: list[tuple[float, int]] = []
    kept_rows: list[list[float]] = []
    add_result = result.append
    add_discarded = discarded.append
    add_row = kept_rows.append
    kept = 0
    for i, pair in enumerate(candidates):
        if kept >= m:
            break
        di = pair[0]
        for row in kept_rows:
            if row[i] <= di:
                add_discarded(pair)
                break
        else:
            add_result(pair)
            add_row(row_for(i))
            kept += 1
    if keep_pruned and len(result) < m and discarded:
        result.extend(discarded[: m - len(result)])
        result.sort()
    return result


def select_heuristic(
    candidates: list[tuple[float, int]],
    m: int,
    cross: np.ndarray,
    keep_pruned: bool = True,
) -> list[tuple[float, int]]:
    """:func:`select_heuristic_rows` over a precomputed distance matrix.

    ``cross[i, j]`` is the distance between candidates ``i`` and ``j`` (in
    the same order as ``candidates``).
    """
    n = len(candidates)
    if cross.shape != (n, n):
        raise ValueError(f"cross matrix shape {cross.shape} does not match {n} candidates")
    return select_heuristic_rows(
        candidates, m, lambda i: cross[i].tolist(), keep_pruned=keep_pruned
    )
