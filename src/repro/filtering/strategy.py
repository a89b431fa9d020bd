"""Pre- vs post-filter execution and the selectivity crossover.

Two ways to answer "k-NN among the matching rows":

- **pre** — brute-force scan of exactly the matching rows.  Exact by
  construction; cost is linear in the match count, so it wins when the
  predicate is highly selective (few matches).
- **post** — filtered HNSW traversal: the graph walk expands through
  *all* neighbors (non-matching nodes stay in the candidate frontier, so
  the graph's connectivity survives arbitrarily unfriendly predicates)
  but only matching nodes may enter the result set.  Cost tracks the
  ordinary beam search, so it wins when most rows match.

``auto`` picks per (task, partition): brute force when the partition's
matching fraction falls below :data:`CROSSOVER_SELECTIVITY` (or the
match count can't even fill ``k`` — the scan is then both exact and
cheaper than any traversal), filtered traversal otherwise.
"""

from __future__ import annotations

__all__ = ["CROSSOVER_SELECTIVITY", "STRATEGIES", "choose_strategy"]

#: matching-fraction threshold of the auto crossover: below this,
#: brute-forcing the matches costs less than walking the graph past
#: non-matching nodes (tests/test_filtering.py pins the measured sweep)
CROSSOVER_SELECTIVITY = 0.10

#: legal values of ``SystemConfig.filter_strategy`` / ``--filter-strategy``
STRATEGIES = ("auto", "pre", "post")


def choose_strategy(strategy: str, n_match: int, n_rows: int, k: int) -> str:
    """Resolve ``auto`` to ``pre``/``post`` for one partition's task."""
    if strategy != "auto":
        return strategy
    if n_rows == 0 or n_match <= k:
        return "pre"
    return "pre" if (n_match / n_rows) < CROSSOVER_SELECTIVITY else "post"
