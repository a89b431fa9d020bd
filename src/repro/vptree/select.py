"""Vantage-point selection heuristic.

Yianilos's construction selects, from a random candidate subset, the point
whose distance distribution to the rest of the data has the largest *second
moment about its median* — i.e. the candidate that best spreads the data
away from the splitting boundary, which maximizes pruning during search.
The paper calls this ``SelectVantagePointSerial(D', D)`` (Algorithm 1).
"""

from __future__ import annotations

import numpy as np

from repro.metrics import EuclideanMetric, Metric, get_metric

__all__ = ["spread_score", "spread_scores", "select_vantage_point"]

#: float64 entries per block of difference rows: 1 MB at any vector width
_BLOCK_ENTRIES = 1 << 17


def spread_score(candidate: np.ndarray, sample: np.ndarray, metric: Metric) -> float:
    """Second moment of distances to ``sample`` about their median.

    This is the heuristic function H(v, D) of the paper's Algorithm 1: a
    larger value means the candidate separates the data more decisively at
    the median boundary.
    """
    d = metric.one_to_many(candidate, sample)
    mu = np.median(d)
    return float(np.mean((d - mu) ** 2))


def spread_scores(candidates: np.ndarray, sample: np.ndarray, metric: Metric) -> np.ndarray:
    """:func:`spread_score` of every row of ``candidates``, bit for bit: a
    whole tournament round in a few kernel calls instead of three per
    candidate.  Every reduction still runs over the same contiguous row in
    the same order — L2 sends the ``(C*S, d)`` difference rows, 1 MB at a
    time, through the per-row einsum ``one_to_many`` uses, other metrics
    stack their own ``one_to_many`` rows, and one median and one mean
    reduce each length-``S`` row of the ``(C, S)`` distance matrix."""
    C = np.asarray(candidates, dtype=np.float64)
    S = np.asarray(sample, dtype=np.float64)
    n_s, dim = S.shape
    block = max(1, _BLOCK_ENTRIES // (n_s * dim))
    D = np.empty((len(C), n_s))
    for a in range(0, len(C), block):
        Cb = C[a : a + block]
        if type(metric) is EuclideanMetric:
            diff = (S[np.newaxis, :, :] - Cb[:, np.newaxis, :]).reshape(-1, dim)
            D[a : a + block] = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(len(Cb), n_s)
        else:
            D[a : a + block] = [metric.one_to_many(c, S) for c in Cb]
    mu = np.median(D, axis=1)
    return np.mean((D - mu[:, np.newaxis]) ** 2, axis=1)


def select_vantage_point(
    X: np.ndarray,
    metric: str | Metric = "l2",
    n_candidates: int = 100,
    n_sample: int = 100,
    rng: np.random.Generator | None = None,
    candidates: np.ndarray | None = None,
) -> tuple[int, float]:
    """Pick the best vantage point for dataset ``X``.

    Samples ``n_candidates`` rows of ``X`` (or scores the explicitly given
    ``candidates`` matrix) against a random evaluation sample of ``X``,
    returning ``(index, score)``.  When ``candidates`` is given the index
    refers to a row of ``candidates`` — that is the mode the distributed
    construction uses at the group master, scoring worker representatives
    against the master's local subset.
    """
    m = get_metric(metric)
    rng = rng or np.random.default_rng()
    n = X.shape[0]
    sample_idx = rng.choice(n, size=min(n_sample, n), replace=False)
    sample = X[sample_idx]
    if candidates is None:
        cand_idx = rng.choice(n, size=min(n_candidates, n), replace=False)
        cand_matrix = X[cand_idx]
    else:
        cand_idx = np.arange(len(candidates))
        cand_matrix = candidates
    scores = spread_scores(cand_matrix, sample, m)
    best = int(np.argmax(scores))  # the first maximum, as a strict > scan keeps
    return int(cand_idx[best]), float(scores[best])
