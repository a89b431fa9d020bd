"""The few statistics the benchmark reports, with their support rules."""

from __future__ import annotations

import math
import statistics


def percentile(samples, p: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``.

    Refused (``ValueError``) unless at least ``min_beyond`` samples lie
    beyond it, i.e. ``len(samples) * (1 - p / 100) >= min_beyond``: a p90
    needs 100 samples.  A single process passes ``min_beyond=0`` and states
    its sample count instead; the suite pools processes and keeps the rule.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    beyond = n * (1.0 - p / 100.0)
    if beyond + 1e-9 < min_beyond:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond:.1f} beyond it, needs {min_beyond}"
        )
    rank = max(1, math.ceil(n * p / 100.0))
    return float(sorted(samples)[rank - 1])


def windowed_percentile(samples, p: float, window: int = 10) -> float:
    """Mean over consecutive ``window``-sample stretches of each stretch's
    nearest-rank ``p``-th percentile (a short tail joins the last stretch).

    What one process reports for its batch times.  When the machine's speed
    switches between two levels, a pooled median jumps from one level to
    the other as their shares cross a half; the mean of local percentiles
    moves with the shares instead, and still ignores a lone slow batch.
    """
    n = len(samples)
    starts = range(0, max(n - n % window, 1), window)
    stretches = [samples[i : i + window] for i in starts]
    stretches[-1] = samples[starts[-1] :]
    return statistics.fmean(percentile(s, p, min_beyond=0) for s in stretches)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
