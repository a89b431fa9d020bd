"""Host times are reported at a reference machine speed.

The boxes this benchmark runs on change speed under it: the same batch takes
40, 50 or 70 ms depending on what the neighbours do, in phases from a
second to minutes long, with no steal time and ``time.process_time``
tracking the wall clock.  A phase can last longer than a whole process, so
no statistic over one process's raw samples is steady (ten processes of one
workload gave inter-quartile spreads of 7 % to 28 % of the median).

So every timed stretch is bracketed by a *probe*: a fixed kernel of about
2.5 ms that gathers rows, takes squared distances with ``einsum`` and pushes
them through a heap, which is the mix of numpy calls and interpreter work
the program's hot paths are made of.  The stretch's seconds are multiplied
by ``REFERENCE_S / mean(probe before, probe after)``: what the stretch would
have taken on a machine on which the probe takes ``REFERENCE_S``.  Measured
over 90 s across all three machine states, 0.6 s stretches had a coefficient
of variation of 14.9 % raw and 5.5 % scaled.

The kernel is part of the benchmark, not of the program, so no change to
``src/`` can move it; raw seconds stay in the result's detail, and
``bench.calib_ms`` is the median probe of the process.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: probe time of the usual state of the box this was written on, so that
#: scaled and raw seconds agree there
REFERENCE_S = 2.6e-3


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._points = rng.normal(size=(8000, 32)).astype(np.float32)
        self._rows = rng.integers(0, len(self._points), size=(300, 32))
        self.probes: list[float] = []

    def probe(self) -> float:
        """Run the kernel once; its host seconds.

        Once, and right after the stretch it closes: its data have then been
        pushed out of the caches by that stretch, and the cost of fetching
        them again is part of what a busy neighbour changes.  The median of
        three runs, two of them warm, tracked ``fit`` worse.
        """
        points, q = self._points, self._points[0]
        heap: list[float] = []
        t0 = time.perf_counter()
        for rows in self._rows:
            diff = points[rows] - q
            for d in np.einsum("ij,ij->i", diff, diff)[:8].tolist():
                heapq.heappush(heap, d)
            while len(heap) > 16:
                heapq.heappop(heap)
        seconds = time.perf_counter() - t0
        self.probes.append(seconds)
        return seconds

    def median_ms(self) -> float:
        return statistics.median(self.probes) * 1e3


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` as they would read on the reference machine."""
    return seconds * REFERENCE_S / ((probe_before + probe_after) / 2.0)
