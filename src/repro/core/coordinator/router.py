"""Routing with cost accounting, shared by every coordinator path.

The coordinator routes each query through the VP-tree skeleton (or any
object exposing ``route_approx`` / ``route_exact`` / ``n_dist_evals`` —
the KD baseline router qualifies) and must charge the routing distance
evaluations to the simulation clock under a ``route`` span.  Both master
variants used to inline this triple (span, route, compute) — it lives
here once now.
"""

from __future__ import annotations

import numpy as np

from repro.core.coordinator.report import MasterReport
from repro.simmpi.engine import Context

__all__ = ["Router"]


class Router:
    """VP-tree routing plus route-cost accounting for one batch.

    Wraps the partition router and the batch's :class:`MasterReport`:
    every call runs under a ``route`` span, charges
    ``cost.distance_cost`` for exactly the distance evaluations the
    inner router performed, and accumulates ``report.route_dist_evals``
    — the same yield sequence the pre-refactor masters produced.
    ``traced``, whether the run records a trace, is read once when the
    run is set up; the coordinators around the router read it here too.
    """

    def __init__(self, inner, report: MasterReport, dim: int, traced: bool) -> None:
        self.inner = inner
        self.report = report
        self.dim = dim
        self.traced = traced

    def _route(self, ctx: Context, query_id, route, *args):
        # one frame: the span by hand, its attributes only when traced
        start = ctx.span_begin("route", {"query_id": query_id} if self.traced else None)
        try:
            before = self.inner.n_dist_evals
            parts = route(*args)
            evals = self.inner.n_dist_evals - before
            self.report.route_dist_evals += evals
            yield ctx.compute_op(ctx.cost.distance_cost(evals, self.dim), "route")
        finally:
            ctx.span_end("route", start)
        return parts

    def route_approx(self, ctx: Context, q: np.ndarray, n_probe: int, query_id=None):
        """Best-first ``n_probe`` partitions for ``q`` (Alg. 3 line 4)."""
        return self._route(ctx, query_id, self.inner.route_approx, q, n_probe)

    def route_exact(self, ctx: Context, q: np.ndarray, tau: float, drop=None, query_id=None):
        """Exact ball route for the adaptive second wave.

        ``drop`` removes the already-probed pilot partition from the
        returned set (the distance evaluations are still charged — the
        router visited them either way).
        """
        parts = yield from self._route(ctx, query_id, self.inner.route_exact, q, tau)
        return parts if drop is None else [p for p in parts if p != drop]
