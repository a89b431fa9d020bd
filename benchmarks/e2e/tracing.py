"""Host-clock spans recorded from outside the program.

Nothing under ``src/`` knows about these spans.  The benchmark passes
proxies *into* ``ClusterRuntime.run_search`` — a router and a searcher
that time the calls made through them — and wraps the run method of that
runtime's own ``Simulation`` instance.  A span is
``[name, start, end, parent, batch]`` with ``parent`` an index into the
same list (-1 for a root).  The program is single-threaded and its
coroutines are driven from inside ``Simulation.run``, so a plain stack
gives the parent.
"""

from __future__ import annotations

import time

from repro import ClusterRuntime
from repro.runtime import strategy_for

NAME, START, END, PARENT, BATCH = range(5)

ROOT_SPAN = "runtime.run_search"
SIM_SPAN = "simmpi.run"
ROUTE_SPAN = "vptree.route"
SEARCH_SPAN = "core.searcher"


class SpanRecorder:
    """Spans kept in memory until the benchmark writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.batch = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.batch])
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def call(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return call


class _Proxy:
    """Times ``TIMED`` methods of ``inner``; delegates every other attribute."""

    TIMED: tuple = ()
    SPAN = ""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        for method in self.TIMED:
            fn = getattr(inner, method, None)
            if fn is not None:  # the program probes for optional methods
                setattr(self, method, recorder.timed(self.SPAN, fn))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TimedRouter(_Proxy):
    TIMED = ("route_approx", "route_exact")
    SPAN = ROUTE_SPAN


class TimedSearcher(_Proxy):
    TIMED = ("search", "search_batch", "search_filtered", "search_filtered_batch")
    SPAN = SEARCH_SPAN


def cluster_parts(ann):
    """(router, workgroups, node_stores, build metrics) of a fitted system.

    ``DistributedANN`` hands these to ``ClusterRuntime.run_search`` itself
    and offers no public accessor for the last three, so this is the one
    place the benchmark reads a private attribute.
    """
    build = ann._build
    return build.router, build.workgroups, build.node_stores, build.metrics


def run_search(cfg, parts, searcher, Q, k, fpayload, recorder: SpanRecorder):
    """One batch through ``ClusterRuntime.run_search``, as ``ann.query`` runs it.

    The root span covers what ``ann.query`` does per call: building the
    runtime (and its ``Simulation``), the run, and the report.  Inside it
    ``Simulation.run``, every route and every local search are spans.
    """
    router, workgroups, node_stores, build_metrics = parts
    root = recorder.begin(ROOT_SPAN)
    try:
        runtime = ClusterRuntime(cfg)
        if build_metrics is not None:
            runtime.metrics.merge(build_metrics)
        runtime.sim.run = recorder.timed(SIM_SPAN, runtime.sim.run)
        return runtime.run_search(
            strategy_for(cfg),
            TimedRouter(router, recorder),
            workgroups,
            node_stores,
            TimedSearcher(searcher, recorder),
            Q,
            k,
            fpayload=fpayload,
        )
    finally:
        recorder.end(root)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def totals_by_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {"total": s, "self": s, "calls": n}}`` over all spans."""
    totals: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(s[NAME], {"total": 0.0, "self": 0.0, "calls": 0})
        t["total"] += s[END] - s[START]
        t["self"] += self_s
        t["calls"] += 1
    return totals
