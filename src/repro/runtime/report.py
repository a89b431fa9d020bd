"""Uniform search reporting for every dispatch strategy.

:class:`SearchReport` is the public measurement record a batch search
returns (Figs. 3-5, Table III quantities).  :class:`ReportBuilder` is the
single place that assembles it from a finished
:class:`~repro.simmpi.engine.SimulationResult` — identically for
master-worker two-sided, master-worker one-sided, and multiple-owner runs —
so report semantics can never drift between strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.simmpi.engine import SimulationResult
from repro.simmpi.trace import aggregate_spans, aggregate_stats

__all__ = ["SearchReport", "ReportBuilder", "REPORT_SCHEMA"]

#: schema version stamped on SearchReport.to_dict() payloads
REPORT_SCHEMA = "repro.search_report/v1"

# array-valued SearchReport fields and how from_dict() rebuilds them
_INT_ARRAY_FIELDS = ("dispatch_counts",)
_FLOAT_ARRAY_FIELDS = (
    "query_latencies",
    "core_busy_seconds",
    "completeness",
    "arrival_times",
    "dispatch_times",
    "complete_times",
)
_FLOAT_ARRAY_2D_FIELDS = ("queue_depth_timeline",)


def _json_safe(value):
    """Recursively convert to strict-JSON-safe python: numpy scalars to
    builtins, non-finite floats (NaN rows of shed queries) to None."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _float_array(values, ndim: int = 1) -> np.ndarray:
    """Rebuild a float array from a JSON list, None entries -> NaN."""
    if ndim == 2:
        rows = [[math.nan if x is None else float(x) for x in row] for row in values]
        return np.asarray(rows, dtype=np.float64).reshape(-1, 2)
    return np.asarray(
        [math.nan if x is None else float(x) for x in values], dtype=np.float64
    )


@dataclass
class SearchReport:
    """Batch-search measurements (Figs. 3-5, Table III quantities)."""

    #: total query time, virtual seconds (the paper's headline metric)
    total_seconds: float
    #: number of queries in the batch
    n_queries: int
    #: tasks dispatched (sum over queries of partition fan-out)
    tasks: int
    #: task *messages* sent; equals ``tasks`` at batch_size 1 and shrinks
    #: toward ``tasks / batch_size`` as dispatch batching kicks in
    task_messages: int = 0
    #: per-core dispatch counts (Fig. 4b's distribution)
    dispatch_counts: np.ndarray | None = None
    #: mean partitions visited per query
    mean_fanout: float = 0.0
    #: aggregate worker time breakdown {compute, send, recv, wait, poll, rma}
    worker_breakdown: dict = field(default_factory=dict)
    #: aggregate master/owner time breakdown
    master_breakdown: dict = field(default_factory=dict)
    #: engine events processed (simulation diagnostics)
    n_events: int = 0
    #: per-query completion latencies in virtual seconds (two-sided
    #: master-worker mode only; None when results return one-sided or when
    #: multiple owners each observe only their own slice)
    query_latencies: np.ndarray | None = None
    # -- load-balance measurements (see repro.loadbalance) --
    #: observed busy virtual seconds per core — each worker thread's
    #: compute + active communication time (blocked waits excluded), the
    #: quantity whose max/mean is :attr:`imbalance_factor`.  Threads of one
    #: node share a task queue, so with cores_per_node > 1 imbalance shows
    #: at node granularity.
    core_busy_seconds: np.ndarray | None = None
    #: (virtual time, total modeled queued tasks) samples from the master's
    #: LoadTracker — queue depth over virtual time; None when no single
    #: dispatcher observed the whole batch.  One sample per dispatch on
    #: small runs; capped/downsampled on large ones (see
    #: LoadTracker.max_timeline_samples and docs/load_balancing.md)
    queue_depth_timeline: np.ndarray | None = None
    # -- pipelined dispatch measurements (zeros at dispatch_window == 0) --
    #: virtual seconds the coordinator spent blocked on dispatch credits
    credit_stall_seconds: float = 0.0
    #: peak tasks simultaneously in flight under credit accounting
    max_outstanding_tasks: int = 0
    #: dispatch credits still charged when the run ended — 0 on a correct
    #: run (failover must reclaim a crashed worker's credits)
    credits_leaked: int = 0
    #: elapsed virtual seconds per pipeline phase, summed over all procs —
    #: keys always include :data:`~repro.simmpi.trace.PHASES`
    phase_breakdown: dict = field(default_factory=dict)
    # -- fault-tolerance measurements (zeros / None on fault-free runs) --
    #: re-dispatches to the same core after a task timeout
    retries: int = 0
    #: re-dispatches to a different replica after a task timeout
    failovers: int = 0
    #: tasks abandoned after exhausting attempts / live replicas
    failed_tasks: int = 0
    #: late or duplicated results dropped by the dedup at the master
    duplicate_results: int = 0
    #: cores the dispatcher suspected dead (repeated timeouts)
    suspected_dead_cores: list = field(default_factory=list)
    #: per-query fraction of routed partitions that answered, in [0, 1];
    #: None unless the fault-tolerant dispatcher ran
    completeness: np.ndarray | None = None
    #: injected fault events ((virtual time, kind, detail) tuples) recorded
    #: by the FaultInjector during the run
    fault_events: tuple = ()
    #: pids killed by injected rank crashes
    crashed_pids: tuple = ()
    # -- open-loop serving measurements (zeros / None on closed-loop runs) --
    #: queries the arrival process offered to the serving ingress
    offered_queries: int = 0
    #: queries that entered service (includes cache hits)
    admitted_queries: int = 0
    #: queued queries dropped by the shed-oldest overload policy
    shed_queries: int = 0
    #: arrivals refused outright by the reject overload policy
    rejected_queries: int = 0
    #: peak ingress-queue occupancy during the run
    max_ingress_depth: int = 0
    #: hot-query result cache counters (zeros when the cache was off)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    cache_evictions: int = 0
    #: per-query serving timestamps on the virtual clock (None on
    #: closed-loop runs; NaN entries for shed/rejected queries).  In
    #: serving runs :attr:`query_latencies` is ``complete - arrival`` —
    #: the arrival-to-completion latency the SLO is judged on.
    arrival_times: np.ndarray | None = None
    dispatch_times: np.ndarray | None = None
    complete_times: np.ndarray | None = None
    #: the run's SLO target in virtual seconds (0 = no target set)
    slo_target_seconds: float = 0.0
    # -- filtered & multi-tenant search (zeros on unfiltered runs) --
    #: queries that carried a filter predicate (the filter is per-run, so
    #: this is the whole batch or zero)
    filtered_queries: int = 0
    #: filtered tasks answered by brute force over the matching rows
    #: (the low-selectivity "pre" strategy)
    filter_tasks_pre: int = 0
    #: filtered tasks answered by filtered graph traversal (the
    #: high-selectivity "post" strategy)
    filter_tasks_post: int = 0
    #: distance evaluations charged by pre-strategy (brute-force) tasks
    filter_evals_pre: int = 0
    #: distance evaluations charged by post-strategy (traversal) tasks
    filter_evals_post: int = 0
    #: filtered tasks whose partition held no matching row at all
    filter_empty_tasks: int = 0
    #: recall of the filtered answers against brute force over the
    #: matching rows; filled by the eval/bench layer, 0.0 when unmeasured
    filtered_recall: float = 0.0
    #: tenant the run's queries belong to (-1 = single-tenant run)
    tenant_id: int = -1
    #: queries served under that tenant (0 when ``tenant_id`` is -1)
    tenant_queries: int = 0
    #: unified metrics-registry dump for the run (see repro.obs.metrics):
    #: {"counters": ..., "gauges": ..., "histograms": ...}
    metrics: dict = field(default_factory=dict)
    #: the run's :class:`~repro.obs.trace.TraceRecorder` when observability
    #: was enabled (None otherwise); excluded from :meth:`to_dict`
    trace: Any = field(default=None, repr=False, compare=False)

    # -- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> dict:
        """Strict-JSON-safe dict: numpy arrays become lists, NaN entries
        (shed/rejected queries) become None.  Round-trips via
        :meth:`from_dict`; the live ``trace`` handle is excluded."""
        out: dict = {"schema": REPORT_SCHEMA}
        for f in fields(self):
            if f.name == "trace":
                continue
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif f.name == "fault_events":
                value = [
                    {"time": e.time, "kind": e.kind, "detail": dict(e.detail)}
                    for e in value
                ]
            out[f.name] = _json_safe(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SearchReport":
        """Inverse of :meth:`to_dict` (None entries back to NaN)."""
        known = {f.name for f in fields(cls)} - {"trace"}
        kwargs = {}
        for name, value in data.items():
            if name not in known:
                continue
            if value is not None:
                if name in _INT_ARRAY_FIELDS:
                    value = np.asarray(value, dtype=np.int64)
                elif name in _FLOAT_ARRAY_FIELDS:
                    value = _float_array(value)
                elif name in _FLOAT_ARRAY_2D_FIELDS:
                    value = _float_array(value, ndim=2)
                elif name == "fault_events":
                    from repro.faults.injector import FaultEvent

                    value = tuple(
                        FaultEvent(
                            time=e["time"], kind=e["kind"], detail=e.get("detail") or {}
                        )
                        for e in value
                    )
                elif name == "crashed_pids":
                    value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    @property
    def queue_seconds(self) -> np.ndarray | None:
        """Per-query time-in-queue (arrival to service start), serving only."""
        if self.arrival_times is None or self.dispatch_times is None:
            return None
        return self.dispatch_times - self.arrival_times

    @property
    def service_seconds(self) -> np.ndarray | None:
        """Per-query time-in-service (service start to completion), serving only."""
        if self.dispatch_times is None or self.complete_times is None:
            return None
        return self.complete_times - self.dispatch_times

    @property
    def slo_violation_fraction(self) -> float:
        """Fraction of *offered* queries that missed the SLO.

        A query violates by completing slower than the target **or** by
        never completing at all (shed / rejected) — a dropped query is a
        violation from the client's side of the wire.  0.0 when no
        target was set or the run was closed-loop.
        """
        if self.slo_target_seconds <= 0.0 or self.offered_queries == 0:
            return 0.0
        lat = self.query_latencies
        late = 0
        if lat is not None:
            late = int(np.sum(lat[np.isfinite(lat)] > self.slo_target_seconds))
        return (late + self.shed_queries + self.rejected_queries) / self.offered_queries

    @property
    def availability(self) -> float:
        """Fraction of queries answered with full completeness (1.0 when no
        fault-tolerant accounting was active)."""
        if self.completeness is None or len(self.completeness) == 0:
            return 1.0
        return float(np.mean(self.completeness >= 1.0))

    @property
    def degraded_queries(self) -> int:
        """Number of queries flagged partial (completeness < 1)."""
        if self.completeness is None:
            return 0
        return int(np.sum(self.completeness < 1.0))

    @property
    def imbalance_factor(self) -> float:
        """Max/mean observed per-core busy time — 1.0 is perfect balance;
        the straggler factor that bounds the batch makespan (Fig. 4's
        quantity, measured in time rather than task counts)."""
        if self.core_busy_seconds is None or len(self.core_busy_seconds) == 0:
            return 1.0
        mean = float(np.mean(self.core_busy_seconds))
        if mean <= 0.0:
            return 1.0
        return float(np.max(self.core_busy_seconds)) / mean

    @property
    def throughput(self) -> float:
        """Queries per virtual second (0.0 for a degenerate zero-time run)."""
        if self.total_seconds > 0:
            return self.n_queries / self.total_seconds
        return 0.0

    @property
    def comm_fraction(self) -> float:
        """Fraction of summed busy time attributable to communication —
        the quantity Fig. 5 plots."""
        w = self.worker_breakdown
        m = self.master_breakdown
        comm = sum(w.get(x, 0.0) + m.get(x, 0.0) for x in ("send", "recv", "wait", "poll", "rma"))
        comp = w.get("compute", 0.0) + m.get("compute", 0.0)
        total = comm + comp
        return comm / total if total > 0 else 0.0


class ReportBuilder:
    """Reduce one finished simulation to a :class:`SearchReport`.

    The coordinator procs (one master, or one owner per node) each return a
    :class:`~repro.core.coordinator.MasterReport`; everything else in the
    simulation is a worker thread.  The builder sums coordinator reports,
    partitions the proc stats by pid, and aggregates span times — the same
    arithmetic for every strategy.
    """

    def __init__(
        self,
        out: SimulationResult,
        coordinator_pids: list[int],
        n_queries: int,
        worker_cores: dict[int, int] | None = None,
        aux_pids: tuple = (),
        slo_target_seconds: float = 0.0,
        metrics=None,
        trace=None,
    ) -> None:
        self.out = out
        self.coordinator_pids = list(coordinator_pids)
        self.n_queries = n_queries
        #: worker pid -> simulated core id, for the per-core busy vector
        self.worker_cores = dict(worker_cores) if worker_cores else {}
        #: infrastructure procs (e.g. the serving arrival source) that are
        #: neither coordinator nor worker: excluded from worker stats so an
        #: arrival source idling between arrivals never skews the breakdown
        self.aux_pids = set(aux_pids)
        self.slo_target_seconds = float(slo_target_seconds)
        #: the run-wide MetricsRegistry (engine + shared coordinator counts)
        self.metrics = metrics
        #: the run's TraceRecorder, passed through to the report
        self.trace = trace

    def _finish(self, report: SearchReport, creports: list) -> SearchReport:
        """Attach the unified observability artifacts to a built report.

        Distinct registries (the run-wide one plus any private
        per-coordinator ones, deduplicated by identity — the master-worker
        strategy shares a single registry, the owners each carry their own)
        merge into one dump, and per-query latencies feed the latency
        histogram."""
        merged = MetricsRegistry()
        seen: set[int] = set()
        for registry in [self.metrics] + [getattr(r, "registry", None) for r in creports]:
            if registry is None or id(registry) in seen:
                continue
            seen.add(id(registry))
            merged.merge(registry)
        if report.query_latencies is not None:
            hist = merged.histogram("query.latency_seconds")
            for lat in report.query_latencies:
                if np.isfinite(lat):
                    hist.observe(float(lat))
        report.metrics = merged.dump()
        report.trace = self.trace
        return report

    def _core_busy(self) -> np.ndarray | None:
        """Observed busy seconds per core: compute plus active send/recv/
        poll/RMA time, excluding blocked communication waits (a core
        waiting for work is idle, not loaded)."""
        if not self.worker_cores:
            return None
        busy = np.zeros(max(self.worker_cores.values()) + 1, dtype=np.float64)
        for pid, core in self.worker_cores.items():
            stats = self.out.stats.get(pid)
            if stats is not None:
                busy[core] += stats.busy_total - stats.comm_wait
        return busy

    def build(self) -> SearchReport:
        out = self.out
        coord = set(self.coordinator_pids)
        # a coordinator killed by an injected crash never returned a report
        creports = [r for r in (out.results[p] for p in self.coordinator_pids) if r is not None]
        coord_stats = [out.stats[p] for p in self.coordinator_pids]
        worker_stats = [
            s for p, s in out.stats.items() if p not in coord and p not in self.aux_pids
        ]

        if not creports:  # every coordinator crashed: nothing was answered
            return self._finish(SearchReport(
                total_seconds=out.makespan,
                n_queries=self.n_queries,
                tasks=0,
                dispatch_counts=None,
                worker_breakdown=aggregate_stats(worker_stats),
                master_breakdown=aggregate_stats(coord_stats),
                n_events=out.n_events,
                phase_breakdown=aggregate_spans(list(out.stats.values())),
                core_busy_seconds=self._core_busy(),
                completeness=np.zeros(self.n_queries),
                fault_events=tuple(out.fault_events),
                crashed_pids=tuple(out.crashed_pids),
            ), creports)

        tasks = sum(r.tasks_sent for r in creports)
        task_messages = sum(r.batches_sent for r in creports)
        counts = np.sum([r.dispatch_counts for r in creports], axis=0)
        fanouts = [f for r in creports for f in r.fanouts]
        # per-query latency is only observable when a single coordinator saw
        # every result land (the two-sided master); owners each see only
        # their own slice and one-sided results bypass the master entirely
        latencies = creports[0].query_latencies if len(creports) == 1 else None
        # completeness is per-query, so it only composes from a single
        # coordinator (the fault-tolerant master)
        completeness = creports[0].completeness if len(creports) == 1 else None
        # the queue-depth timeline likewise requires one dispatcher having
        # observed every dispatch (owners each see only their slice)
        timeline = (
            getattr(creports[0], "queue_depth_timeline", None) if len(creports) == 1 else None
        )

        return self._finish(SearchReport(
            total_seconds=out.makespan,
            n_queries=self.n_queries,
            tasks=int(tasks),
            task_messages=int(task_messages),
            dispatch_counts=counts,
            mean_fanout=float(np.mean(fanouts)) if fanouts else 0.0,
            worker_breakdown=aggregate_stats(worker_stats),
            master_breakdown=aggregate_stats(coord_stats),
            n_events=out.n_events,
            query_latencies=latencies,
            phase_breakdown=aggregate_spans(list(out.stats.values())),
            core_busy_seconds=self._core_busy(),
            queue_depth_timeline=timeline,
            credit_stall_seconds=sum(
                getattr(r, "credit_stall_seconds", 0.0) for r in creports
            ),
            max_outstanding_tasks=max(
                getattr(r, "max_outstanding_tasks", 0) for r in creports
            ),
            credits_leaked=sum(getattr(r, "credits_leaked", 0) for r in creports),
            retries=sum(r.retries for r in creports),
            failovers=sum(r.failovers for r in creports),
            failed_tasks=sum(r.failed_tasks for r in creports),
            duplicate_results=sum(r.duplicate_results for r in creports),
            suspected_dead_cores=sorted(
                {c for r in creports for c in r.suspected_dead_cores}
            ),
            completeness=completeness,
            fault_events=tuple(out.fault_events),
            crashed_pids=tuple(out.crashed_pids),
            offered_queries=sum(getattr(r, "offered_queries", 0) for r in creports),
            admitted_queries=sum(getattr(r, "admitted_queries", 0) for r in creports),
            shed_queries=sum(getattr(r, "shed_queries", 0) for r in creports),
            rejected_queries=sum(getattr(r, "rejected_queries", 0) for r in creports),
            max_ingress_depth=max(
                (getattr(r, "max_ingress_depth", 0) for r in creports), default=0
            ),
            cache_hits=sum(getattr(r, "cache_hits", 0) for r in creports),
            cache_misses=sum(getattr(r, "cache_misses", 0) for r in creports),
            cache_stale=sum(getattr(r, "cache_stale", 0) for r in creports),
            cache_evictions=sum(getattr(r, "cache_evictions", 0) for r in creports),
            arrival_times=(
                getattr(creports[0], "arrival_times", None) if len(creports) == 1 else None
            ),
            dispatch_times=(
                getattr(creports[0], "dispatch_times", None) if len(creports) == 1 else None
            ),
            complete_times=(
                getattr(creports[0], "complete_times", None) if len(creports) == 1 else None
            ),
            slo_target_seconds=self.slo_target_seconds,
        ), creports)
