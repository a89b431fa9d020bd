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
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.simmpi.engine import SimulationResult
from repro.simmpi.trace import aggregate_spans, aggregate_stats

__all__ = ["SearchReport", "ReportBuilder", "REPORT_SCHEMA", "REPORT_INSTRUMENTS"]

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

#: ``{report name: (kind, instrument)}`` — every scalar of a
#: :class:`SearchReport` that an instrument of the run's registry already
#: holds.  The report stores none of them: each name is a read-only property
#: over ``report.metrics`` (0 where the dump lacks the instrument), and this
#: table is the only place that knows which instrument backs which name.
#: What each one counts is in docs/observability.md, row for row.
REPORT_INSTRUMENTS: dict[str, tuple[str, str]] = {
    "tasks": ("counter", "coordinator.tasks_sent"),
    "task_messages": ("counter", "coordinator.batches_sent"),
    "n_events": ("counter", "sim.events"),
    # pipelined dispatch (zeros at dispatch_window == 0)
    "credit_stall_seconds": ("counter", "dispatch.credit_stall_seconds"),
    "max_outstanding_tasks": ("gauge", "dispatch.max_outstanding_tasks"),
    "credits_leaked": ("gauge", "dispatch.credits_leaked"),
    # fault tolerance (zeros on fault-free runs)
    "retries": ("counter", "faults.retries"),
    "failovers": ("counter", "faults.failovers"),
    "failed_tasks": ("counter", "faults.failed_tasks"),
    "duplicate_results": ("counter", "faults.duplicate_results"),
    # open-loop serving (zeros on closed-loop runs, or with the cache off)
    "offered_queries": ("counter", "serving.offered"),
    "admitted_queries": ("counter", "admission.admitted"),
    "shed_queries": ("counter", "admission.shed"),
    "rejected_queries": ("counter", "admission.rejected"),
    "max_ingress_depth": ("gauge", "admission.max_depth"),
    "cache_hits": ("counter", "cache.hits"),
    "cache_misses": ("counter", "cache.misses"),
    "cache_stale": ("counter", "cache.stale"),
    "cache_evictions": ("counter", "cache.evictions"),
    # filtered & multi-tenant search (zeros on unfiltered runs)
    "filtered_queries": ("counter", "filter.queries"),
    "filter_tasks_pre": ("counter", "filter.tasks_pre"),
    "filter_tasks_post": ("counter", "filter.tasks_post"),
    "filter_evals_pre": ("counter", "filter.evals_pre"),
    "filter_evals_post": ("counter", "filter.evals_post"),
    "filter_empty_tasks": ("counter", "filter.empty_tasks"),
    "tenant_queries": ("counter", "tenant.queries"),
}


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
    """Batch-search measurements (Figs. 3-5, Table III quantities).

    The fields are what no instrument holds — times, arrays, breakdowns.
    Every scalar count (``tasks``, ``cache_hits``, ``n_events``, ... — the
    names of :data:`REPORT_INSTRUMENTS`) is a read-only property over
    :attr:`metrics`, the run's registry dump.
    """

    #: total query time, virtual seconds (the paper's headline metric)
    total_seconds: float
    #: number of queries in the batch
    n_queries: int
    #: per-core dispatch counts (Fig. 4b's distribution)
    dispatch_counts: np.ndarray | None = None
    #: mean partitions visited per query
    mean_fanout: float = 0.0
    #: aggregate worker time breakdown {compute, send, recv, wait, rma}
    worker_breakdown: dict = field(default_factory=dict)
    #: aggregate master/owner time breakdown
    master_breakdown: dict = field(default_factory=dict)
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
    #: elapsed virtual seconds per pipeline phase, summed over all procs —
    #: keys always include :data:`~repro.simmpi.trace.PHASES`
    phase_breakdown: dict = field(default_factory=dict)
    # -- fault-tolerance measurements (empty / None on fault-free runs) --
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
    # -- open-loop serving measurements (None on closed-loop runs) --
    #: per-query serving timestamps on the virtual clock (NaN entries for
    #: shed/rejected queries).  In serving runs :attr:`query_latencies` is
    #: ``complete - arrival`` — the arrival-to-completion latency the SLO
    #: is judged on.
    arrival_times: np.ndarray | None = None
    dispatch_times: np.ndarray | None = None
    complete_times: np.ndarray | None = None
    #: the run's SLO target in virtual seconds (0 = no target set)
    slo_target_seconds: float = 0.0
    # -- filtered & multi-tenant search --
    #: recall of the filtered answers against brute force over the
    #: matching rows; filled by the eval/bench layer, 0.0 when unmeasured
    filtered_recall: float = 0.0
    #: tenant the run's queries belong to (-1 = single-tenant run)
    tenant_id: int = -1
    #: the run's metrics-registry dump (see repro.obs.metrics):
    #: {"counters": ..., "gauges": ..., "histograms": ...}
    metrics: dict = field(default_factory=dict)
    #: the run's :class:`~repro.obs.trace.TraceRecorder` when observability
    #: was enabled (None otherwise); excluded from :meth:`to_dict`
    trace: Any = field(default=None, repr=False, compare=False)

    # -- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> dict:
        """Strict-JSON-safe dict: numpy arrays become lists, NaN entries
        (shed/rejected queries) become None.  Carries the fields and, flat
        beside them, every :data:`REPORT_INSTRUMENTS` scalar (the schema-v1
        key set).  Round-trips via :meth:`from_dict`; the live ``trace``
        handle is excluded."""
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
        for name in REPORT_INSTRUMENTS:
            out[name] = _json_safe(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SearchReport":
        """Inverse of :meth:`to_dict` (None entries back to NaN).

        Reads the fields only: the flat scalar keys are derived from
        ``metrics`` and ignored, like any unknown key.  ``ValueError`` on a
        payload of another schema or one missing a required field.
        """
        if data.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"not a {REPORT_SCHEMA} payload: schema is {data.get('schema')!r}"
            )
        kwargs = {}
        for f in fields(cls):
            name = f.name
            if name == "trace":
                continue
            if name not in data:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise ValueError(f"search report payload has no {name!r}")
                continue
            value = data[name]
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
        comm = sum(w.get(x, 0.0) + m.get(x, 0.0) for x in ("send", "recv", "wait", "rma"))
        comp = w.get("compute", 0.0) + m.get("compute", 0.0)
        total = comm + comp
        return comm / total if total > 0 else 0.0


def _projected(kind: str, instrument: str) -> property:
    group = kind + "s"  # the dump's "counters" / "gauges" section

    def read(self):
        return self.metrics.get(group, {}).get(instrument, 0)

    return property(read, doc=f"The run's ``{instrument}`` {kind}, read from :attr:`metrics`.")


for _name, _backing in REPORT_INSTRUMENTS.items():
    setattr(SearchReport, _name, _projected(*_backing))

#: MasterReport arrays that are per query, so they compose only from a
#: single coordinator that saw the whole batch: the master.  Owners each
#: see only their slice (and one-sided results bypass the master, which
#: then leaves ``query_latencies`` None itself).
_PER_QUERY = (
    "query_latencies",
    "completeness",
    "queue_depth_timeline",
    "arrival_times",
    "dispatch_times",
    "complete_times",
)


class ReportBuilder:
    """Reduce one finished simulation to a :class:`SearchReport`.

    The coordinator procs (one master, or one owner per node) each return a
    :class:`~repro.core.coordinator.MasterReport` with the arrays only that
    proc could fill; everything else in the simulation is a worker thread.
    The builder composes those arrays, partitions the proc stats by pid,
    aggregates span times and dumps the run-wide registry every scalar was
    counted into — the same arithmetic for every strategy.
    """

    def __init__(
        self,
        out: SimulationResult,
        coordinator_pids: list[int],
        n_queries: int,
        metrics: MetricsRegistry,
        worker_cores: dict[int, int] | None = None,
        aux_pids: tuple = (),
        slo_target_seconds: float = 0.0,
        tenant_id: int = -1,
        trace=None,
    ) -> None:
        self.out = out
        self.coordinator_pids = list(coordinator_pids)
        self.n_queries = n_queries
        #: the run-wide MetricsRegistry: engine, coordinators, serving
        self.metrics = metrics
        #: worker pid -> simulated core id, for the per-core busy vector
        self.worker_cores = dict(worker_cores) if worker_cores else {}
        #: infrastructure procs (e.g. the serving arrival source) that are
        #: neither coordinator nor worker: excluded from worker stats so an
        #: arrival source idling between arrivals never skews the breakdown
        self.aux_pids = set(aux_pids)
        self.slo_target_seconds = float(slo_target_seconds)
        self.tenant_id = tenant_id
        #: the run's TraceRecorder, passed through to the report
        self.trace = trace

    def _core_busy(self) -> np.ndarray | None:
        """Observed busy seconds per core: compute plus active send/recv/
        RMA time, excluding blocked communication waits (a core waiting
        for work is idle, not loaded)."""
        if not self.worker_cores:
            return None
        busy = np.zeros(max(self.worker_cores.values()) + 1, dtype=np.float64)
        for pid, core in self.worker_cores.items():
            stats = self.out.stats.get(pid)
            if stats is not None:
                busy[core] += stats.busy_total - stats.comm_wait
        return busy

    def build(self) -> SearchReport:
        out, metrics = self.out, self.metrics
        coord = set(self.coordinator_pids)
        # a coordinator killed by an injected crash never returned a report
        creports = [r for r in (out.results[p] for p in self.coordinator_pids) if r is not None]
        worker_stats = [
            s for p, s in out.stats.items() if p not in coord and p not in self.aux_pids
        ]
        fanouts = [f for r in creports for f in r.fanouts]
        per_query = dict.fromkeys(_PER_QUERY)
        if len(creports) == 1:
            per_query = {name: getattr(creports[0], name) for name in _PER_QUERY}
        elif not creports:  # every coordinator crashed: nothing was answered
            per_query["completeness"] = np.zeros(self.n_queries)
        latencies = per_query["query_latencies"]
        if latencies is not None:
            hist = metrics.histogram("query.latency_seconds")
            for lat in latencies[np.isfinite(latencies)]:
                hist.observe(float(lat))
        # every projected name has its instrument in the dump, so a run
        # that never touched one exports an explicit 0
        for kind, instrument in REPORT_INSTRUMENTS.values():
            getattr(metrics, kind)(instrument)
        return SearchReport(
            total_seconds=out.makespan,
            n_queries=self.n_queries,
            dispatch_counts=(
                np.sum([r.dispatch_counts for r in creports], axis=0) if creports else None
            ),
            mean_fanout=float(np.mean(fanouts)) if fanouts else 0.0,
            worker_breakdown=aggregate_stats(worker_stats),
            master_breakdown=aggregate_stats([out.stats[p] for p in self.coordinator_pids]),
            phase_breakdown=aggregate_spans(list(out.stats.values())),
            core_busy_seconds=self._core_busy(),
            suspected_dead_cores=sorted({c for r in creports for c in r.suspected_dead_cores}),
            fault_events=tuple(out.fault_events),
            crashed_pids=tuple(out.crashed_pids),
            slo_target_seconds=self.slo_target_seconds,
            tenant_id=self.tenant_id,
            metrics=metrics.dump(),
            trace=self.trace,
            **per_query,
        )
