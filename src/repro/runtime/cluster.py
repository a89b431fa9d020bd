"""The ClusterRuntime: one simulated batch search, any dispatch strategy.

This is the single orchestration entrypoint every query mode routes
through — the VP+HNSW system's master-worker and multiple-owner modes and
the KD-tree baseline alike.  The runtime owns everything the three
hand-rolled copies used to duplicate:

- building the :class:`~repro.simmpi.engine.Simulation` from the config's
  network and cost models,
- one shared mailbox per compute node (the intra-node work queue),
- workgroup round-robin reset (so repeated batches are independent),
- spawning ``threads_per_node`` worker procs per node with the strategy's
  wiring (control mailbox + optional RMA window),
- running the simulation and reducing it to ``(D, I, SearchReport)`` via
  the shared :class:`~repro.runtime.report.ReportBuilder`.

Query batching (``config.batch_size``) needs no runtime wiring: the master
buffers per-partition dispatch into batch tasks and the workers answer
them with one local ``knn_search_batch`` per message, so at batch size B
the fabric carries ~B× fewer task/result messages while every row's
results and virtual search cost stay identical to the unbatched run (at
B = 1 the wire traffic is byte-identical).

A runtime instance is single-shot, like the Simulation it owns: construct,
``run_search`` once, read the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import SystemConfig
from repro.core.partition import NodeStore, Partition
from repro.core.replication import Workgroups
from repro.core.results import GlobalResults
from repro.core.searcher import LocalSearcher
from repro.core.worker import worker_thread_program
from repro.faults.injector import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.runtime.report import ReportBuilder, SearchReport
from repro.runtime.strategies import DispatchStrategy
from repro.simmpi.engine import Event, Simulation

__all__ = ["ClusterRuntime", "SearchJob"]


class _RowLoop:
    """The batched :class:`LocalSearcher` call over a one-row searcher.

    Each row is exactly what ``inner.search`` returns for that query and
    the virtual seconds are summed in row order, so neither batching nor
    this adaptation changes a result or a charged second — only how many
    python calls and simulated messages carry them.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    def search_batch(self, partition: Partition, Q: np.ndarray, k: int, filter=None):  # noqa: A002
        ds: list[np.ndarray] = []
        idss: list[np.ndarray] = []
        seconds = 0.0
        for q in Q:
            d, ids, s = self.inner.search(partition, q, k)
            ds.append(d)
            idss.append(ids)
            seconds += s
        return ds, idss, seconds


def _batched(searcher, fpayload: dict | None):
    """``searcher`` as the workers call it: itself when it has the batched
    ``search_batch`` call, else its one-row ``search`` behind a row loop —
    which cannot filter, so a filtered run is refused here, before the
    simulation starts, rather than from inside a worker coroutine."""
    if hasattr(searcher, "search_batch"):
        return searcher
    if fpayload is not None:
        raise TypeError(
            f"{type(searcher).__name__} has no search_batch(partition, Q, k, filter=); "
            "filtered queries need a searcher implementing the batched "
            "LocalSearcher call"
        )
    return _RowLoop(searcher)


@dataclass
class SearchJob:
    """Everything one batch search needs besides the cluster itself.

    ``router`` must expose ``route_approx(q, n_probe)``, ``route_exact(q,
    tau)`` and an ``n_dist_evals`` counter — both the VP and the KD
    partition routers qualify.
    """

    router: Any
    workgroups: Workgroups
    node_stores: dict[int, NodeStore]
    searcher: LocalSearcher
    Q: np.ndarray
    k: int
    #: filled in by the runtime before the strategy installs
    results: GlobalResults | None = None
    #: the run's pushed-down filter description ({"clauses": [...],
    #: "strategy": ...}); None = unfiltered, bit-identical wire traffic
    fpayload: dict | None = None


class ClusterRuntime:
    """Owns simulation setup and the run/reduce cycle of one batch search."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.faults = FaultInjector(config.fault_spec) if config.fault_spec is not None else None
        #: run-wide metrics registry: the engine, every coordinator and owner,
        #: the load tracker and the serving layer all count into this one
        #: set of books, and the report reads its scalars back out of it
        self.metrics = MetricsRegistry()
        #: per-query distributed trace recorder, attached only when the
        #: config asks for observability output (recording is bit-identity-
        #: neutral either way; the gate just avoids the bookkeeping cost)
        self.recorder = TraceRecorder() if config.trace_enabled else None
        self.sim = Simulation(
            network=config.network,
            cost=config.cost,
            faults=self.faults,
            recorder=self.recorder,
            metrics=self.metrics,
        )
        self.node_mailboxes = [
            self.sim.new_mailbox(f"node{n}", node=n) for n in range(config.n_nodes)
        ]

    def run_search(
        self,
        strategy: DispatchStrategy,
        router: Any,
        workgroups: Workgroups,
        node_stores: dict[int, NodeStore],
        searcher: LocalSearcher,
        Q: np.ndarray,
        k: int,
        *,
        fpayload: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SearchReport]:
        """Simulate one batch search under ``strategy``; returns (D, I, report).

        ``fpayload`` is the run's filter description (see
        :mod:`repro.filtering`): every task message carries it to the
        workers, which pass it to ``search_batch(filter=)`` — so it needs
        a searcher with that call, not a one-row one (``TypeError``).
        None leaves every message and result bit-identical to the
        pre-filtering wire.
        """
        cfg = self.config
        worker_searcher = _batched(searcher, fpayload)
        workgroups.reset()
        job = SearchJob(
            router=router,
            workgroups=workgroups,
            node_stores=node_stores,
            searcher=searcher,
            Q=Q,
            k=k,
            results=GlobalResults(len(Q), k),
            fpayload=fpayload,
        )
        # searcher filter counters are cumulative across runs on a shared
        # instance; snapshot so the report carries this run's delta only
        fstats_before = dict(getattr(searcher, "filter_stats", None) or {})
        # coordinators first, workers second: registration order is the
        # engine's deterministic tie-break, so it is part of the contract
        strategy.install(self, job)
        worker_cores: dict[int, int] = {}
        for node in range(cfg.n_nodes):
            done = Event()
            control_mailbox, window = strategy.worker_wiring(self, node)
            store = node_stores[node]
            # this node's simulated cores; on a partial last node the extra
            # threads fold onto the valid cores round-robin so the per-core
            # busy vector stays length n_cores with nothing dropped
            cores = range(node * cfg.cores_per_node, min((node + 1) * cfg.cores_per_node, cfg.n_cores))
            # one-sided workers return dispatch credits only when the
            # coordinator runs flow-controlled (two-sided results are their
            # own credit return, so no extra traffic there)
            send_credits = window is not None and cfg.dispatch_window > 0
            for t in range(cfg.threads_per_node):
                pid = self.sim.add_proc(
                    worker_thread_program,
                    self.node_mailboxes[node],
                    store,
                    worker_searcher,
                    k,
                    done,
                    control_mailbox,
                    window,
                    send_credits,
                    node=node,
                    name=f"worker_n{node}_t{t}",
                )
                worker_cores[pid] = cores[t % len(cores)]

        out = self.sim.run()
        D, I = job.results.result_arrays()
        # the run's filter/tenant accounting goes into the registry before
        # the builder dumps it into report.metrics.  The resolved tenant
        # rides the filter payload (per-call tenant= overrides the config's);
        # a bare config tenant with no payload still tags.
        tenant = fpayload.get("tenant") if fpayload is not None else cfg.tenant
        if tenant is not None:
            self.metrics.counter("tenant.queries").inc(len(Q))
        if fpayload is not None:
            self.metrics.counter("filter.queries").inc(len(Q))
            fstats = getattr(searcher, "filter_stats", None) or {}
            for name, value in fstats.items():
                # filter_tasks_pre -> the "filter.tasks_pre" instrument
                self.metrics.counter("filter." + name[len("filter_"):]).inc(
                    int(value) - int(fstats_before.get(name, 0))
                )
        report = ReportBuilder(
            out,
            strategy.coordinator_pids,
            len(Q),
            self.metrics,
            worker_cores=worker_cores,
            aux_pids=getattr(strategy, "aux_pids", ()),
            slo_target_seconds=cfg.slo_ms / 1e3,
            tenant_id=-1 if tenant is None else int(tenant),
            trace=self.recorder,
        ).build()
        return D, I, report
