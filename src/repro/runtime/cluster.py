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
  wiring (control mailbox + optional RMA window) in each node's
  :class:`~repro.core.worker.NodeWiring`,
- running the simulation and reducing it to ``(D, I, SearchReport)`` via
  the shared :class:`~repro.runtime.report.ReportBuilder`.

Query batching (``config.batch_size``) needs no runtime wiring: the master
buffers per-partition dispatch into batch tasks and the workers answer
them with one local ``knn_search_batch`` per message, so at batch size B
the fabric carries ~B× fewer task/result messages while every row's
results and virtual search cost stay identical to the unbatched run (at
B = 1 the wire traffic is byte-identical).

A runtime is single-shot by default, like the Simulation it owns:
construct, ``run_search`` once, read the report.  Built with
``keep_threads=True`` it is a *session* (what a fitted ``DistributedANN``
keeps): its thread procs park at the end of a call, and :meth:`rearm`
readies it for the next call under any config with the same
:func:`wiring_key`.  Only the coordinator procs, and threads a crash
killed, get new programs; every other proc, mailbox and context is the
one the first call registered.  A call on a session repeats a fresh
runtime's call exactly — answers, clocks, stats and event count.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import SystemConfig
from repro.core.partition import NodeStore, Partition
from repro.core.replication import Workgroups
from repro.core.results import GlobalResults
from repro.core.searcher import LocalSearcher
from repro.core.worker import NodeWiring, worker_thread_program
from repro.faults.injector import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.runtime.report import ReportBuilder, SearchReport
from repro.runtime.strategies import DispatchStrategy
from repro.simmpi.engine import Event, Simulation

__all__ = ["ClusterRuntime", "SearchJob", "wiring_key"]


def wiring_key(config: SystemConfig) -> tuple:
    """What lays out a runtime's procs and wires them: two configs with
    the same key can share a session, whatever else (seed, costs, k,
    filters...) differs between them."""
    return (
        config.n_cores,
        config.cores_per_node,
        config.threads_per_node,
        config.one_sided,
        config.dispatch_window > 0,
        config.owner_strategy,
        config.fault_spec is not None or config.fault_policy is not None,
        config.arrival is not None,
        config.trace_enabled,
    )


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
    """Owns simulation setup and the run/reduce cycle of a batch search
    (of many, as a session)."""

    def __init__(self, config: SystemConfig, *, keep_threads: bool = False) -> None:
        self.config = config
        self._arm(config)
        self.sim = Simulation(
            network=config.network,
            cost=config.cost,
            faults=self.faults,
            recorder=self.recorder,
            metrics=self.metrics,
            keep_procs=keep_threads,
        )
        self.node_mailboxes = [
            self.sim.new_mailbox(f"node{n}", node=n) for n in range(config.n_nodes)
        ]
        #: per node, what its threads read at the start of a run; empty
        #: until the first run registers the thread pool
        self._nodes: list[NodeWiring] = []
        self._worker_cores: dict[int, int] = {}
        #: coordinator pids still to be handed a program this run (a rerun
        #: refills them in registration order), and killed threads to respawn
        self._refill: list[int] = []
        self._respawn: list[int] = []

    def _arm(self, config: SystemConfig) -> None:
        """The per-call observers: fault injector, metrics and recorder."""
        self.faults = FaultInjector(config.fault_spec) if config.fault_spec is not None else None
        #: run-wide metrics registry: the engine, every coordinator and owner,
        #: the load tracker and the serving layer all count into this one
        #: set of books, and the report reads its scalars back out of it
        self.metrics = MetricsRegistry()
        #: per-query distributed trace recorder, attached only when the
        #: config asks for observability output (recording is bit-identity-
        #: neutral either way; the gate just avoids the bookkeeping cost)
        self.recorder = TraceRecorder() if config.trace_enabled else None

    def rearm(self, config: SystemConfig) -> None:
        """Ready a session whose last call finished for a call under
        ``config``, which must have the session's :func:`wiring_key`."""
        if wiring_key(config) != wiring_key(self.config):
            raise ValueError("rearm() needs a config with the session's wiring_key")
        self.config = config
        self._arm(config)
        ended = self.sim.reset(
            config.network, config.cost, self.faults, self.recorder, self.metrics
        )
        self._refill = [pid for pid in ended if pid not in self._worker_cores]
        self._respawn = [pid for pid in ended if pid in self._worker_cores]

    def close(self) -> None:
        """End a session: its parked threads' programs return."""
        self.sim.close()

    def add_proc(self, program, *args, node: int, name: str) -> int:
        """Register a coordinator proc (strategies call this from
        ``install``); on a rerun, hand the next coordinator pid its new
        program instead, so pids — the engine's tie-break — stay put."""
        if not self._nodes:
            return self.sim.add_proc(program, *args, node=node, name=name)
        if not self._refill:
            raise RuntimeError("a rerun installed more coordinators than the session has")
        pid = self._refill.pop(0)
        self.sim.respawn(pid, program, *args)
        return pid

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
        pre-filtering wire.  ``Q`` is taken as C-contiguous float32 rows,
        what every search reads, so the task messages carry 4 bytes a
        coordinate whatever the caller's dtype.
        """
        Q = np.ascontiguousarray(Q, dtype=np.float32)
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
        if self._refill:
            raise RuntimeError("a rerun installed fewer coordinators than the session has")
        first_run = not self._nodes
        for node in range(cfg.n_nodes):
            wiring = NodeWiring(self.node_mailboxes[node]) if first_run else self._nodes[node]
            wiring.master_mailbox, wiring.window = strategy.worker_wiring(self, node)
            wiring.store = node_stores[node]
            wiring.searcher = worker_searcher
            wiring.k = k
            wiring.done = Event()
            # one-sided workers return dispatch credits only when the
            # coordinator runs flow-controlled (two-sided results are their
            # own credit return, so no extra traffic there)
            wiring.send_credits = wiring.window is not None and cfg.dispatch_window > 0
            if first_run:
                self._nodes.append(wiring)
                self._add_threads(node, wiring)
        for pid in self._respawn:
            # a thread a crash killed starts its program afresh
            self.sim.respawn(pid, worker_thread_program, self._nodes[self.sim.node_of(pid)])
        self._respawn = []

        # a searcher that memoizes per call (filter plans) keeps it for
        # this call's simulation only
        with getattr(searcher, "call_scope", nullcontext)():
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
            worker_cores=self._worker_cores,
            aux_pids=getattr(strategy, "aux_pids", ()),
            slo_target_seconds=cfg.slo_ms / 1e3,
            tenant_id=-1 if tenant is None else int(tenant),
            trace=self.recorder,
        ).build()
        return D, I, report

    def _add_threads(self, node: int, wiring: NodeWiring) -> None:
        """Register ``node``'s thread pool (the first run only)."""
        cfg = self.config
        # this node's simulated cores; on a partial last node the extra
        # threads fold onto the valid cores round-robin so the per-core
        # busy vector stays length n_cores with nothing dropped
        cores = range(node * cfg.cores_per_node, min((node + 1) * cfg.cores_per_node, cfg.n_cores))
        for t in range(cfg.threads_per_node):
            pid = self.sim.add_proc(
                worker_thread_program,
                wiring,
                node=node,
                name=f"worker_n{node}_t{t}",
            )
            self._worker_cores[pid] = cores[t % len(cores)]
