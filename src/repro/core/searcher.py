"""Local search strategies executed by worker threads.

``LocalSearcher.search_batch`` returns the local k-NN of a batch of queries
plus the *virtual seconds* the search should cost on one simulated core.
Two implementations:

- :class:`RealHnswSearcher`: searches the partition's real HNSW index,
  charges exactly the distance evaluations the traversal performed.
  Results (and therefore recall) are genuine.  Used in fidelity mode.
  Inside a call it runs each task's compiled search on one host thread
  from the moment the task is sent (:meth:`RealHnswSearcher.prefetch`).
- :class:`ModeledSearcher`: charges the analytic HNSW cost for a partition
  of the *paper-scale* virtual size (e.g. 1B/8192 points) while answering
  from a small real subsample so result messages carry realistic bytes.
  Used for the billion-point scaling experiments where indexing the real
  volume is impossible in this environment (see DESIGN.md substitutions).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Protocol

import numpy as np

from repro.core.partition import Partition
from repro.filtering import choose_strategy, mask_for
from repro.metrics import get_metric
from repro.metrics.topk import ExactTopk, ScanRows
from repro.simmpi.costmodel import CostModel

__all__ = [
    "LocalSearcher",
    "RealHnswSearcher",
    "ModeledSearcher",
    "new_filter_stats",
]


def new_filter_stats() -> dict[str, int]:
    """Zeroed per-run filtered-search accounting.

    Both built-in searchers keep one of these dicts (the single searcher
    instance is shared by every worker proc of a run, so the counts are
    run-global); the runtime folds it into the metrics registry and the
    SearchReport after the simulation drains.
    """
    return {
        "filter_tasks_pre": 0,
        "filter_tasks_post": 0,
        "filter_evals_pre": 0,
        "filter_evals_post": 0,
        "filter_empty_tasks": 0,
    }


class LocalSearcher(Protocol):
    """Strategy interface: search one partition for a batch of queries.

    A worker makes exactly one ``search_batch`` call per task; one query
    is the one-row batch.  A searcher that only offers the one-row
    ``search(partition, query, k) -> (distances, ids, seconds)`` (the
    :mod:`repro.core.localindex` family, the KD baseline's, any foreign
    object) is wrapped in a row loop where it enters
    ``ClusterRuntime.run_search`` and cannot take a filter.

    One instance may serve many calls (``query_with_searcher`` passes the
    caller's searcher to every call, with ``add_points`` allowed in
    between).  A searcher that memoizes per call offers ``call_scope()``,
    a context manager the runtime enters around each call's simulation:
    what it remembers inside one scope must not outlive it.

    A searcher may also offer ``prefetch(partition, Q, k, filter=None)``:
    the coordinator calls it when it sends a task, with the partition the
    task goes to and the very rows object the task carries, so the
    searcher can start the search then and have ``search_batch`` — called
    with that same object — collect it.  It returns nothing, must not
    raise for rows ``search_batch`` would refuse, and must leave every
    answer and charge as they would be without it; a task it was told of
    may never be collected (a lost message) or be searched twice (a
    duplicated one).
    """

    def search_batch(
        self, partition: Partition, Q: np.ndarray, k: int, filter=None  # noqa: A002
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Return (per-row distances, per-row global ids, virtual seconds).

        ``filter``: None, or the ``(clauses, strategy)`` pair of a pushed-
        down predicate conjunction — every row may then only be answered
        from the partition rows matching all clauses.

        The runtime holds the returned rows until the query call ends
        (they travel in messages and wait in the result slots), so a
        searcher must not write into them afterwards — by reusing its
        output buffers in a later call, say.
        """
        ...

    def build_seconds(self, partition: Partition) -> float:
        """Virtual cost of having built this partition's local index."""
        ...


class _PerCall:
    """The per-call memo both built-in searchers keep.

    Inside :meth:`call_scope` (one ``run_search`` call) :meth:`_once`
    computes a value once per key and reuses it for every later task of
    the call; outside a scope — a direct ``search_batch`` call — nothing
    is kept and every value is computed afresh.  Keys are values (the
    partition id, the clause tuple), never object ids.
    """

    _memo: dict | None = None

    @contextmanager
    def call_scope(self):
        self._memo = {}
        try:
            yield
        finally:
            self._memo = None

    def _once(self, key, make, *args):
        memo = self._memo
        if memo is None:
            return make(*args)
        value = memo.get(key)
        if value is None:
            value = memo[key] = make(*args)
        return value


def _filter_key(partition: Partition, filter, k: int) -> tuple:  # noqa: A002
    clauses, strategy = filter
    return ("filter", partition.partition_id, tuple(clauses), strategy, k)


def _empty_rows(nq: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return (
        [np.empty(0, dtype=np.float64) for _ in range(nq)],
        [np.empty(0, dtype=np.int64) for _ in range(nq)],
    )


def _found_rows(index, D: np.ndarray, I: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-row results of the padded ``knn_search_batch`` answer ``index``
    just gave: each row cut to the number of results its search found."""
    found = index._row_found.tolist()
    return [D[i, :n] for i, n in enumerate(found)], [I[i, :n] for i, n in enumerate(found)]


#: slots of a search thread's ring: a full ring runs its oldest search,
#: so this bounds the searches in flight, not the tasks a coordinator
#: may send ahead of its workers
_RING_SLOTS = 64


class _SearchThread:
    """One host thread serving a ring of staged compiled searches.

    The thread enters ``search_ring_serve`` in ``_hotpath.c`` and stays
    there, without the GIL, until :meth:`close` stops it, joins it and
    frees the ring.  :meth:`wait` runs a search itself when the thread
    has not got to it and is not searching (see the C file).  The serve
    loop first moves the thread to ``cpu`` and then frees it to move, as
    ``_place_worker`` starts a build worker: left alone it often runs on
    the CPU of the thread that submits to it.
    """

    def __init__(self, lib, cpu: int) -> None:
        self._lib = lib
        self._ring = lib.search_ring_new(_RING_SLOTS)
        if not self._ring:
            raise MemoryError("no memory for a search ring")
        self._thread = threading.Thread(
            target=lib.search_ring_serve, args=(self._ring, cpu), name="repro-search", daemon=True
        )
        self._thread.start()

    def submit(self, search) -> None:
        search.seq = self._lib.search_ring_submit(self._ring, search.address)

    def wait(self, search) -> None:
        self._lib.search_ring_wait(self._ring, search.seq)

    def close(self) -> None:
        self._lib.search_ring_close(self._ring)
        self._thread.join()
        self._lib.search_ring_free(self._ring)


def _spare_cpu(lib) -> int | None:
    """A CPU of this thread's affinity mask other than the one it runs
    on; None under a one-CPU mask or where the mask cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    mask = os.sched_getaffinity(0)
    here = lib.host_cpu()
    other = sorted(c for c in mask if c != here)
    if len(mask) < 2 or not other:
        return None
    return other[0]


class RealHnswSearcher(_PerCall):
    """Search the partition's real HNSW index; charge measured evaluations.

    Inside a call scope, a compiled search runs on one host thread
    (:class:`_SearchThread`) from the moment its task is sent
    (:meth:`prefetch`), and :meth:`search_batch` collects it.  While that
    thread is live every compiled search of the call goes through it, so
    an index's visited array and heaps have one user.  Answers, counted
    evaluations and charges are those of the inline search, which runs
    with no thread: outside a scope, for the python path, or under a
    one-CPU affinity mask.
    """

    def __init__(self, cost: CostModel, ef_search: int) -> None:
        self.cost = cost
        self.ef_search = ef_search
        self.filter_stats = new_filter_stats()
        self._topk = ExactTopk()
        #: the call's search thread: None until a compiled search is
        #: prefetched, False when the call may not start one
        self._thread: _SearchThread | None | bool = False
        #: id(rows) -> (rows, staged search) of each prefetched task
        self._tickets: dict = {}

    @contextmanager
    def call_scope(self):
        self._thread = None
        try:
            with super().call_scope():
                yield
        finally:
            thread, self._thread = self._thread, False
            if thread:
                thread.close()
            # after the join: the buffers the searches wrote live to here
            self._tickets = {}

    def prefetch(self, partition: Partition, Q: np.ndarray, k: int, filter=None) -> None:  # noqa: A002
        """Start the compiled search ``search_batch(partition, Q, k,
        filter)`` will make, on the call's search thread (started here,
        the first time, if a CPU is spare).  A ``pre``-filtered or empty
        task has none; rows of the wrong shape are left for
        ``search_batch`` to refuse."""
        index = partition.index
        if self._thread is False or index is None or index._native is None or not len(index):
            return
        thread = self._thread
        if thread is None:
            cpu = _spare_cpu(index._native)
            if cpu is None:
                self._thread = False
                return
        target = None
        if filter is not None:
            chosen, _, target, _ = self._once(
                _filter_key(partition, filter, k), self._filter_plan, partition, filter, k
            )
            if chosen != "post":
                return
        try:
            search = index.stage_search(Q, k, self.ef_search, filter=target)
        except (TypeError, ValueError):
            return
        if thread is None:
            thread = self._thread = _SearchThread(index._native, cpu)
        thread.submit(search)
        self._tickets[id(Q)] = (Q, search)

    def _knn(self, index, Q: np.ndarray, k: int, mask) -> tuple[list, list]:
        """``index.knn_search_batch(Q, k, ef, filter=mask)``, each row cut
        to its results: the prefetched search of ``Q`` if there is one,
        else a compiled search staged now — through the call's thread
        while it is live, inline otherwise — else the python path."""
        # a ticket holds its rows, so no other live object has their id
        ticket = self._tickets.pop(id(Q), None)
        thread = self._thread
        if ticket is not None:
            search = ticket[1]
        elif index._native is None or not len(index):
            return _found_rows(index, *index.knn_search_batch(Q, k, ef=self.ef_search, filter=mask))
        else:
            search = index.stage_search(Q, k, self.ef_search, filter=mask)
            if not thread:
                search.run()
                return search.finish()
            thread.submit(search)
        thread.wait(search)
        return search.finish()

    def search_batch(
        self, partition: Partition, Q: np.ndarray, k: int, filter=None  # noqa: A002
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Batch of queries against one partition via ``knn_search_batch``.

        The index's batch method runs the same traversal per row whatever
        the batch size, so batching amortizes python dispatch only and
        never changes a row's answer or its eval count.

        With a ``filter`` the predicate conjunction is evaluated against
        the partition's attribute slice, then every row either
        brute-forces exactly the matching rows (``pre``; one exact top-k
        scan, charged one eval per match) or runs the filtered HNSW
        traversal (``post``; charged its measured evals) — ``auto`` picks
        per the partition's matching fraction (see
        :mod:`repro.filtering.strategy`).  The mask, the match count, the
        strategy and the ``pre`` rows depend on (partition, clauses)
        alone, so inside a call scope they are evaluated once per call;
        virtual time is charged row by row and summed in row order.
        """
        index = partition.index
        if index is None:
            raise ValueError(
                f"partition {partition.partition_id} has no HNSW index; "
                "was the system built with searcher='modeled'?"
            )
        if filter is None:
            before = index.n_dist_evals
            ds, idss = self._knn(index, Q, k, None)
            evals = index.n_dist_evals - before
            return ds, idss, self.cost.distance_cost(evals, index.dim)
        nq = len(Q)
        chosen, n_match, target, charge = self._once(
            _filter_key(partition, filter, k), self._filter_plan, partition, filter, k
        )
        stats = self.filter_stats
        if chosen is None:
            stats["filter_empty_tasks"] += nq
            return (*_empty_rows(nq), 0.0)
        seconds = 0.0
        if chosen == "pre":
            ds, idss = self._topk(index.metric, Q, target, k)
            stats["filter_tasks_pre"] += nq
            stats["filter_evals_pre"] += n_match * nq
            for _ in range(nq):
                seconds += charge
            return ds, idss, seconds
        # row order == internal node order, so the row mask is the
        # index's node mask directly
        ds, idss = self._knn(index, Q, k, target)
        evals = index._row_evals.tolist()
        stats["filter_tasks_post"] += nq
        stats["filter_evals_post"] += sum(evals)
        for e in evals:
            seconds += self.cost.distance_cost(e, index.dim)
        return ds, idss, seconds

    def _filter_plan(self, partition: Partition, filter, k: int) -> tuple:  # noqa: A002
        """``(strategy, matches, target, per-row charge)`` of one
        (partition, clauses): the strategy is None when nothing matches;
        the target is the ``pre`` rows prepared for the scan, or the
        ``post`` node mask."""
        clauses, strategy = filter
        mask = mask_for(partition.attrs, clauses, partition.n_points)
        n_match = int(np.count_nonzero(mask))
        if n_match == 0:
            return None, 0, None, 0.0
        if choose_strategy(strategy, n_match, partition.n_points, k) != "pre":
            return "post", n_match, mask, 0.0
        rows = np.flatnonzero(mask)
        scan = ScanRows(partition.points[rows], partition.ids[rows])
        return "pre", n_match, scan, self.cost.distance_cost(n_match, partition.index.dim)

    def build_seconds(self, partition: Partition) -> float:
        index = partition.index
        if index is None:
            return 0.0
        # exact counter value accumulated during this partition's build
        return self.cost.distance_cost(index.n_dist_evals, index.dim) + self.cost.graph_update_cost(
            len(index) * index.params.M
        )


class ModeledSearcher(_PerCall):
    """Charge paper-scale virtual cost; answer from a real subsample.

    ``virtual_points`` is the partition size being modelled (the paper's
    1B/P).  The subsample search is a brute-force scan of
    ``partition.sample`` — its own real cost is *not* charged (the virtual
    cost stands in for the full-scale search).
    """

    def __init__(
        self,
        cost: CostModel,
        ef_search: int,
        m: int,
        dim: int,
        virtual_points: int,
        metric: str = "l2",
        search_seconds: float | None = None,
    ) -> None:
        self.cost = cost
        self.ef_search = ef_search
        self.m = m
        self.dim = dim
        self.virtual_points = virtual_points
        self.metric = get_metric(metric)
        self.search_seconds = search_seconds
        self.filter_stats = new_filter_stats()
        self._topk = ExactTopk()

    def row_seconds(self) -> float:
        """Virtual seconds one (query, partition) row is charged, filtered
        or not — the model has no per-strategy refinement."""
        if self.search_seconds is not None:
            return self.search_seconds
        return self.cost.hnsw_search_cost(self.virtual_points, self.dim, self.ef_search, self.m)

    def search_batch(
        self, partition: Partition, Q: np.ndarray, k: int, filter=None  # noqa: A002
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Each row answered by an exact top-k scan of the partition's
        sample and charged :meth:`row_seconds`, summed in row order.

        With a ``filter`` only the matching sample rows answer; the
        crossover decision is still taken — and counted in
        ``filter_stats`` — over the real partition mask, so strategy
        accounting works in modeled runs too.  Mask, strategy and the
        matching sample rows depend on (partition, clauses) alone, and the
        row charge on the searcher alone: inside a call scope each is
        evaluated once per call.
        """
        nq = len(Q)
        if filter is None:
            scan = partition.sample_scan
        else:
            chosen, evals, scan = self._once(
                _filter_key(partition, filter, k), self._filter_plan, partition, filter, k
            )
            if chosen is None:
                self.filter_stats["filter_empty_tasks"] += nq
                return (*_empty_rows(nq), 0.0)
            self.filter_stats[f"filter_tasks_{chosen}"] += nq
            self.filter_stats[f"filter_evals_{chosen}"] += nq * evals
        charge, seconds = self._once("row_seconds", self.row_seconds), 0.0
        for _ in range(nq):
            seconds += charge
        if scan is None or not scan.n:
            return (*_empty_rows(nq), seconds)
        return (*self._topk(self.metric, Q, scan, k), seconds)

    def _filter_plan(self, partition: Partition, filter, k: int) -> tuple:  # noqa: A002
        """``(strategy, evals per row, matching sample rows)`` of one
        (partition, clauses); the strategy is None when nothing matches
        and the rows are None without a sample."""
        clauses, strategy = filter
        mask = mask_for(partition.attrs, clauses, partition.n_points)
        n_match = int(np.count_nonzero(mask))
        if n_match == 0:
            return None, 0, None
        if choose_strategy(strategy, n_match, partition.n_points, k) == "pre":
            chosen, evals = "pre", n_match
        else:
            chosen, evals = "post", min(partition.n_points, self.ef_search * self.m)
        if partition.sample is None:
            return chosen, evals, None
        pts, ids = partition.sample
        if partition.sample_rows is not None:
            smask = mask[partition.sample_rows]
        else:
            # legacy partitions without recorded sample rows: map sample
            # ids back to partition rows
            row_of = {int(g): r for r, g in enumerate(partition.ids)}
            smask = np.array([mask[row_of[int(g)]] for g in ids], dtype=bool)
        return chosen, evals, ScanRows(pts[smask], ids[smask])

    def build_seconds(self, partition: Partition) -> float:
        return self.cost.hnsw_build_cost(
            self.virtual_points, self.dim, max(self.ef_search, 100), self.m
        )


class GpuModeledSearcher(ModeledSearcher):
    """Future-work projection: GPU-accelerated local search (paper §VI).

    The paper proposes exploiting GPUs for local searching as future work.
    This searcher models a GPU worker with the standard two-term shape:
    the distance-evaluation work runs ``gpu_speedup`` times faster than the
    CPU cost model, but every search pays a fixed ``launch_overhead``
    (kernel launch + PCIe round trip).  Small partitions are therefore
    launch-bound and *slower* on the GPU — the crossover the projection
    bench locates.  Everything else (results from the real subsample,
    message flow) matches :class:`ModeledSearcher`.
    """

    def __init__(
        self,
        *args,
        gpu_speedup: float = 15.0,
        launch_overhead: float = 2.0e-5,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if gpu_speedup <= 0:
            raise ValueError(f"gpu_speedup must be positive, got {gpu_speedup}")
        if launch_overhead < 0:
            raise ValueError(f"launch_overhead must be >= 0, got {launch_overhead}")
        self.gpu_speedup = gpu_speedup
        self.launch_overhead = launch_overhead

    def row_seconds(self) -> float:
        return self.launch_overhead + super().row_seconds() / self.gpu_speedup
