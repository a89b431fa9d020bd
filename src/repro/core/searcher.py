"""Local search strategies executed by worker threads.

``LocalSearcher.search_batch`` returns the local k-NN of a batch of queries
plus the *virtual seconds* the search should cost on one simulated core.
Two implementations:

- :class:`RealHnswSearcher`: searches the partition's real HNSW index,
  charges exactly the distance evaluations the traversal performed.
  Results (and therefore recall) are genuine.  Used in fidelity mode.
  Inside a call it stages each task's compiled search the moment the
  task is sent (:meth:`RealHnswSearcher.prefetch`), on a ring one host
  thread serves.
- :class:`ModeledSearcher`: charges the analytic HNSW cost for a partition
  of the *paper-scale* virtual size (e.g. 1B/8192 points) while answering
  from a small real subsample so result messages carry realistic bytes.
  Used for the billion-point scaling experiments where indexing the real
  volume is impossible in this environment (see DESIGN.md substitutions).
  :class:`GpuModeledSearcher` prices the same rows on the §VI GPU
  projection; it regenerates that row of DESIGN.md.

The exact one-row searchers of :mod:`repro.core.localindex` (brute force,
a VP-tree per partition) show §VI's other claim, that any local index
can replace HNSW behind this interface.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Protocol

import numpy as np

from repro.core.partition import Partition
from repro.filtering import choose_strategy, mask_for
from repro.hnsw.index import SearchRing
from repro.metrics import get_metric
from repro.metrics.topk import ExactTopk, ScanRows
from repro.simmpi.costmodel import CostModel
from repro.utils.validation import check_filter_mask, check_positive_int

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

    A searcher may also offer ``prefetch(partition, Q, k, filter, source,
    first)``: the coordinator calls it when it sends a task, with the
    partition the task goes to, the very rows object the task carries,
    the call's query matrix ``source`` and the row ``first`` of it that
    a one-row task carries (``Q`` is then ``source[first:first + 1]``; a
    batch task carries a gathered copy), so the searcher can start the
    search then and have ``search_batch`` — called with that same object
    — collect it.  It returns nothing, must not raise for rows
    ``search_batch`` would refuse, and must leave every answer and charge
    as they would be without it; a task it was told of may never be
    collected (a lost message) or be searched twice (a duplicated one).
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


def _cut(D: np.ndarray, I: np.ndarray, stats: list, row: int) -> tuple[list, list, list]:
    """Per-row results of a search answered into rows ``row`` on of the
    padded ``D`` / ``I``, each a view cut to the number of results
    ``stats`` (``[evaluations, results]`` per row) gives it, and each
    row's evaluations."""
    ds, idss, evals = [], [], []
    for r, (e, n) in enumerate(stats, row):
        ds.append(D[r, :n])
        idss.append(I[r, :n])
        evals.append(e)
    return ds, idss, evals


#: slots of a call's search ring: a full ring runs its oldest search, so
#: this bounds the searches in flight, not the tasks a coordinator may
#: send ahead of its workers
_RING_SLOTS = 64
#: rows of one block of a call's answer arena
_ARENA_ROWS = 1024


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


def _float32_rows(Q) -> np.ndarray | None:
    """``Q`` as float32 C-contiguous rows (converted once, if it is not),
    or None when it is no matrix."""
    try:
        rows = np.ascontiguousarray(Q, dtype=np.float32)
    except (TypeError, ValueError):
        return None
    return rows if rows.ndim == 2 else None


def _bound_rows(source) -> tuple:
    """``(source, its float32 rows, width, address, row stride)`` for
    reading a call's query rows in place; width -1 when it is no matrix."""
    rows = _float32_rows(source)
    if rows is None:
        return source, None, -1, 0, 0
    return source, rows, rows.shape[1], rows.ctypes.data, rows.strides[0]


class RealHnswSearcher(_PerCall):
    """Search the partition's real HNSW index; charge measured evaluations.

    Inside a call scope every compiled search goes through one
    :class:`~repro.hnsw.index.SearchRing`: :meth:`prefetch` stages a
    task's search when the task is sent, reading its query row in place,
    and :meth:`search_batch` collects it, each row a view of the call's
    answer arena.  Where a CPU is spare, a host thread serves the ring,
    so the search runs while the simulation goes on; otherwise the
    collection runs it.  Answers, counted evaluations and charges are
    those of ``knn_search_batch``, which outside a scope, and for the
    python path, is what runs.
    """

    def __init__(self, cost: CostModel, ef_search: int) -> None:
        self.cost = cost
        self.ef_search = ef_search
        self.filter_stats = new_filter_stats()
        self._topk = ExactTopk()
        #: the call's search ring: None until its first compiled search,
        #: False outside a call scope
        self._ring: SearchRing | None | bool = False
        #: the call's query matrix as ``_bound_rows`` gives it; None until
        #: a one-row task is staged
        self._source: tuple | None = None
        #: id(rows) -> (rows, ticket, staged rows) of each prefetched task
        self._tickets: dict = {}

    @contextmanager
    def call_scope(self):
        # the memo holds the post-filter masks staged searches read, so it
        # is dropped only after the ring is closed and its thread joined
        with super().call_scope():
            self._ring = None
            try:
                yield
            finally:
                ring, self._ring = self._ring, False
                if ring:
                    ring.close()
                # after the join: the rows the searches read live to here
                self._tickets = {}
                self._source = None

    def _open_ring(self, index, k: int, threaded: bool) -> SearchRing:
        """The call's ring, opened by its first compiled search.  When that
        is a prefetch and a CPU is spare, a host thread serves it; a call
        whose tasks are not prefetched gains nothing from one."""
        lib = index._native
        ef = max(self.ef_search or index.params.ef_search, k)
        ring = self._ring = SearchRing(lib, k, ef, _ARENA_ROWS, _RING_SLOTS)
        cpu = _spare_cpu(lib) if threaded else None
        if cpu is not None:
            ring.serve(cpu)
        return ring

    def prefetch(
        self, partition: Partition, Q, k: int, filter, source, first: int  # noqa: A002
    ) -> None:
        """Stage the compiled search ``search_batch(partition, Q, k,
        filter)`` will collect.  A one-row task's row is read in place
        from the call's float32 ``source`` rows (converted once per call
        when ``source`` is not that); a batch is converted once here.  A
        ``pre``-filtered or empty task has no search; rows of the wrong
        shape are left for ``search_batch`` to refuse."""
        ring = self._ring
        index = partition.index
        if ring is False or k < 1 or index is None or index._native is None or not index._n:
            return
        mask = 0
        if filter is not None:
            plan = self._once(
                _filter_key(partition, filter, k), self._filter_plan, partition, filter, k
            )
            if plan[0] != "post":
                return
            mask = plan[2][1]
        nq = len(Q)
        rows = None
        if nq == 1:
            bound = self._source
            if bound is None or bound[0] is not source:
                bound = self._source = _bound_rows(source)
            _, _, width, base, stride = bound
            if width != index.dim:
                return
            address = base + first * stride
        else:
            rows = _float32_rows(Q)
            if rows is None or not nq or rows.shape[1] != index.dim:
                return
            address = rows.ctypes.data
        if ring is None:
            ring = self._open_ring(index, k, True)
        ticket = ring.stage(index, address, nq, mask)
        if ticket is not None:
            self._tickets[id(Q)] = (Q, ticket, rows)

    def _knn(self, index, Q: np.ndarray, k: int, mask) -> tuple[list, list, list]:
        """``index.knn_search_batch(Q, k, ef, filter=mask)`` with each row
        cut to its results, and each row's evaluations: the prefetched
        search of ``Q`` if there is one, else one staged now on the
        call's ring, else (outside a call, or on the python path) the
        index's own.  ``mask`` is a ``post`` plan's (mask, address)."""
        # a ticket holds its rows, so no other live object has their id
        entry = self._tickets.pop(id(Q), None)
        ring = self._ring
        if entry is not None:
            ticket = entry[1]
        else:
            check_positive_int(k, "k")
            if ring is False or index._native is None or not index._n:
                D, I, stats = index._search_rows(
                    index._query_rows(Q), k, self.ef_search, None if mask is None else mask[0]
                )
                return _cut(D, I, stats.tolist(), 0)
            rows = index._query_rows(Q)
            if ring is None:
                ring = self._open_ring(index, k, False)
            ticket = ring.stage(index, rows.ctypes.data, len(rows), 0 if mask is None else mask[1])
            if ticket is None:
                raise ValueError("Q contains non-finite values")
        stats = ring.collect(index, ticket)
        block = ticket[3]
        return _cut(block[0], block[1], stats, ticket[1])

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
            ds, idss, evals = self._knn(index, Q, k, None)
            return ds, idss, self.cost.distance_cost(sum(evals), index.dim)
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
        ds, idss, evals = self._knn(index, Q, k, target)
        stats["filter_tasks_post"] += nq
        stats["filter_evals_post"] += sum(evals)
        for e in evals:
            seconds += self.cost.distance_cost(e, index.dim)
        return ds, idss, seconds

    def _filter_plan(self, partition: Partition, filter, k: int) -> tuple:  # noqa: A002
        """``(strategy, matches, target, per-row charge)`` of one
        (partition, clauses): the strategy is None when nothing matches;
        the target is the ``pre`` rows prepared for the scan, or the
        ``post`` node mask (row order == internal node order) with its
        address."""
        clauses, strategy = filter
        mask = mask_for(partition.attrs, clauses, partition.n_points)
        n_match = int(np.count_nonzero(mask))
        if n_match == 0:
            return None, 0, None, 0.0
        if choose_strategy(strategy, n_match, partition.n_points, k) != "pre":
            mask = np.ascontiguousarray(check_filter_mask(mask, len(partition.index)))
            return "post", n_match, (mask, mask.ctypes.data), 0.0
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
