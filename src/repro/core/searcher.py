"""Local search strategies executed by worker threads.

``LocalSearcher.search_batch`` returns the local k-NN of a batch of queries
plus the *virtual seconds* the search should cost on one simulated core.
Two implementations:

- :class:`RealHnswSearcher`: searches the partition's real HNSW index,
  charges exactly the distance evaluations the traversal performed.
  Results (and therefore recall) are genuine.  Used in fidelity mode.
- :class:`ModeledSearcher`: charges the analytic HNSW cost for a partition
  of the *paper-scale* virtual size (e.g. 1B/8192 points) while answering
  from a small real subsample so result messages carry realistic bytes.
  Used for the billion-point scaling experiments where indexing the real
  volume is impossible in this environment (see DESIGN.md substitutions).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.partition import Partition
from repro.filtering import choose_strategy, mask_for
from repro.metrics import get_metric
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
    """

    def search_batch(
        self, partition: Partition, Q: np.ndarray, k: int, filter=None  # noqa: A002
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Return (per-row distances, per-row global ids, virtual seconds).

        ``filter``: None, or the ``(clauses, strategy)`` pair of a pushed-
        down predicate conjunction — every row may then only be answered
        from the partition rows matching all clauses.
        """
        ...

    def build_seconds(self, partition: Partition) -> float:
        """Virtual cost of having built this partition's local index."""
        ...


def _found_rows(index, D: np.ndarray, I: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-row results of the padded ``knn_search_batch`` answer ``index``
    just gave: each row cut to the number of results its search found."""
    found = index._row_found.tolist()
    return [D[i, :n] for i, n in enumerate(found)], [I[i, :n] for i, n in enumerate(found)]


class RealHnswSearcher:
    """Search the partition's real HNSW index; charge measured evaluations."""

    def __init__(self, cost: CostModel, ef_search: int) -> None:
        self.cost = cost
        self.ef_search = ef_search
        self.filter_stats = new_filter_stats()

    def search_batch(
        self, partition: Partition, Q: np.ndarray, k: int, filter=None  # noqa: A002
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Batch of queries against one partition via ``knn_search_batch``.

        The index's batch method runs the same traversal per row whatever
        the batch size, so batching amortizes python dispatch only and
        never changes a row's answer or its eval count.

        With a ``filter`` the predicate conjunction is evaluated against
        the partition's attribute slice, then every row either
        brute-forces exactly the matching rows (``pre``; charged one eval
        per match) or runs the filtered HNSW traversal (``post``; charged
        its measured evals) — ``auto`` picks per the partition's matching
        fraction (see :mod:`repro.filtering.strategy`).  The mask and the
        strategy depend on (partition, clauses) alone, so both are
        evaluated once per call; virtual time is charged row by row and
        summed in row order.
        """
        index = partition.index
        if index is None:
            raise ValueError(
                f"partition {partition.partition_id} has no HNSW index; "
                "was the system built with searcher='modeled'?"
            )
        if filter is None:
            before = index.n_dist_evals
            ds, idss = _found_rows(index, *index.knn_search_batch(Q, k, ef=self.ef_search))
            evals = index.n_dist_evals - before
            return ds, idss, self.cost.distance_cost(evals, index.dim)
        clauses, strategy = filter
        nq = len(Q)
        mask = mask_for(partition.attrs, clauses, partition.n_points)
        n_match = int(np.count_nonzero(mask))
        if n_match == 0:
            self.filter_stats["filter_empty_tasks"] += nq
            return (
                [np.empty(0, dtype=np.float64) for _ in range(nq)],
                [np.empty(0, dtype=np.int64) for _ in range(nq)],
                0.0,
            )
        chosen = "post"
        if choose_strategy(strategy, n_match, partition.n_points, k) == "pre":
            chosen = "pre"
            rows = np.flatnonzero(mask)
            pts, pids = partition.points[rows], partition.ids[rows]
            ds, idss = [], []
            for q in Q:
                d = index.metric.one_to_many(q, pts)
                order = np.lexsort((pids, d))[:k]
                ds.append(np.asarray(d[order], dtype=np.float64))
                idss.append(np.asarray(pids[order], dtype=np.int64))
            evals = [n_match] * nq
        else:
            # row order == internal node order, so the row mask is the
            # index's node mask directly
            ds, idss = _found_rows(
                index, *index.knn_search_batch(Q, k, ef=self.ef_search, filter=mask)
            )
            evals = index._row_evals.tolist()
        self.filter_stats[f"filter_tasks_{chosen}"] += nq
        self.filter_stats[f"filter_evals_{chosen}"] += sum(evals)
        seconds = 0.0
        for e in evals:
            seconds += self.cost.distance_cost(e, index.dim)
        return ds, idss, seconds

    def build_seconds(self, partition: Partition) -> float:
        index = partition.index
        if index is None:
            return 0.0
        # exact counter value accumulated during this partition's build
        return self.cost.distance_cost(index.n_dist_evals, index.dim) + self.cost.graph_update_cost(
            len(index) * index.params.M
        )


class ModeledSearcher:
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

    def row_seconds(self) -> float:
        """Virtual seconds one (query, partition) row is charged, filtered
        or not — the model has no per-strategy refinement."""
        if self.search_seconds is not None:
            return self.search_seconds
        return self.cost.hnsw_search_cost(self.virtual_points, self.dim, self.ef_search, self.m)

    def search_batch(
        self, partition: Partition, Q: np.ndarray, k: int, filter=None  # noqa: A002
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Each row answered by a brute-force scan of the partition's
        sample and charged :meth:`row_seconds`, summed in row order.

        With a ``filter`` only the matching sample rows answer; the
        crossover decision is still taken — and counted in
        ``filter_stats`` — over the real partition mask, so strategy
        accounting works in modeled runs too.  Mask, strategy and the
        matching sample rows depend on (partition, clauses) alone and are
        evaluated once per call.
        """
        nq = len(Q)
        ds = [np.empty(0, dtype=np.float64) for _ in range(nq)]
        idss = [np.empty(0, dtype=np.int64) for _ in range(nq)]
        pts = ids = None
        if partition.sample is not None:
            pts, ids = partition.sample
        if filter is not None:
            clauses, strategy = filter
            mask = mask_for(partition.attrs, clauses, partition.n_points)
            n_match = int(np.count_nonzero(mask))
            if n_match == 0:
                self.filter_stats["filter_empty_tasks"] += nq
                return ds, idss, 0.0
            if choose_strategy(strategy, n_match, partition.n_points, k) == "pre":
                chosen, evals = "pre", n_match
            else:
                chosen, evals = "post", min(partition.n_points, self.ef_search * self.m)
            self.filter_stats[f"filter_tasks_{chosen}"] += nq
            self.filter_stats[f"filter_evals_{chosen}"] += nq * evals
            if ids is not None:
                if partition.sample_rows is not None:
                    smask = mask[partition.sample_rows]
                else:
                    # legacy partitions without recorded sample rows: map
                    # sample ids back to partition rows once
                    row_of = {int(g): r for r, g in enumerate(partition.ids)}
                    smask = np.array([mask[row_of[int(g)]] for g in ids], dtype=bool)
                pts, ids = pts[smask], ids[smask]
        charge, seconds = self.row_seconds(), 0.0
        for i, q in enumerate(Q):
            seconds += charge
            if ids is not None and len(ids):
                d = self.metric.one_to_many(q, pts)
                order = np.lexsort((ids, d))[:k]
                ds[i] = np.asarray(d[order], dtype=np.float64)
                idss[i] = np.asarray(ids[order], dtype=np.int64)
        return ds, idss, seconds

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
