"""The public facade: :class:`DistributedANN`.

``fit(X)`` simulates the distributed construction and materializes the
router, partitions, and node stores; ``query(Q)`` simulates one batch
search (master-worker or multiple-owner) and returns the k-NN results with
a full measurement report.  All times are virtual cluster seconds from the
simulation; all results are real (computed by the actual index structures).

All query modes route through one :class:`~repro.runtime.ClusterRuntime`;
the mode-specific parts live in the
:class:`~repro.runtime.strategies.DispatchStrategy` the config selects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.build import BuildOutput, run_build
from repro.core.config import SystemConfig
from repro.core.searcher import LocalSearcher, ModeledSearcher, RealHnswSearcher
from repro.runtime.report import SearchReport
from repro.utils.validation import check_matrix, check_query

__all__ = ["DistributedANN", "BuildReport", "SearchReport"]


@dataclass
class BuildReport:
    """Construction measurements (Table II's quantities)."""

    #: full construction makespan, virtual seconds
    total_seconds: float
    #: slowest rank's HNSW-construction phase, virtual seconds
    hnsw_seconds: float
    #: slowest rank's VP-partitioning phase, virtual seconds
    vptree_seconds: float
    #: replica-distribution phase, virtual seconds (0 when r == 1)
    replication_seconds: float
    #: real points per partition
    partition_sizes: list[int]
    #: peak per-node resident bytes (replicas included)
    max_node_bytes: int


class DistributedANN:
    """Distributed VP-partitioned HNSW k-NN search on a simulated cluster.

    Example
    -------
    >>> from repro import DistributedANN, SystemConfig
    >>> import numpy as np
    >>> X = np.random.default_rng(0).normal(size=(2000, 32)).astype("float32")
    >>> ann = DistributedANN(SystemConfig(n_cores=4, cores_per_node=2))
    >>> ann.fit(X)                                        # doctest: +ELLIPSIS
    BuildReport(...)
    >>> D, I, report = ann.query(X[:5], k=3)
    >>> I.shape
    (5, 3)
    """

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self._build: BuildOutput | None = None
        self._dim: int | None = None

    # -- construction -----------------------------------------------------------

    def fit(self, X: np.ndarray, metadata=None) -> BuildReport:
        """Build the distributed index over ``X`` (simulated construction).

        ``metadata``: optional per-vector attribute columns — a
        :class:`~repro.filtering.MetadataStore` or a plain ``{name:
        column}`` dict row-aligned with ``X``.  Partitions receive their
        rows' slice, which is what ``query(filter=...)`` predicates on;
        a ``"tenant"`` column is what ``tenant=`` scoping matches.
        """
        X = check_matrix(X, "X")
        self._dim = X.shape[1]
        self._build = run_build(self.config, X, metadata=metadata)
        max_node_bytes = max(
            ns.total_bytes() for ns in self._build.node_stores.values()
        )
        return BuildReport(
            total_seconds=self._build.total_seconds,
            hnsw_seconds=self._build.hnsw_seconds,
            vptree_seconds=self._build.vptree_seconds,
            replication_seconds=self._build.replication_seconds,
            partition_sizes=self._build.partition_sizes,
            max_node_bytes=max_node_bytes,
        )

    @property
    def router(self):
        self._require_fitted()
        return self._build.router

    @property
    def partitions(self):
        self._require_fitted()
        return self._build.partitions

    def _require_fitted(self) -> None:
        if self._build is None:
            raise RuntimeError("call fit(X) before querying")

    def _make_searcher(self) -> LocalSearcher:
        cfg = self.config
        if cfg.searcher == "real":
            return RealHnswSearcher(cfg.cost, cfg.effective_ef_search)
        return ModeledSearcher(
            cfg.cost,
            cfg.effective_ef_search,
            cfg.hnsw.M,
            self._dim,
            cfg.modeled_partition_points,
            metric=cfg.metric,
            search_seconds=cfg.modeled_search_seconds,
        )

    # -- search ---------------------------------------------------------------------

    def query(
        self, Q: np.ndarray, k: int | None = None, *, filter=None, tenant=None
    ) -> tuple[np.ndarray, np.ndarray, SearchReport]:
        """Batch k-NN search.  Returns (distances, ids, report); rows of the
        (n_queries, k) outputs are closest-first, padded with inf/-1.

        ``filter``: restrict every query to rows matching the predicate —
        a :class:`~repro.filtering.FilterSpec`, its text form (JSON or
        shorthand like ``"tier=1,2"``), or a sequence of either (ANDed).
        ``tenant``: scope to one tenant's rows (an implicit ``tenant ==
        id`` clause over the build-time ``tenant`` metadata column).
        Both default to the config's ``filter`` / ``tenant`` fields;
        None everywhere keeps the run bit-identical to unfiltered.
        """
        Q, k = self._check_query(Q, self.config.k if k is None else k)
        return self._run_search(
            Q, k, self._make_searcher(), fpayload=self._resolve_filter(filter, tenant)
        )

    def query_with_searcher(
        self, Q: np.ndarray, k: int, searcher: LocalSearcher, *, filter=None, tenant=None
    ) -> tuple[np.ndarray, np.ndarray, SearchReport]:
        """Batch search with a custom local searcher (the paper's §VI
        extensibility seam — see :mod:`repro.core.localindex`)."""
        Q, k = self._check_query(Q, k)
        return self._run_search(
            Q, k, searcher, fpayload=self._resolve_filter(filter, tenant)
        )

    def _check_query(self, Q: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        """:func:`~repro.utils.validation.check_query` for a fitted system
        (points counted now, so the bound follows ``add_points``)."""
        self._require_fitted()
        n_points = sum(p.n_points for p in self._build.partitions.values())
        return check_query(Q, k, self._dim, n_points)

    def _resolve_filter(self, filter, tenant) -> dict | None:  # noqa: A002
        """The run's wire filter payload, or None for an unfiltered run.

        Per-call arguments override the config's ``filter`` / ``tenant``
        defaults; the tenant becomes an implicit equality clause ANDed
        after the explicit ones.
        """
        from repro.filtering import FilterSpec, clauses_to_wire

        cfg = self.config
        if filter is None:
            filter = cfg.filter  # noqa: A001
        if tenant is None:
            tenant = cfg.tenant
        clauses = []
        if filter is not None:
            if isinstance(filter, (FilterSpec, str)):
                filter = (filter,)  # noqa: A001
            for f in filter:
                clauses.append(f if isinstance(f, FilterSpec) else FilterSpec.parse(f))
        if tenant is not None:
            clauses.append(FilterSpec("tenant", "eq", int(tenant)))
        if not clauses:
            return None
        payload = {
            "clauses": clauses_to_wire(clauses),
            "strategy": cfg.filter_strategy,
        }
        if tenant is not None:
            # the tenant rides the payload so the runtime can account and
            # cache-namespace per tenant (workers only read the clauses)
            payload["tenant"] = int(tenant)
        return payload

    def _run_search(
        self, Q: np.ndarray, k: int, searcher: LocalSearcher, fpayload: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray, SearchReport]:
        # deferred import: repro.runtime's orchestration layer imports the
        # core role programs, so importing it at module scope would cycle
        from repro.runtime import ClusterRuntime, strategy_for

        build = self._build
        runtime = ClusterRuntime(self.config)
        if build.metrics is not None:
            # fold the build-phase hnsw.build.* instruments into the
            # runtime registry so every report/dump carries them
            runtime.metrics.merge(build.metrics)
        return runtime.run_search(
            strategy_for(self.config),
            build.router,
            build.workgroups,
            build.node_stores,
            searcher,
            Q,
            k,
            fpayload=fpayload,
        )

    # -- incremental updates ------------------------------------------------------

    def add_points(self, X_new: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """Insert new points into the fitted index (a practical extension;
        the paper builds statically).

        Each point is routed through the VP skeleton to its containing
        partition (the leaf its descent reaches) and inserted into that
        partition's HNSW index and point store on every replica-holding
        node.  Partition sizes drift from perfectly balanced — the same
        behaviour a static VP split would show under inserts.  Returns the
        assigned global ids.  Only supported with the real searcher.
        """
        self._require_fitted()
        if self.config.searcher != "real":
            raise RuntimeError("add_points requires searcher='real'")
        X_new = check_matrix(X_new, "X_new")
        if X_new.shape[1] != self._dim:
            raise ValueError(f"new points are {X_new.shape[1]}-d, index is {self._dim}-d")
        existing_max = max(int(p.ids.max()) if p.n_points else -1 for p in self.partitions.values())
        if ids is None:
            ids = np.arange(existing_max + 1, existing_max + 1 + len(X_new), dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != len(X_new):
                raise ValueError(f"{len(ids)} ids for {len(X_new)} points")
        router = self._build.router
        # bucket rows by target partition so each partition's point store is
        # grown with one concatenate instead of one per point
        rows_by_partition: dict[int, list[int]] = {}
        for i in range(len(X_new)):
            pid_part = router.route_approx(X_new[i], 1)[0]
            rows_by_partition.setdefault(pid_part, []).append(i)
        for pid_part, row_idx in rows_by_partition.items():
            part = self.partitions[pid_part]
            part.points = np.concatenate([part.points, X_new[row_idx]])
            part.ids = np.concatenate([part.ids, ids[row_idx]])
            # one bulk insert per partition; levels are drawn in row order,
            # so the graph equals the one per-point insertion builds
            part.index.add_items(X_new[row_idx], ids[row_idx])
        return ids
