"""Construction orchestration: fit-time simulation.

Runs the full distributed index construction on the simulated cluster:

1. the dataset is equi-partitioned over the P builder ranks,
2. all ranks run :func:`~repro.vptree.distributed.distributed_build`
   (Algorithms 1-2) to produce one VP-leaf partition per rank,
3. each rank builds its partition's local HNSW index — for real in
   fidelity mode (charging the exact distance evaluations the build
   performed), analytically in modeled mode.  A real compiled insert runs
   on a host worker thread from the moment the rank's leaf is fixed; the
   simulated rank waits for it where it builds, so threads change host
   time only,
4. rank 0 gathers the per-rank construction paths and assembles the
   global :class:`~repro.vptree.router.PartitionRouter`,
5. replicas are shipped to workgroup nodes (charged as broadcasts of the
   partition bytes — the memory/transfer cost of the load-balancing
   optimisation).

Returns the materialized partitions (real Python objects extracted from
the proc return values) and per-phase virtual timings: the numbers Table II
reports.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.config import SystemConfig
from repro.core.partition import NodeStore, Partition
from repro.core.replication import Workgroups
from repro.hnsw.index import HnswIndex
from repro.obs.metrics import MetricsRegistry
from repro.simmpi.comm import Comm
from repro.simmpi.engine import Simulation
from repro.utils.rng import rng_for
from repro.vptree.distributed import distributed_build
from repro.vptree.router import PartitionRouter

__all__ = ["BuildOutput", "run_build"]


@dataclass
class BuildOutput:
    """Everything fit() produces."""

    router: PartitionRouter
    partitions: dict[int, Partition]
    node_stores: dict[int, NodeStore]
    workgroups: Workgroups
    #: virtual seconds: whole construction makespan
    total_seconds: float
    #: virtual seconds of the slowest rank's HNSW (local index) phase
    hnsw_seconds: float
    #: virtual seconds of the slowest rank's VP partitioning phase
    vptree_seconds: float
    #: virtual seconds spent distributing replicas (0 when r == 1)
    replication_seconds: float
    #: real points per partition
    partition_sizes: list[int]
    #: build-phase instruments (hnsw.build.*); None when reconstituted
    #: from saved artifacts, where the build ran in another process
    metrics: MetricsRegistry | None = None


def _place_worker(cpus, mask) -> None:
    """Start a pool worker on a CPU of its own, then free it to move.

    Without this, every worker is woken onto the CPU of the thread that
    submits to it — the one running the simulation — and the builds queue
    there while the other CPUs idle (docs/performance.md, "HNSW builds on
    host threads during fit").  Placement is a hint, so a refused mask is
    ignored.
    """
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {next(cpus)})
        os.sched_setaffinity(0, mask)


def _build_pool() -> ThreadPoolExecutor:
    """One worker per usable CPU, each started on a distinct one."""
    if not hasattr(os, "sched_setaffinity"):
        return ThreadPoolExecutor(max_workers=os.cpu_count() or 1)
    mask = os.sched_getaffinity(0)
    return ThreadPoolExecutor(
        max_workers=len(mask), initializer=_place_worker, initargs=(iter(sorted(mask)), mask)
    )


def _builder_program(
    ctx, world: Comm, config: SystemConfig, X, chunk_ids, work_scale, metadata, pool
):
    """One builder rank: VP partitioning, then the local HNSW build.

    With the real searcher the rank's HNSW index is created as soon as
    ``distributed_build`` fixes its leaf, and a compiled insert goes to
    ``pool`` right then; the rank waits for it where it builds the graph,
    so the simulated program and its virtual clock are those of an inline
    build.  Without a compiled insert the build runs inline at that point.
    """
    rank = world.rank(ctx)
    leaf = []

    def on_leaf(points, ids):
        index = HnswIndex(
            dim=X.shape[1],
            params=config.hnsw,
            metric=config.metric,
            capacity=max(len(ids), 16),
        )
        job = None
        if len(ids) and index.native_build_active:
            insert = index.stage_items(points, ids)
            job = (pool.submit(insert.run), insert)
        leaf[:] = index, job

    res = yield from distributed_build(
        ctx,
        world,
        X[chunk_ids],
        chunk_ids,
        metric=config.metric,
        seed=config.seed,
        work_scale=work_scale,
        on_leaf=on_leaf if config.searcher == "real" else None,
    )
    t_partition_done = ctx.now

    if config.searcher == "real":
        index, job = leaf
        if job is not None:
            future, insert = job
            future.result()
            insert.finish()
        elif len(res.ids):
            index.add_items(res.points, res.ids)
        build_cost = ctx.cost.distance_cost(index.n_dist_evals, X.shape[1])
        build_cost += ctx.cost.graph_update_cost(len(index) * config.hnsw.M)
        yield from ctx.compute(build_cost, kind="build_hnsw")
        partition = Partition(rank, res.points, res.ids, index=index)
        sample_rows = None
    else:
        yield from ctx.compute(
            ctx.cost.hnsw_build_cost(
                config.modeled_partition_points,
                X.shape[1],
                config.hnsw.ef_construction,
                config.hnsw.M,
            ),
            kind="build_hnsw",
        )
        n_keep = min(config.modeled_sample_points, len(res.ids))
        rng = rng_for(config.seed, "modeled_sample", rank)
        if n_keep and len(res.ids):
            keep = rng.choice(len(res.ids), size=n_keep, replace=False)
            sample = (res.points[keep].copy(), res.ids[keep].copy())
            sample_rows = np.asarray(keep, dtype=np.int64)
        else:
            sample = (
                np.empty((0, X.shape[1]), dtype=np.float32),
                np.empty(0, dtype=np.int64),
            )
            sample_rows = np.empty(0, dtype=np.int64)
        partition = Partition(
            rank, res.points, res.ids, sample=sample, sample_rows=sample_rows
        )
    if metadata is not None:
        # the partition's slice of the attribute store, row-aligned with
        # its points (res.ids are global dataset rows); rides the replica
        # broadcast below via partition.nbytes
        partition.attrs = metadata.slice_rows(res.ids)
    t_hnsw_done = ctx.now

    # replica distribution: each partition is broadcast to the other r-1
    # workgroup cores' nodes (skipped when they share this core's node)
    r = config.replication_factor
    if r > 1:
        nbytes = int(partition.nbytes * work_scale)
        my_node = config.node_of_core(rank)
        other_nodes = {
            config.node_of_core(c)
            for c in ((rank + j) % config.n_cores for j in range(1, r))
        } - {my_node}
        for _ in other_nodes:
            yield from ctx.compute(
                ctx.network.p2p_time(nbytes, same_node=False), kind="replicate"
            )
    yield from world.barrier(ctx)
    t_replicated = ctx.now

    paths = yield from world.gather(ctx, res.path, root=0)
    return {
        "partition": partition,
        "paths": paths,
        "t_partition": t_partition_done,
        "t_hnsw": t_hnsw_done - t_partition_done,
        "t_replicated": t_replicated,
    }


def run_build(config: SystemConfig, X: np.ndarray, metadata=None) -> BuildOutput:
    """Simulate the whole construction; return materialized partitions.

    ``metadata``: optional per-vector attribute columns — a
    :class:`~repro.filtering.MetadataStore` or a plain ``{name: column}``
    dict aligned with ``X``'s rows.  Each partition receives its rows'
    slice (``Partition.attrs``), which is what filtered queries predicate
    on at the workers.
    """
    P = config.n_cores
    if len(X) < P:
        raise ValueError(f"dataset has {len(X)} points for {P} partitions")
    if metadata is not None:
        from repro.filtering import MetadataStore

        if not isinstance(metadata, MetadataStore):
            metadata = MetadataStore(metadata)
        if len(metadata) != len(X):
            raise ValueError(
                f"metadata has {len(metadata)} rows, dataset has {len(X)}"
            )
    work_scale = 1.0
    if config.searcher == "modeled":
        work_scale = max(1.0, config.modeled_partition_points * P / len(X))

    sim = Simulation(network=config.network, cost=config.cost)
    rng = rng_for(config.seed, "equipartition")
    perm = rng.permutation(len(X))
    chunks = np.array_split(perm, P)

    # `world` is assigned after the procs are registered; the program
    # closures late-bind it and only dereference it once the sim runs.
    world: Comm

    def program_factory(rank):
        def program(ctx):
            return (
                yield from _builder_program(
                    ctx, world, config, X, np.sort(chunks[rank]), work_scale, metadata, pool
                )
            )

        return program

    pids = [
        sim.add_proc(program_factory(rank), node=config.node_of_core(rank), name=f"build{rank}")
        for rank in range(P)
    ]
    world = Comm(sim, pids, "build")
    # the ranks' compiled HNSW inserts run here while the simulation goes
    # on; the shutdown drops what a failed run left queued and joins every
    # worker, so no thread outlives the build
    pool = _build_pool()
    try:
        out = sim.run()
    finally:
        pool.shutdown(cancel_futures=True)

    results = [out.results[pid] for pid in pids]
    partitions = {r: results[r]["partition"] for r in range(P)}
    router = PartitionRouter.from_paths(results[0]["paths"], metric=config.metric) if P > 1 else None
    if router is None:
        from repro.vptree.router import RouteNode

        router = PartitionRouter(RouteNode(partition=0), 1, config.metric)

    workgroups = Workgroups(P, config.replication_factor)
    node_stores: dict[int, NodeStore] = {
        n: NodeStore(n) for n in range(config.n_nodes)
    }
    for pid_part in range(P):
        for core in workgroups.cores_for_partition(pid_part):
            node_stores[config.node_of_core(core)].add(partitions[pid_part])

    t_partition = max(r["t_partition"] for r in results)
    t_hnsw = max(r["t_hnsw"] for r in results)
    t_replicated = max(r["t_replicated"] for r in results)

    # build-phase instruments, merged into the runtime registry at query
    # time so build cost shows up in --metrics-out dumps like search cost
    metrics = MetricsRegistry()
    real_indexes = [
        p.index for p in partitions.values() if getattr(p, "index", None) is not None
    ]
    metrics.counter("hnsw.build.dist_evals").inc(
        sum(ix.n_dist_evals for ix in real_indexes)
    )
    metrics.counter("hnsw.build.shrink_ops").inc(
        sum(getattr(ix, "n_shrink_ops", 0) for ix in real_indexes)
    )
    metrics.gauge("hnsw.build.native_build_active").set(
        int(any(getattr(ix, "native_build_active", False) for ix in real_indexes))
    )
    return BuildOutput(
        router=router,
        partitions=partitions,
        node_stores=node_stores,
        workgroups=workgroups,
        total_seconds=out.makespan,
        hnsw_seconds=t_hnsw,
        vptree_seconds=t_partition,
        replication_seconds=max(0.0, t_replicated - t_partition - t_hnsw),
        partition_sizes=[partitions[r].n_points for r in range(P)],
        metrics=metrics,
    )
