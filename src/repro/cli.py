"""Command-line interface.

Four subcommands mirroring the lifecycle a user of the real corpora needs:

- ``repro gen``    — synthesize a Table I analogue corpus to fvecs files,
- ``repro build``  — build the distributed index from an fvecs file and
  persist it to a directory (router skeleton + per-partition HNSW files),
- ``repro query``  — load a built index, answer a query fvecs batch, write
  ivecs results, report recall when ground truth is available,
- ``repro bench``  — tiny built-in strong-scaling sweep.

Installed as ``repro`` (console script) or runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

__all__ = ["main", "add_config_flags"]


def add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Add every ``SystemConfig`` field tagged with CLI metadata to ``parser``.

    The config dataclass is the single source of truth for config-backed
    knobs (see :func:`repro.core.config.cli_option`): dest is the field
    name, the default is the field default, and the declared type/choices
    carry over — so a new knob is declared once, on the field, and every
    listed subcommand picks it up.  ``tests/test_cli.py`` asserts the
    round-trip for every tagged field.
    """
    from repro.core.config import SystemConfig

    for f in dataclasses.fields(SystemConfig):
        meta = f.metadata.get("cli")
        if meta is None or command not in meta["commands"]:
            continue
        kwargs: dict = {"dest": f.name, "default": f.default, "help": meta["help"]}
        if meta["choices"] is not None:
            kwargs["choices"] = list(meta["choices"])
        ftype = meta["type"] if meta["type"] is not None else type(f.default)
        if ftype is not str:
            kwargs["type"] = ftype
        parser.add_argument(meta["flag"], **kwargs)


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset, write_fvecs, write_ivecs

    ds = load_dataset(args.dataset, n_points=args.n_points, n_queries=args.n_queries, k=args.k, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_fvecs(os.path.join(args.out, "base.fvecs"), ds.X)
    write_fvecs(os.path.join(args.out, "query.fvecs"), ds.Q)
    write_ivecs(os.path.join(args.out, "groundtruth.ivecs"), ds.gt_ids.astype(np.int32))
    print(
        f"wrote {ds.n_points} x {ds.X.shape[1]} base vectors, {ds.n_queries} queries, "
        f"and exact ground truth (k={args.k}) to {args.out}/"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core import DistributedANN, SystemConfig
    from repro.datasets import read_fvecs
    from repro.hnsw import HnswParams

    X = read_fvecs(args.base)
    # per-vector metadata for filtered search: an .npz of named integer
    # columns, each row-aligned with the base vectors
    metadata = None
    if args.attrs:
        with np.load(args.attrs) as npz:
            metadata = {name: np.asarray(npz[name]) for name in npz.files}
    cfg = SystemConfig(
        n_cores=args.cores,
        cores_per_node=args.cores_per_node,
        k=args.k,
        hnsw=HnswParams(M=args.M, ef_construction=args.ef_construction, seed=args.seed),
        n_probe=args.n_probe,
        seed=args.seed,
    )
    ann = DistributedANN(cfg)
    t0 = time.perf_counter()
    report = ann.fit(X, metadata=metadata)
    wall = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    if metadata is not None:
        # saved beside the partitions so `repro query --filter/--tenant`
        # can re-slice per-partition attribute columns on load
        np.savez_compressed(os.path.join(args.out, "attrs.npz"), **metadata)
    meta = {
        "dim": int(X.shape[1]),
        "n_points": int(len(X)),
        "n_cores": cfg.n_cores,
        "cores_per_node": cfg.cores_per_node,
        "k": cfg.k,
        "M": cfg.hnsw.M,
        "ef_construction": cfg.hnsw.ef_construction,
        "n_probe": cfg.n_probe,
        "seed": cfg.seed,
        "partition_sizes": report.partition_sizes,
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    _save_router(ann.router, os.path.join(args.out, "router.npz"))
    for pid, part in ann.partitions.items():
        part.index.save(os.path.join(args.out, f"partition{pid}.npz"))
    print(
        f"built {cfg.n_cores} partitions in {wall:.1f}s wall "
        f"({report.total_seconds:.3f}s virtual cluster time; "
        f"VP {report.vptree_seconds:.3f}s, HNSW {report.hnsw_seconds:.3f}s)\n"
        f"index saved to {args.out}/"
    )
    return 0


def _save_router(router, path: str) -> None:
    """Flatten the RouteNode tree to arrays (preorder)."""
    vps, mus, partitions = [], [], []

    def rec(node) -> None:
        if node.is_leaf:
            vps.append(np.zeros(0, dtype=np.float32))
            mus.append(-1.0)
            partitions.append(node.partition)
        else:
            vps.append(np.asarray(node.vp, dtype=np.float32))
            mus.append(float(node.mu))
            partitions.append(-1)
            rec(node.left)
            rec(node.right)

    rec(router.root)
    lengths = np.array([len(v) for v in vps], dtype=np.int64)
    np.savez_compressed(
        path,
        vp_flat=np.concatenate(vps) if vps else np.zeros(0, dtype=np.float32),
        vp_lengths=lengths,
        mus=np.array(mus),
        partitions=np.array(partitions, dtype=np.int64),
        n_partitions=np.array([router.n_partitions]),
    )


def _load_router(path: str):
    from repro.vptree.router import PartitionRouter, RouteNode

    with np.load(path) as data:
        vp_flat, lengths, mus, partitions, n_partitions = (
            data[name] for name in ("vp_flat", "vp_lengths", "mus", "partitions", "n_partitions")
        )
    # refuse what ``_save_router`` cannot have written.  In preorder each
    # internal node opens two subtrees and each leaf closes one, so a whole
    # tree closes its last subtree at its last node and not before
    n, inner = len(partitions), partitions < 0
    open_subtrees = 1 + np.cumsum(np.where(inner, 1, -1))
    leaves = partitions[~inner]
    n_parts = int(n_partitions[0]) if n_partitions.shape == (1,) else 0
    for name, ok in (
        ("n_partitions", n_parts >= 1),
        ("partitions", n > 0 and open_subtrees[-1] == 0 and np.all(open_subtrees[:-1] > 0)
         and np.all(leaves < n_parts) and len(np.unique(leaves)) == len(leaves)),
        ("mus", mus.shape == (n,) and np.all(np.isfinite(mus[inner]) & (mus[inner] >= 0))),
        ("vp_lengths", lengths.shape == (n,) and np.all(lengths[~inner] == 0)
         and len(set(lengths[inner].tolist())) <= 1 and np.all(lengths[inner] > 0)),
        ("vp_flat", int(lengths.sum()) == len(vp_flat)),
    ):
        if not ok:
            raise ValueError(f"{path}: not a saved router: bad {name!r} array")
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    pos = [0]

    def rec() -> RouteNode:
        i = pos[0]
        pos[0] += 1
        if partitions[i] >= 0:
            return RouteNode(partition=int(partitions[i]))
        vp = vp_flat[offsets[i] : offsets[i + 1]]
        left = rec()
        right = rec()
        return RouteNode(vp=vp, mu=float(mus[i]), left=left, right=right)

    return PartitionRouter(rec(), n_parts)


def _load_fault_spec(path: str | None):
    if not path:
        return None
    from repro.faults import FaultSpec

    return FaultSpec.from_json(path)


def _print_fault_summary(rep) -> None:
    from repro.eval import availability_stats

    stats = availability_stats(rep.completeness, rep.n_queries)
    print(f"faults: {stats}")
    print(
        f"faults: {rep.retries} retries, {rep.failovers} failovers, "
        f"{rep.failed_tasks} abandoned tasks, {rep.duplicate_results} duplicates dropped, "
        f"suspected dead cores {rep.suspected_dead_cores}"
    )


def _print_load_summary(cfg, rep) -> None:
    """Imbalance line, shown whenever replica choice can matter."""
    if cfg.replication_factor <= 1 and cfg.replica_selector == "primary":
        return
    if rep.core_busy_seconds is None:
        return
    from repro.eval import imbalance_stats

    print(f"load: selector {cfg.replica_selector!r}, {imbalance_stats(rep.core_busy_seconds)}")


def _print_pipeline_summary(cfg, rep) -> None:
    """Flow-control line, shown whenever dispatch is credit-windowed."""
    if cfg.dispatch_window <= 0:
        return
    print(
        f"pipeline: window {cfg.dispatch_window}/core, "
        f"peak {rep.max_outstanding_tasks} in flight, "
        f"credit stalls {rep.credit_stall_seconds*1e3:.2f} ms, "
        f"{rep.credits_leaked} credits leaked"
    )


def _print_serving_summary(cfg, rep) -> None:
    """Admission/cache/SLO lines, shown on open-loop serving runs."""
    if cfg.arrival is None:
        return
    from repro.eval import serving_stats

    s = serving_stats(rep)
    print(
        f"serving: arrival {cfg.arrival!r}, offered {s.offered}, "
        f"admitted {s.admitted}, shed {s.shed}, rejected {s.rejected}, "
        f"peak ingress queue {s.max_ingress_depth}"
    )
    if cfg.cache_size > 0:
        print(
            f"serving: cache {cfg.cache_size} entries, {s.cache_hits} hits / "
            f"{s.cache_misses} misses / {s.cache_stale} stale "
            f"({s.cache_hit_rate:.0%} hit rate)"
        )
    if cfg.slo_ms > 0:
        print(
            f"serving: SLO {cfg.slo_ms:g} ms, "
            f"violation fraction {s.slo_violation_fraction:.2%} "
            f"(mean queue {s.mean_queue_seconds*1e3:.3f} ms, "
            f"mean service {s.mean_service_seconds*1e3:.3f} ms)"
        )


def _print_filter_summary(cfg, rep) -> None:
    """Filtered-execution lines, shown whenever a filter/tenant was active."""
    if rep.filtered_queries <= 0 and rep.tenant_id < 0:
        return
    if rep.filtered_queries > 0:
        print(
            f"filter: {rep.filtered_queries} filtered queries, "
            f"{rep.filter_tasks_pre} pre / {rep.filter_tasks_post} post tasks, "
            f"{rep.filter_evals_pre + rep.filter_evals_post} dist evals "
            f"({rep.filter_evals_pre} pre, {rep.filter_evals_post} post), "
            f"{rep.filter_empty_tasks} empty tasks"
        )
    if rep.tenant_id >= 0:
        print(f"filter: tenant {rep.tenant_id}, {rep.tenant_queries} tenant queries")


def _print_latency_summary(rep) -> None:
    """Per-query latency percentiles, whenever they were observable."""
    lat = rep.query_latencies
    if lat is None or not np.any(np.isfinite(np.asarray(lat, dtype=np.float64))):
        return
    from repro.eval import latency_stats

    ls = latency_stats(lat)
    print(
        f"latency: p50 {ls.p50*1e3:.3f} ms, p90 {ls.p90*1e3:.3f} ms, "
        f"p99 {ls.p99*1e3:.3f} ms, p999 {ls.p999*1e3:.3f} ms, "
        f"max {ls.max*1e3:.3f} ms ({ls.n} observed)"
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core import DistributedANN, SystemConfig
    from repro.core.partition import Partition
    from repro.datasets import read_fvecs, read_ivecs, write_ivecs
    from repro.hnsw import HnswIndex, HnswParams

    with open(os.path.join(args.index, "meta.json")) as fh:
        meta = json.load(fh)
    fault_spec = _load_fault_spec(args.faults)
    cfg = SystemConfig(
        n_cores=meta["n_cores"],
        cores_per_node=meta["cores_per_node"],
        k=args.k or meta["k"],
        hnsw=HnswParams(M=meta["M"], ef_construction=meta["ef_construction"], seed=meta["seed"]),
        n_probe=args.n_probe or meta["n_probe"],
        replication_factor=args.replication_factor,
        replica_selector=args.replica_selector,
        batch_size=args.batch_size,
        dispatch_window=args.dispatch_window,
        arrival=args.arrival,
        queue_depth=args.queue_depth,
        overload_policy=args.overload_policy,
        cache_size=args.cache_size,
        slo_ms=args.slo_ms,
        trace_out=args.trace_out,
        events_out=args.events_out,
        metrics_out=args.metrics_out,
        explain_top=args.explain_top,
        filter=args.filter,
        tenant=args.tenant,
        filter_strategy=args.filter_strategy,
        seed=meta["seed"],
        # fault tolerance tracks per-task deadlines at the master, which
        # needs the two-sided result path; serving needs it too unless a
        # credit window gives the master a one-sided completion signal
        one_sided=fault_spec is None and (args.arrival is None or args.dispatch_window > 0),
        fault_spec=fault_spec,
    )
    ann = DistributedANN(cfg)
    # reconstitute the fitted state from disk
    from repro.core.build import BuildOutput
    from repro.core.partition import NodeStore
    from repro.core.replication import Workgroups

    router = _load_router(os.path.join(args.index, "router.npz"))
    # per-vector metadata saved by `repro build --attrs`; without it a
    # --filter/--tenant query matches nothing (unknown attribute => empty)
    metadata = None
    attrs_path = os.path.join(args.index, "attrs.npz")
    if os.path.exists(attrs_path):
        from repro.filtering import MetadataStore

        with np.load(attrs_path) as npz:
            columns = {name: npz[name] for name in npz.files}
        for name, column in columns.items():
            if column.shape != (meta["n_points"],):
                raise ValueError(f"{attrs_path}: not this index's attributes: bad {name!r} array")
        metadata = MetadataStore(columns)
    partitions = {}
    for pid in range(meta["n_cores"]):
        idx = HnswIndex.load(os.path.join(args.index, f"partition{pid}.npz"))
        part_ids = np.array([idx.external_id(i) for i in range(len(idx))])
        partitions[pid] = Partition(
            pid, idx.points.copy(), part_ids,
            index=idx,
            attrs=metadata.slice_rows(part_ids) if metadata is not None else None,
        )
    workgroups = Workgroups(cfg.n_cores, cfg.replication_factor)
    node_stores = {n: NodeStore(n) for n in range(cfg.n_nodes)}
    for pid, part in partitions.items():
        for core in workgroups.cores_for_partition(pid):
            node_stores[cfg.node_of_core(core)].add(part)
    ann._build = BuildOutput(
        router=router,
        partitions=partitions,
        node_stores=node_stores,
        workgroups=workgroups,
        total_seconds=0.0,
        hnsw_seconds=0.0,
        vptree_seconds=0.0,
        replication_seconds=0.0,
        partition_sizes=[p.n_points for p in partitions.values()],
    )
    ann._dim = meta["dim"]

    Q = read_fvecs(args.queries)
    D, I, rep = ann.query(Q)
    if args.out:
        write_ivecs(args.out, I.astype(np.int32))
        print(f"wrote neighbor ids to {args.out}")
    print(
        f"{rep.n_queries} queries, {rep.tasks} tasks in {rep.task_messages} "
        f"messages, virtual time "
        f"{rep.total_seconds*1e3:.2f} ms ({rep.throughput:,.0f} q/s)"
    )
    _print_load_summary(cfg, rep)
    _print_pipeline_summary(cfg, rep)
    _print_serving_summary(cfg, rep)
    _print_filter_summary(cfg, rep)
    _print_latency_summary(rep)
    if fault_spec is not None:
        _print_fault_summary(rep)
    if any(v > 0 for v in rep.phase_breakdown.values()):
        from repro.eval import format_phase_breakdown

        print(format_phase_breakdown(rep.phase_breakdown, title="phase breakdown (summed over procs)"))
    if args.groundtruth:
        from repro.eval import recall_at_k

        gt = read_ivecs(args.groundtruth).astype(np.int64)
        k = min(I.shape[1], gt.shape[1])
        print(f"recall@{k} = {recall_at_k(I[:, :k], gt[:, :k]):.4f}")
    _write_obs_outputs(cfg, rep)
    return 0


def _write_obs_outputs(cfg, rep) -> int:
    """Emit the observability artifacts the config asked for."""
    if cfg.trace_out:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(cfg.trace_out, rep.trace, rep)
        print(f"wrote Chrome trace to {cfg.trace_out} (open in ui.perfetto.dev)")
    if cfg.events_out:
        from repro.obs.export import write_events_jsonl

        write_events_jsonl(cfg.events_out, rep.trace, rep)
        print(f"wrote event log to {cfg.events_out}")
    if cfg.metrics_out:
        from repro.obs.export import write_metrics_json

        write_metrics_json(cfg.metrics_out, rep.metrics)
        print(f"wrote metrics dump to {cfg.metrics_out}")
    if cfg.explain_top > 0:
        from repro.obs.explain import render_explain

        print(render_explain(rep, cfg.explain_top))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core import DistributedANN, SystemConfig
    from repro.datasets import load_dataset, sample_queries
    from repro.eval import speedup_table
    from repro.hnsw import HnswParams

    ds = load_dataset(args.dataset, n_points=args.n_points, n_queries=10, seed=args.seed)
    Q = sample_queries(ds.X, args.n_queries, noise_scale=0.05, seed=args.seed + 1)
    fault_spec = _load_fault_spec(args.faults)
    meas = []
    for P in args.cores:
        cfg = SystemConfig(
            n_cores=P,
            cores_per_node=min(24, P),
            hnsw=HnswParams(M=16, ef_construction=100),
            searcher="modeled",
            modeled_partition_points=max(ds.paper_n_points // P, 64),
            modeled_sample_points=16,
            modeled_search_seconds=args.task_seconds,
            n_probe=3,
            replication_factor=min(args.replication_factor, P),
            replica_selector=args.replica_selector,
            skew=args.skew,
            batch_size=args.batch_size,
            dispatch_window=args.dispatch_window,
            arrival=args.arrival,
            queue_depth=args.queue_depth,
            overload_policy=args.overload_policy,
            cache_size=args.cache_size,
            slo_ms=args.slo_ms,
            filter=args.filter,
            tenant=args.tenant,
            filter_strategy=args.filter_strategy,
            seed=args.seed,
            one_sided=fault_spec is None
            and (args.arrival is None or args.dispatch_window > 0),
            fault_spec=fault_spec,
        )
        ann = DistributedANN(cfg)
        # synthetic corpora carry no attributes; a filtered bench run gets
        # deterministic round-robin tier/tenant columns so predicates match
        metadata = None
        if args.filter is not None or args.tenant is not None:
            rows = np.arange(len(ds.X))
            metadata = {"tier": rows % 8, "tenant": rows % 4}
        ann.fit(ds.X, metadata=metadata)
        if cfg.skew > 0:
            # aim the batch at partitions with Zipf-distributed popularity:
            # the skewed-serving workload replica selection is for
            from repro.datasets import zipf_queries

            anchors = np.stack(
                [p.points.mean(axis=0) for p in ann.partitions.values() if p.n_points]
            )
            Qrun = zipf_queries(anchors, args.n_queries, skew=cfg.skew, seed=args.seed + 1)
        else:
            Qrun = Q
        _, _, rep = ann.query(Qrun)
        meas.append((P, rep.total_seconds))
        print(f"P={P:5d}  virtual {rep.total_seconds:.4f}s")
        _print_load_summary(cfg, rep)
        _print_pipeline_summary(cfg, rep)
        _print_serving_summary(cfg, rep)
        _print_filter_summary(cfg, rep)
        _print_latency_summary(rep)
        if fault_spec is not None:
            _print_fault_summary(rep)
    for row in speedup_table(meas):
        print(f"  {row.cores:5d} cores: speedup {row.speedup:6.2f}  efficiency {row.efficiency:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="synthesize a Table I analogue corpus")
    g.add_argument("dataset", choices=["ANN_SIFT1B", "DEEP1B", "ANN_GIST1M", "SYN_1M", "SYN_10M"])
    g.add_argument("--out", required=True)
    g.add_argument("--n-points", type=int, default=10_000, dest="n_points")
    g.add_argument("--n-queries", type=int, default=100, dest="n_queries")
    g.add_argument("--k", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("build", help="build + persist the distributed index")
    b.add_argument("base", help="base vectors (.fvecs)")
    b.add_argument("--out", required=True)
    b.add_argument("--cores", type=int, default=8)
    b.add_argument("--cores-per-node", type=int, default=4, dest="cores_per_node")
    b.add_argument("--k", type=int, default=10)
    b.add_argument("--M", type=int, default=16)
    b.add_argument("--ef-construction", type=int, default=100, dest="ef_construction")
    b.add_argument("--n-probe", type=int, default=3, dest="n_probe")
    b.add_argument("--attrs", help="per-vector metadata (.npz of named int columns, row-aligned with base)")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="answer a query batch from a saved index")
    q.add_argument("index", help="index directory from `repro build`")
    q.add_argument("queries", help="query vectors (.fvecs)")
    q.add_argument("--out", help="write neighbor ids (.ivecs)")
    q.add_argument("--groundtruth", help="exact ids (.ivecs) to compute recall")
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--n-probe", type=int, default=None, dest="n_probe")
    q.add_argument("--faults", help="fault scenario JSON (switches to fault-tolerant dispatch)")
    add_config_flags(q, "query")
    q.set_defaults(func=_cmd_query)

    be = sub.add_parser("bench", help="strong-scaling sweep on the simulated cluster")
    be.add_argument("--dataset", default="ANN_SIFT1B")
    be.add_argument("--cores", type=int, nargs="+", default=[64, 128, 256])
    be.add_argument("--n-points", type=int, default=4096, dest="n_points")
    be.add_argument("--n-queries", type=int, default=1000, dest="n_queries")
    be.add_argument("--task-seconds", type=float, default=2e-3, dest="task_seconds")
    be.add_argument("--faults", help="fault scenario JSON (switches to fault-tolerant dispatch)")
    add_config_flags(be, "bench")
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(func=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from repro.simmpi.errors import SimConfigError

        if isinstance(exc, (SimConfigError, ValueError, OSError)):
            # configuration mistakes (incompatible mode combinations, bad
            # arrival specs, missing files, ...) get one clear line instead
            # of a traceback
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
