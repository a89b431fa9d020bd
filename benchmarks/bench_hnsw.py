"""HNSW hot-path benchmark: build throughput, query throughput, recall.

The simulated cluster charges *virtual* seconds for every search, but the
algorithmic work — HNSW build and search — runs for real in NumPy, so its
wall-clock cost is the real cost of every experiment and test run in this
repo.  This harness measures that cost on a seeded clustered dataset and
writes ``benchmarks/BENCH_hnsw.json``:

- build points/s (bulk ``add_items`` of the whole corpus),
- single-query qps (one ``knn_search`` call per query),
- batched qps (``knn_search_batch`` over the whole query matrix; falls back
  to the single-query loop on index versions without the batch API),
- recall@k against exact brute force,
- distance evaluations per query (the quantity virtual time is charged on),
- a SHA-256 checksum of the (D, I) results, so two implementations can be
  compared for bit-identical output at a fixed seed.

If a previous ``BENCH_hnsw.json`` exists it is folded into the new file as
``previous`` (plus a rolling ``history``), and the combined build+search
speedup against it is computed — the recorded perf trajectory.  With
``--max-regress`` the run fails when a rate fell against that previous run.

Run via ``make bench`` (full size: n=20k, d=32) or ``make bench-smoke``
(``--tiny``; used by CI, which also enforces a recall floor).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.datasets import brute_force_knn  # noqa: E402
from repro.hnsw import HnswIndex, HnswParams  # noqa: E402


def results_checksum(D: np.ndarray, ids: np.ndarray) -> str:
    """SHA-256 over the (D, I) result matrices — the bit-identity gate."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(D, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
    return h.hexdigest()


def get_path(report: dict, dotted: str):
    """``report["a"]["b"]`` for ``"a.b"``; None when any segment is absent."""
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def make_dataset(n: int, dim: int, n_queries: int, seed: int):
    """Seeded clustered corpus + queries (queries are perturbed base points)."""
    rng = np.random.default_rng([seed, 0xBE7C])
    n_clusters = 32
    centers = rng.normal(0.0, 4.0, size=(n_clusters, dim)).astype(np.float32)
    assign = rng.integers(0, n_clusters, size=n)
    X = (centers[assign] + rng.normal(0.0, 1.0, size=(n, dim))).astype(np.float32)
    picks = rng.choice(n, size=n_queries, replace=False)
    Q = (X[picks] + rng.normal(0.0, 0.1, size=(n_queries, dim))).astype(np.float32)
    return X, Q


def search_batched(index: HnswIndex, Q: np.ndarray, k: int, ef: int):
    """Batched search, tolerating index versions without the batch API."""
    batch = getattr(index, "knn_search_batch", None)
    if batch is not None:
        return batch(Q, k, ef=ef)
    D = np.full((len(Q), k), np.inf, dtype=np.float64)
    ids = np.full((len(Q), k), -1, dtype=np.int64)
    for i in range(len(Q)):
        d, nn = index.knn_search(Q[i], k, ef=ef)
        D[i, : len(d)] = d
        ids[i, : len(nn)] = nn
    return D, ids


def run(args: argparse.Namespace) -> dict:
    X, Q = make_dataset(args.n, args.dim, args.n_queries, args.seed)
    gt_d, gt_i = brute_force_knn(X, Q, args.k, metric=args.metric)
    params = HnswParams(
        M=args.M, ef_construction=args.ef_construction, ef_search=args.ef_search, seed=args.seed
    )

    index = HnswIndex(dim=args.dim, params=params, metric=args.metric, capacity=args.n)
    t0 = time.perf_counter()
    index.add_items(X)
    build_seconds = time.perf_counter() - t0
    build_evals = index.n_dist_evals

    # single-query pass (one Python call per query, the worker's unbatched path)
    t0 = time.perf_counter()
    singles = [index.knn_search(Q[i], args.k, ef=args.ef_search) for i in range(len(Q))]
    single_seconds = time.perf_counter() - t0
    search_evals = index.n_dist_evals - build_evals
    D = np.full((len(Q), args.k), np.inf, dtype=np.float64)
    ids = np.full((len(Q), args.k), -1, dtype=np.int64)
    for i, (d, nn) in enumerate(singles):
        D[i, : len(d)] = d
        ids[i, : len(nn)] = nn

    # batched pass (amortized dispatch; identical traversal per query)
    t0 = time.perf_counter()
    Db, idsb = search_batched(index, Q, args.k, args.ef_search)
    batched_seconds = time.perf_counter() - t0

    if not (np.array_equal(ids, idsb) and np.array_equal(D, Db)):
        print("WARNING: batched results differ from single-query results", file=sys.stderr)

    hits = sum(len(set(ids[i][ids[i] >= 0]) & set(gt_i[i])) for i in range(len(Q)))
    recall = hits / (len(Q) * args.k)

    report = {
        "schema": 1,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "n": args.n,
            "dim": args.dim,
            "n_queries": args.n_queries,
            "k": args.k,
            "M": args.M,
            "ef_construction": args.ef_construction,
            "ef_search": args.ef_search,
            "metric": args.metric,
            "seed": args.seed,
        },
        "build": {
            "seconds": round(build_seconds, 4),
            "points_per_s": round(args.n / build_seconds, 1),
            "dist_evals": int(build_evals),
        },
        "search": {
            "single_seconds": round(single_seconds, 4),
            "single_qps": round(len(Q) / single_seconds, 1),
            "batched_seconds": round(batched_seconds, 4),
            "batched_qps": round(len(Q) / batched_seconds, 1),
            "recall_at_k": round(recall, 4),
            "dist_evals_per_query": round(search_evals / len(Q), 1),
        },
        "combined_seconds": round(build_seconds + single_seconds + batched_seconds, 4),
        "results_sha256": results_checksum(D, ids),
    }
    return report


#: fields a previous run keeps when folded into the trajectory history
#: (bespoke flat names mapped onto the nested report — key names are pinned
#: so the recorded history stays continuous across harness versions)
TRIM_FIELDS = {
    "created": "created",
    "config": "config",
    # the full build block (seconds + dist_evals, not just the headline
    # points_per_s) so the build-speedup trajectory is reconstructable
    "build": "build",
    "build_points_per_s": "build.points_per_s",
    "single_qps": "search.single_qps",
    "batched_qps": "search.batched_qps",
    "recall_at_k": "search.recall_at_k",
    "dist_evals_per_query": "search.dist_evals_per_query",
    "combined_seconds": "combined_seconds",
    "results_sha256": "results_sha256",
}


def load_previous(out_path: str) -> dict | None:
    """The previous report at ``out_path``, or None (missing/corrupt)."""
    if not os.path.exists(out_path):
        return None
    try:
        with open(out_path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"NOTE: could not read previous {out_path}: {exc}", file=sys.stderr)
        return None


def fold_with_speedup(report: dict, out_path: str, cap: int = 20) -> dict:
    """Record the previous run (trimmed to ``TRIM_FIELDS``), a rolling
    history of at most ``cap`` runs, and the speedup against it."""
    prev = load_previous(out_path)
    if prev is None:
        return report
    trimmed = {name: get_path(prev, path) for name, path in TRIM_FIELDS.items()}
    report["history"] = (prev.get("history", []) + [trimmed])[-cap:]
    report["previous"] = trimmed
    prev_combined = prev.get("combined_seconds")
    comparable = prev.get("config") == report["config"]
    if comparable and prev_combined:
        report["speedup_vs_previous"] = round(prev_combined / report["combined_seconds"], 2)
        report["bit_identical_to_previous"] = (
            prev.get("results_sha256") == report["results_sha256"]
        )
    elif not comparable:
        print("NOTE: previous run used a different config; no speedup computed")
    return report


def regressions(report: dict, names, max_regress: float) -> list[str]:
    """One line per higher-is-better rate (a ``TRIM_FIELDS`` name) that
    fell more than the fraction ``max_regress`` below the folded-in
    ``previous`` run.  Nothing is compared (and nothing fails) without a
    previous run of the same ``config``: rates of different corpora say
    nothing about each other."""
    prev = report.get("previous")
    if prev is None or prev.get("config") != report.get("config"):
        return []
    out = []
    for name in names:
        was, now = prev.get(name), get_path(report, TRIM_FIELDS[name])
        if was and now is not None and now < (1.0 - max_regress) * was:
            out.append(f"{TRIM_FIELDS[name]} fell {1.0 - now / was:.0%}: {was:,.1f} -> {now:,.1f}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="HNSW hot-path benchmark")
    ap.add_argument("--n", type=int, default=20_000, help="corpus size")
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--n-queries", type=int, default=200, dest="n_queries")
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--M", type=int, default=16)
    ap.add_argument("--ef-construction", type=int, default=100, dest="ef_construction")
    ap.add_argument("--ef-search", type=int, default=64, dest="ef_search")
    ap.add_argument("--metric", default="l2")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(_HERE, "BENCH_hnsw.json"))
    ap.add_argument(
        "--tiny", action="store_true", help="CI smoke size (n=2000, 50 queries)"
    )
    ap.add_argument(
        "--min-recall",
        type=float,
        default=None,
        dest="min_recall",
        help="exit non-zero if recall@k falls below this floor",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        default=None,
        dest="max_regress",
        metavar="FRAC",
        help="exit non-zero if build points/s, single or batched q/s fall more "
        "than this fraction below the previous run of the same config",
    )
    args = ap.parse_args(argv)
    if args.tiny:
        args.n, args.n_queries = 2000, 50

    report = run(args)
    report = fold_with_speedup(report, args.out)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    b, s = report["build"], report["search"]
    print(
        f"build   {b['points_per_s']:>12,.0f} pts/s   ({b['seconds']:.2f}s, "
        f"{b['dist_evals']:,} dist evals)"
    )
    print(f"single  {s['single_qps']:>12,.0f} q/s     ({s['dist_evals_per_query']:.0f} evals/query)")
    print(f"batched {s['batched_qps']:>12,.0f} q/s")
    print(f"recall@{report['config']['k']} = {s['recall_at_k']:.4f}")
    if "speedup_vs_previous" in report:
        ident = "bit-identical" if report.get("bit_identical_to_previous") else "DIFFERENT results"
        print(
            f"combined build+search speedup vs previous run: "
            f"{report['speedup_vs_previous']:.2f}x ({ident})"
        )
    print(f"wrote {args.out}")

    if args.min_recall is not None and s["recall_at_k"] < args.min_recall:
        print(
            f"ERROR: recall@{report['config']['k']} {s['recall_at_k']:.4f} "
            f"below floor {args.min_recall}",
            file=sys.stderr,
        )
        return 3
    if args.max_regress is not None:
        rates = ("build_points_per_s", "single_qps", "batched_qps")
        fell = regressions(report, rates, args.max_regress)
        for line in fell:
            print(f"ERROR: {line} (--max-regress {args.max_regress})", file=sys.stderr)
        if fell:
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
