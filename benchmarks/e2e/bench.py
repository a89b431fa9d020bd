"""The repo benchmark: host-clock and virtual-clock end-to-end metrics with
a per-layer budget, over four workloads.  See README.md beside this file.

Two ways to run it, both from the root of a checkout:

``bench.py --workload NAME --seed N --seconds T --trace 0|1``
    One process, one workload (``runner.py``).  The last line of standard
    output is one JSON object with ``correct``, ``attempted``, ``failed``
    and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
    ``--trace 0``, its per-layer metrics with ``--trace 1``.

``bench.py [--seed S] [--rounds R] [--only NAME] [--smoke] [--selfcheck]``
    The whole suite: R rounds of one fresh process per workload, round
    robin, then one traced process per workload; medians across processes,
    pooled percentiles, identity checks, a noise guard, and a result file
    under ``benchmarks/e2e/out/`` that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"{ROOT} is not a checkout of the repository: src/repro or BENCHMARK.json is missing")
if any(name.startswith("REPRO_") for name in os.environ):
    sys.exit("unset the REPRO_* environment variables: they switch code paths")
# the on-demand C build caches its shared object under the temp dir; keep
# that inside the checkout, and measure this checkout's code, not an install
os.environ["TMPDIR"] = str(OUT / "tmp")
(OUT / "tmp").mkdir(parents=True, exist_ok=True)
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from stats import percentile, quartiles  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: end-to-end metrics on the virtual clock (or derived from answers): for
#: one seed they repeat bit for bit, so the suite requires identity
EXACT = ("sim_build_s", "sim_makespan_s", "sim_p99_ms", "recall_at_10")
SUITE_ROUNDS = 5
#: a process whose calibration kernel is this far from its round-mates'
#: median ran on a different machine speed; it is flagged, never dropped
CALIB_TOLERANCE = 0.15


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# one process
# --------------------------------------------------------------------------


def run_process(args) -> int:
    import runner
    from repro.hnsw.native import native_build_for

    t0 = time.perf_counter()
    # the build step: compile (or load from out/tmp) the C helpers and run
    # their self-checks now, so that no set-up of any process times gcc
    native_build_for("l2", 32)
    manifest = load_manifest()
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    if args.trace:
        result = runner.run_traced(w, args.seed, args.seconds, str(OUT / f"trace-{w.name}.json"))
        wanted = manifest["per_layer"]
    else:
        repeats = 1 if args.smoke else runner.SETUP_REPEATS
        result = runner.run_untraced(w, args.seed, args.seconds, repeats)
        wanted = manifest["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(result["metrics"]):
        raise SystemExit(
            f"metrics measured and BENCHMARK.json disagree: {set(units) ^ set(result['metrics'])}"
        )
    result["metrics"] = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    detail = result.pop("detail")
    for problem in detail["problems"]:
        print(f"PROBLEM {w.name}: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{w.name:16s} {name:32s} {m['value']:.6g} {m['unit']}")
    if args.detail:
        detail.update(seed=args.seed, wall_s=time.perf_counter() - t0)
        with open(args.detail, "w") as fh:
            json.dump({**result, "detail": detail}, fh)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# the suite
# --------------------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: int, trace: int, smoke: bool, tag: str) -> dict:
    """One fresh process of this file; returns its result with detail."""
    detail = OUT / f"run-{workload}-{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--detail", str(detail),
    ]  # fmt: skip
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stdout}\n{done.stderr}")
    sys.stderr.write(done.stderr)
    with open(detail) as fh:
        run = json.load(fh)
    detail.unlink()
    return run


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(names: list[str], seed: int, rounds: int, seconds: int, smoke: bool) -> dict:
    """R rounds of untraced processes, then one traced process each."""
    workloads = [WORKLOADS[n].smoke() if smoke else WORKLOADS[n] for n in names]
    planned_round_s = sum(w.expect_process_s for w in workloads)
    t0 = time.perf_counter()
    runs: dict[str, list[dict]] = {n: [] for n in names}
    round_late_s, flagged = [], []
    for r in range(rounds):
        round_late_s.append(time.perf_counter() - t0 - r * planned_round_s)
        this_round = [spawn(n, seed, seconds, 0, smoke, f"r{r}") for n in names]
        calib = statistics.median(run["detail"]["calib_ms"] for run in this_round)
        for name, run in zip(names, this_round):
            off = run["detail"]["calib_ms"] / calib - 1.0
            run["detail"]["calib_flagged"] = abs(off) > CALIB_TOLERANCE
            if run["detail"]["calib_flagged"]:
                flagged.append(f"round {r} {name}: calib_ms {off:+.0%} from its round-mates")
            runs[name].append(run)
            print(f"round {r} {name}: {run['detail']['wall_s']:.1f} s", flush=True)
    traced = {n: spawn(n, seed, seconds, 1, smoke, "traced") for n in names}

    manifest = load_manifest()
    problems, table = [], {}
    for name in names:
        rows = {}
        for m in manifest["end_to_end"]:
            values = [run["metrics"][m["name"]]["value"] for run in runs[name]]
            q1, med, q3 = quartiles(values)
            rows[m["name"]] = {"unit": m["unit"], "values": values, "q1": q1, "median": med, "q3": q3}
        samples = [ms for run in runs[name] for ms in run["detail"]["samples_ms"]]
        for p in (50, 90):
            row = rows[f"query_batch_ms_p{p}"]
            row["n_samples"] = len(samples)
            try:
                row["pooled"] = percentile(samples, p)
            except ValueError as exc:
                row["pooled"] = None
                print(f"{name}: {exc}")
        everyone = runs[name] + [traced[name]]
        if len({run["detail"]["checksum"] for run in everyone}) != 1:
            problems.append(f"{name}: result checksum differs between processes")
        for metric in EXACT:
            if len({run["detail"]["exact"][metric] for run in everyone}) != 1:
                problems.append(f"{name}: {metric} differs between processes of one seed")
        for run in everyone:
            problems += [f"{name}: {p}" for p in run["detail"]["problems"]]
            if run["failed"]:
                problems.append(f"{name}: {run['failed']} of {run['attempted']} queries failed")
        layers = {k: v["value"] for k, v in traced[name]["metrics"].items()}
        # at smoke size a pass is three batches: too few pairs for the median
        if layers["bench.trace_overhead_frac"] >= 0.10 and not smoke:
            problems.append(f"{name}: tracing overhead {layers['bench.trace_overhead_frac']:.1%}")
        table[name] = {
            "end_to_end": rows,
            "per_layer": {k: {"value": v, "unit": traced[name]["metrics"][k]["unit"]} for k, v in layers.items()},
            "checksum": traced[name]["detail"]["checksum"],
            "process_wall_s": [run["detail"]["wall_s"] for run in everyone],
            "calib_ms": [run["detail"]["calib_ms"] for run in everyone],
            "query_s": traced[name]["detail"]["query_s"],
            "fit_s": traced[name]["detail"]["fit_s"],
        }
    any_traced = next(iter(traced.values()))
    env = {
        **any_traced["detail"]["env"],
        "git_commit": git_commit(),
        "seed": seed,
        "rounds": rounds,
        "seconds": seconds,
        "smoke": smoke,
        "round_late_s": round_late_s,
        "planned_round_s": planned_round_s,
        "total_wall_s": time.perf_counter() - t0,
        "flagged_processes": flagged,
    }
    for flag in ("hnsw.native_search_active", "hnsw.native_build_active"):
        env[flag] = {n: table[n]["per_layer"][flag]["value"] for n in names}
    return {
        "schema": "repro.bench_e2e/v1",
        "env": env,
        "exact_metrics": EXACT,
        "workloads": table,
        "problems": problems,
    }


def print_set(result: dict) -> None:
    for name, block in result["workloads"].items():
        print(f"\n== {name}")
        for metric, row in block["end_to_end"].items():
            pooled = f"  pooled {row['pooled']:.6g} (n={row['n_samples']})" if row.get("pooled") else ""
            print(
                f"  {metric:24s} median {row['median']:.6g} {row['unit']:5s}"
                f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]{pooled}"
            )
        for metric, row in block["per_layer"].items():
            print(f"  {metric:34s} {row['value']:.6g} {row['unit']}")
    env = result["env"]
    print(f"\n{len(env['flagged_processes'])} processes flagged by the noise guard")
    print(f"rounds started {', '.join(f'{s:+.1f}' for s in env['round_late_s'])} s against plan")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")


def run_suite(args) -> int:
    names = args.only or list(WORKLOADS)
    manifest = load_manifest()
    seconds = 0 if args.smoke else manifest["run_seconds"]
    rounds = 1 if args.smoke else args.rounds
    OUT.mkdir(exist_ok=True)
    results = []
    for label in ("A", "B") if args.selfcheck else ("",):
        result = run_set(names, args.seed, rounds, seconds, args.smoke)
        print_set(result)
        path = OUT / f"result{label}.json"
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print(f"wrote {path.relative_to(ROOT)}")
        results.append((path, result))
    status = 1 if any(result["problems"] for _, result in results) else 0
    if args.selfcheck:
        import compare

        status |= compare.main([str(results[0][0]), str(results[1][0])])
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS), help="run this one workload in this process")
    ap.add_argument("--seed", type=lambda s: int(s) % 2**32, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="measure at least one pass and this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", help="also write the process's result and detail to this file")
    ap.add_argument("--smoke", action="store_true", help="the four shapes at 1/8 size, one round")
    ap.add_argument("--rounds", type=int, default=SUITE_ROUNDS)
    ap.add_argument("--only", action="append", choices=list(WORKLOADS), help="suite: this workload only")
    ap.add_argument("--selfcheck", action="store_true", help="suite: two sets of the same tree, compared")
    args = ap.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = 0 if args.smoke else load_manifest()["run_seconds"]
        return run_process(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
