"""Where one pass of a benchmark workload's queries spends its host time.

    python benchmarks/profile_query.py syn32_closed [--seed N] [--top 20]

(or ``make profile-query W=syn32_closed``).  Builds the workload of
``benchmarks/e2e/workloads.py`` for the seed, fits it, serves one untimed
filter cycle (so the lazy C compile is paid), then runs one pass of its
batch schedule under ``cProfile`` and prints:

- host seconds of the pass and queries per second under the profiler;
- engine events per (query, partition) task;
- self time by ``repro`` module, with everything outside the package
  (numpy, builtins, the profiler's own frames) as one row;
- the top functions by self time.

The numbers are host timings of this machine under a profiler, so they
are for reading shares, not for comparing runs; no CI job runs this.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import os
import pstats
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "e2e"), os.path.join(os.path.dirname(HERE), "src")]

from workloads import DEFAULT_SEED, WORKLOADS, make_config, make_inputs  # noqa: E402

from repro import DistributedANN  # noqa: E402


def _module(filename: str) -> str:
    """``repro.a.b`` for a file of the package, else ``(outside repro)``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts or not filename.endswith(".py"):
        return "(outside repro)"
    tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    return ".".join(tail)[: -len(".py")].removesuffix(".__init__")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--top", type=int, default=20)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    X, metadata, Q, _ = make_inputs(w, args.seed)
    cfg = make_config(w, args.seed)
    ann = DistributedANN(cfg)
    ann.fit(X, metadata=metadata)

    def query(b: int):
        # the benchmark's schedule: batch b under its own seed and filter
        ann.config = dataclasses.replace(cfg, seed=args.seed + 7919 * (b + 1))
        rows = slice(b * w.batch_queries, (b + 1) * w.batch_queries)
        return ann.query(Q[rows], filter=w.filters[b % len(w.filters)])

    for b in range(len(w.filters)):
        query(b)
    events = tasks = 0
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    for b in range(w.n_batches):
        report = query(b)[2]
        events += report.n_events
        tasks += report.tasks
    prof.disable()
    wall = time.perf_counter() - t0

    print(f"{w.name}, seed {args.seed}: {w.n_batches} batches x {w.batch_queries} queries")
    print(f"host {wall:.3f} s under the profiler, {w.n_queries / wall:,.0f} q/s")
    print(f"events {events:,}, tasks {tasks:,}: {events / tasks:.2f} events per task")

    stats = pstats.Stats(prof)
    by_module: dict[str, float] = {}
    rows = []
    for (filename, line, func), (_, ncalls, tottime, cumtime, _) in stats.stats.items():
        mod = _module(filename)
        by_module[mod] = by_module.get(mod, 0.0) + tottime
        rows.append((tottime, cumtime, ncalls, f"{mod}:{line}({func})"))
    total = sum(by_module.values())
    print(f"\nself time by module ({total:.3f} s profiled)")
    for mod, s in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {s:8.3f} s  {100 * s / total:5.1f} %  {mod}")
    print(f"\ntop {args.top} functions by self time")
    print(f"  {'self s':>8} {'cum s':>8} {'calls':>9}  function")
    for tottime, cumtime, ncalls, where in sorted(rows, reverse=True)[: args.top]:
        print(f"  {tottime:8.3f} {cumtime:8.3f} {ncalls:9d}  {where}")


if __name__ == "__main__":
    main()
