"""Where one pass of a benchmark workload's queries spends its host time.

    python benchmarks/profile_query.py syn32_closed [--seed N] [--top 20]
        [--batches N] [--wall]

(or ``make profile-query W=syn32_closed``).  Builds the workload of
``benchmarks/e2e/workloads.py`` for the seed, fits it, serves one untimed
filter cycle (so the lazy C compile is paid), then runs one pass of its
batch schedule (its first ``--batches`` batches) and prints:

- host seconds of the pass and queries per second;
- engine events per (query, partition) task;
- by default, under ``cProfile``: self time by ``repro`` module, with
  everything outside the package (numpy, builtins, the profiler's own
  frames) as one row, and the top functions by self time;
- with ``--wall``, from a wall-clock stack sampler: the share of samples
  each module and function was running (leaf) and was on the stack
  (inclusive), and one "bookkeeping" row, the summed leaf share of the
  modules whose work moves no answer and no virtual time
  (:data:`BOOKKEEPING`).

``--wall`` samples the main thread's stack on ``SIGALRM`` from
``ITIMER_REAL``, every 0.5 ms of elapsed time.  Not ``ITIMER_PROF``: that
timer counts the CPU time of the whole process, so the compiled searches
a host thread runs during a query call advance it too, and each of those
ticks is charged to wherever the main thread happens to stand.  A signal
handler runs between bytecodes, so a tick that lands in a C call is
charged to the python function that made it, which is where that wall
time went.  Not ``cProfile`` either, for shares: it charges each python
call its own overhead, so a layer of many small calls looks heavier than
it is.  On ``syn32_closed`` (2-vCPU guest) cProfile puts ``simmpi.engine``
at about 32 % of self time and the search layer (``core.searcher`` and
``hnsw.index``) at about 15 %, where wall samples give about 30 % and
22 %.

The numbers are host timings of this machine, so they are for reading
shares, not for comparing runs.  CI runs ``--wall --batches 4`` only to
keep the tool working.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import os
import pstats
import signal
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "e2e"), os.path.join(os.path.dirname(HERE), "src")]

from workloads import DEFAULT_SEED, WORKLOADS, make_config, make_inputs  # noqa: E402

from repro import DistributedANN  # noqa: E402

#: seconds of elapsed time between two ``--wall`` samples
WALL_INTERVAL = 0.0005

#: the load tracker's timeline, the per-proc span and compute sums and the
#: metrics registry: the "bookkeeping" row of ``--wall``
BOOKKEEPING = ("repro.loadbalance", "repro.simmpi.trace", "repro.obs.metrics")


def _module(filename: str) -> str:
    """``repro.a.b`` for a file of the package, else ``(outside repro)``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts or not filename.endswith(".py"):
        return "(outside repro)"
    tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    return ".".join(tail)[: -len(".py")].removesuffix(".__init__")


def _share_rows(title: str, counts: Counter, n: int, top: int) -> None:
    print(f"\n{title}")
    for key, c in counts.most_common(top):
        print(f"  {100 * c / n:5.1f} %  {key}")


def wall_samples(run) -> tuple:
    """Run ``run()`` under the ``ITIMER_REAL`` stack sampler; the number of
    samples and the leaf and inclusive counts by module and function."""
    leaf_mod: Counter = Counter()
    leaf_fn: Counter = Counter()
    incl_mod: Counter = Counter()
    incl_fn: Counter = Counter()
    n = 0

    def on_tick(signum, frame) -> None:
        nonlocal n
        n += 1
        mods, fns = set(), set()
        f, leaf = frame, True
        while f is not None:
            code = f.f_code
            if code.co_filename == __file__:  # this script's frames hold every sample
                break
            mod = _module(code.co_filename)
            fn = f"{mod}:{code.co_name}"
            if leaf:
                leaf_mod[mod] += 1
                leaf_fn[fn] += 1
                leaf = False
            mods.add(mod)
            fns.add(fn)
            f = f.f_back
        incl_mod.update(mods)
        incl_fn.update(fns)

    previous = signal.signal(signal.SIGALRM, on_tick)
    signal.setitimer(signal.ITIMER_REAL, WALL_INTERVAL, WALL_INTERVAL)
    try:
        run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return n, leaf_mod, incl_mod, leaf_fn, incl_fn


def wall_tables(samples: tuple, top: int) -> None:
    n, leaf_mod, incl_mod, leaf_fn, incl_fn = samples
    print(f"\n{n:,} wall-clock samples, one per {WALL_INTERVAL * 1e3:g} ms")
    if not n:
        return
    _share_rows("leaf share by module (running)", leaf_mod, n, top)
    bookkeeping = sum(leaf_mod[m] for m in BOOKKEEPING)
    print(f"\n  {100 * bookkeeping / n:5.1f} %  bookkeeping (leaf: {' + '.join(BOOKKEEPING)})")
    _share_rows("inclusive share by module (on the stack)", incl_mod, n, top)
    _share_rows(f"top {top} functions by leaf share", leaf_fn, n, top)
    _share_rows(f"top {top} functions by inclusive share", incl_fn, n, top)


def cprofile_tables(prof: cProfile.Profile, top: int) -> None:
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
    print(f"\ntop {top} functions by self time")
    print(f"  {'self s':>8} {'cum s':>8} {'calls':>9}  function")
    for tottime, cumtime, ncalls, where in sorted(rows, reverse=True)[:top]:
        print(f"  {tottime:8.3f} {cumtime:8.3f} {ncalls:9d}  {where}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--batches", type=int, default=None, help="the pass's first N batches")
    ap.add_argument("--wall", action="store_true", help="wall-clock stack samples, not cProfile")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    n_batches = w.n_batches if args.batches is None else max(1, min(args.batches, w.n_batches))

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
    counts = [0, 0]

    def one_pass() -> None:
        for b in range(n_batches):
            report = query(b)[2]
            counts[0] += report.n_events
            counts[1] += report.tasks

    prof = None if args.wall else cProfile.Profile()
    t0 = time.perf_counter()
    if prof is None:
        samples = wall_samples(one_pass)
    else:
        prof.runcall(one_pass)
    wall = time.perf_counter() - t0
    events, tasks = counts

    how = "sampled" if prof is None else "under the profiler"
    print(f"\n{w.name}, seed {args.seed}: {n_batches} batches x {w.batch_queries} queries")
    print(f"host {wall:.3f} s {how}, {n_batches * w.batch_queries / wall:,.0f} q/s")
    print(f"events {events:,}, tasks {tasks:,}: {events / tasks:.2f} events per task")
    if prof is None:
        wall_tables(samples, args.top)
    else:
        cprofile_tables(prof, args.top)


if __name__ == "__main__":
    main()
