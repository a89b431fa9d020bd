"""One benchmark process: set one workload up, time it, check it, report it.

``bench.py --workload NAME --seed N --seconds T --trace 0|1`` ends here.
With ``--trace 0`` the process measures the end-to-end metrics through
``DistributedANN.fit`` / ``query`` alone.  With ``--trace 1`` it runs every
batch twice, once plainly and once through the span-recording proxies of
``tracing.py``, checks that both give the same answers and virtual-clock
numbers, and reports the per-layer metrics.

Load generation is closed loop: one process, one thread, one ``query``
call at a time.  Host time is ``time.perf_counter``; every ``sim_*``
number is the program's virtual clock and repeats exactly for a seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np
import scipy

import tracing
from calibration import Calibrator, at_reference_speed
from repro import DistributedANN, FilterSpec, HnswIndex
from repro.core.searcher import ModeledSearcher, RealHnswSearcher
from repro.datasets import brute_force_knn
from repro.eval import recall_at_k
from repro.filtering import clauses_to_wire, mask_for
from repro.metrics import get_metric
from repro.simmpi import Simulation
from stats import windowed_percentile
from workloads import K, Workload, make_config, make_inputs

#: set-ups per untraced process; ``setup_s`` and ``fit_pts_per_s`` are medians
SETUP_REPEATS = 2

#: query rows per ``brute_force_knn`` block.  Its default of 256 keeps some
#: 100 MB of scratch matrices alive over 8,000 points, more than the whole
#: system under test holds, and ``peak_rss_mb`` then read the harness; at 16
#: the scratch is a few MB and the peak is the program's
TRUTH_BLOCK_QUERIES = 16

#: report fields that must be the same in the plain and the traced run of a
#: batch, besides the answers themselves; all are virtual-clock or counts
REPORT_SCALARS = (
    "total_seconds",
    "n_events",
    "tasks",
    "task_messages",
    "mean_fanout",
    "imbalance_factor",
    "comm_fraction",
    "credit_stall_seconds",
    "max_outstanding_tasks",
    "credits_leaked",
    "offered_queries",
    "admitted_queries",
    "shed_queries",
    "rejected_queries",
    "max_ingress_depth",
    "cache_hits",
    "cache_misses",
    "filter_tasks_pre",
    "filter_tasks_post",
    "filter_evals_pre",
    "filter_evals_post",
    "filter_empty_tasks",
)
REPORT_COUNTERS = ("sim.msgs_sent", "sim.bytes_sent", "sim.rma_ops", "router.dist_evals")


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


@dataclasses.dataclass
class SetUp:
    w: Workload
    #: the config the system was built under
    cfg: object
    #: the config batch ``b`` is served under: ``cfg`` with its own seed, so
    #: that every batch of an open-loop workload sees its own Poisson arrival
    #: pattern (the program seeds the arrival process from the config alone,
    #: and one pattern repeated for every batch would make ``sim_p99_ms``
    #: the luck of a single draw of 128 arrivals)
    batch_cfgs: list
    ann: DistributedANN
    build: object
    X: np.ndarray
    Q: np.ndarray
    #: which distinct query vector each row of ``Q`` is
    query_ids: np.ndarray
    #: exact neighbour ids per query row, over the rows its filter allows
    truth: np.ndarray
    #: raw host seconds of each part: gen, fit, ground_truth, warmup
    seconds: dict
    #: the same at the reference machine speed (see calibration.py)
    ref_seconds: dict


def batch_rows(w: Workload, b: int) -> slice:
    return slice(b * w.batch_queries, (b + 1) * w.batch_queries)


def batch_filter(w: Workload, b: int):
    return w.filters[b % len(w.filters)]


def ground_truth(w: Workload, X, metadata, Q) -> np.ndarray:
    """Brute force over the rows each query may return."""
    truth = np.empty((len(Q), K), dtype=np.int64)
    cycle = len(w.filters)
    for j, text in enumerate(w.filters):
        rows = np.concatenate(
            [np.arange(w.n_queries)[batch_rows(w, b)] for b in range(j, w.n_batches, cycle)]
        )
        if text is None:
            truth[rows] = brute_force_knn(X, Q[rows], K, block_queries=TRUTH_BLOCK_QUERIES)[1]
        else:
            allowed = np.flatnonzero(mask_for(metadata, [FilterSpec.parse(text)], len(X)))
            found = brute_force_knn(X[allowed], Q[rows], K, block_queries=TRUTH_BLOCK_QUERIES)[1]
            truth[rows] = allowed[found]
    return truth


def set_up(w: Workload, seed: int, cal: Calibrator) -> SetUp:
    """Generate, fit, compute ground truth and run one untimed filter cycle
    (so the lazy C compile and its self-checks are paid before timing).
    Each part is bracketed by calibration probes."""
    marks = []

    def mark():
        probe = cal.probe()
        marks.append((time.perf_counter(), probe))

    mark()

    X, metadata, Q, query_ids = make_inputs(w, seed)
    cfg = make_config(w, seed)
    batch_cfgs = [dataclasses.replace(cfg, seed=seed + 7919 * (b + 1)) for b in range(w.n_batches)]
    mark()
    ann = DistributedANN(cfg)
    build = ann.fit(X, metadata=metadata)
    mark()
    truth = ground_truth(w, X, metadata, Q)
    mark()
    s = SetUp(w, cfg, batch_cfgs, ann, build, X, Q, query_ids, truth, {}, {})
    for b in range(len(w.filters)):
        plain_query(s, b)
    mark()
    for part, (t0, p0), (t1, p1) in zip(("gen", "fit", "ground_truth", "warmup"), marks, marks[1:]):
        # the probe that ends a part ran inside it: take its time off
        s.seconds[part] = t1 - t0 - p1
        s.ref_seconds[part] = at_reference_speed(s.seconds[part], p0, p1)
    return s


def plain_query(s: SetUp, b: int):
    """Batch ``b`` through ``DistributedANN.query``."""
    s.ann.config = s.batch_cfgs[b]
    return s.ann.query(s.Q[batch_rows(s.w, b)], filter=batch_filter(s.w, b))


# --------------------------------------------------------------------------
# what one batch returned
# --------------------------------------------------------------------------


def batch_facts(D, I, report) -> dict:
    """Everything kept of one ``query`` call; all of it repeats exactly."""
    counters = report.metrics.get("counters", {})
    facts = {name: getattr(report, name) for name in REPORT_SCALARS}
    facts.update({name: counters.get(name, 0) for name in REPORT_COUNTERS})
    facts["digest"] = hashlib.sha256(
        np.ascontiguousarray(D, dtype=np.float64).tobytes()
        + np.ascontiguousarray(I, dtype=np.int64).tobytes()
    ).hexdigest()
    for name in ("query_latencies", "queue_seconds", "service_seconds"):
        values = getattr(report, name)
        if values is not None:
            facts[name] = np.asarray(values, dtype=np.float64).tolist()
    return facts


def bad_rows(D, I, reachable) -> int:
    """Rows that are not a valid answer: not closest-first, a repeated id,
    padding before a real id, or fewer ids than ``reachable`` allows."""
    bad = 0
    for d, ids, can in zip(D, I, reachable):
        valid = ids != -1
        n = int(valid.sum())
        ok = (
            valid[:n].all()
            and len(set(ids[:n].tolist())) == n
            and bool(np.all(np.diff(d[:n]) >= 0))
            and n >= min(K, can)
        )
        bad += not ok
    return bad


def reachable_counts(s: SetUp) -> np.ndarray:
    """Per query row: how many rows its routed partitions could return."""
    w, partitions = s.w, s.ann.partitions
    per_filter = []
    for text in w.filters:
        clauses = None if text is None else [FilterSpec.parse(text)]
        counts = {}
        for pid, part in partitions.items():
            if part.index is None:  # modeled: answers come from the sample
                n = len(part.sample[1])
            elif clauses is None:
                n = part.n_points
            else:
                n = int(mask_for(part.attrs, clauses, part.n_points).sum())
            counts[pid] = n
        per_filter.append(counts)
    out = np.empty(len(s.Q), dtype=np.int64)
    router, n_probe = s.ann.router, s.cfg.n_probe
    for b in range(w.n_batches):
        counts = per_filter[b % len(w.filters)]
        rows = batch_rows(w, b)
        for i in range(rows.start, rows.stop):
            out[i] = sum(counts[p] for p in router.route_approx(s.Q[i], n_probe))
    return out


class Schedule:
    """The first pass over the batch schedule: answers, facts and failures.

    Later passes only repeat batches for more host-time samples; each is
    checked against the digest the first pass recorded.
    """

    def __init__(self, s: SetUp, reachable: np.ndarray | None = None) -> None:
        # keeps what it needs of the set-up, not the system: an untraced
        # process builds the next system while this object lives on
        self.w, self.build, self.truth, self.query_ids = s.w, s.build, s.truth, s.query_ids
        self.reachable = reachable_counts(s) if reachable is None else reachable
        self.facts: list[dict | None] = [None] * s.w.n_batches
        self.batch_failed = [0] * s.w.n_batches
        self.ids = np.full((s.w.n_queries, K), -1, dtype=np.int64)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, b: int, D, I, report) -> None:
        """Account one finished ``query`` call."""
        w = self.w
        self.attempted += w.batch_queries
        facts = batch_facts(D, I, report)
        if self.facts[b] is not None:
            if self.facts[b] != facts:
                self.problems.append(f"batch {b}: a repeat differs from its first run")
            self.failed += self.batch_failed[b]
            return
        rows = batch_rows(w, b)
        self.ids[rows] = I
        self.batch_failed[b] = (
            bad_rows(D, I, self.reachable[rows]) + report.shed_queries + report.rejected_queries
        )
        self.failed += self.batch_failed[b]
        if report.credits_leaked:
            self.problems.append(f"batch {b}: {report.credits_leaked} credits leaked")
        if report.offered_queries != (
            report.admitted_queries + report.shed_queries + report.rejected_queries
        ):
            self.problems.append(f"batch {b}: serving ledger does not balance")
        self.facts[b] = facts

    def total(self, name: str) -> float:
        return sum(f[name] for f in self.facts)

    def pooled(self, name: str) -> np.ndarray:
        return np.concatenate([f[name] for f in self.facts if name in f] or [np.empty(0)])

    def checksum(self) -> str:
        return hashlib.sha256("".join(f["digest"] for f in self.facts).encode()).hexdigest()

    def recall(self, filter_index: int | None = None) -> float:
        """Recall over the distinct (query vector, filter) pairs, each once.

        A Zipf stream repeats its few hot vectors thousands of times; counted
        per row, recall would be the luck of those few.  It is a property of
        the index, not of the traffic mix.
        """
        w = self.w
        cycle = len(w.filters)
        batches = range(w.n_batches)
        if filter_index is not None:
            batches = range(filter_index, w.n_batches, cycle)
        rows = np.concatenate([np.arange(w.n_queries)[batch_rows(w, b)] for b in batches])
        pair = self.query_ids[rows] * cycle + rows // w.batch_queries % cycle
        rows = rows[np.unique(pair, return_index=True)[1]]
        return recall_at_k(self.ids[rows], self.truth[rows])

    def sim_metrics(self) -> dict:
        """The end-to-end metrics that live on the virtual clock."""
        latencies = self.pooled("query_latencies")
        if len(latencies):
            # two-sided serving: the coordinator sees each query complete
            p99 = float(np.nanpercentile(latencies, 99)) * 1e3
        else:
            # one-sided: only the batch makespan is observable, and every
            # query of a batch has completed by then
            p99 = max(f["total_seconds"] for f in self.facts) * 1e3
        return {
            "sim_build_s": self.build.total_seconds,
            "sim_makespan_s": self.total("total_seconds"),
            "sim_p99_ms": p99,
            "recall_at_10": self.recall(),
        }


def timed(fn):
    """(host seconds, result) of one call.  A call that raises ends the
    process without a result: the workloads are chosen so that none does."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# --------------------------------------------------------------------------
# untraced: the end-to-end metrics
# --------------------------------------------------------------------------


def run_untraced(w: Workload, seed: int, seconds: float, setup_repeats: int) -> dict:
    """``setup_repeats`` blocks of (set-up, timed window).

    The machine's speed moves between two levels every few seconds on the
    boxes this runs on, so the timed work is not one stretch: each block
    builds the same system afresh and times its share of the schedule pass
    and of ``seconds``.  Samples then span the whole life of the process,
    and ``setup_s`` has one sample per block.  Whole filter cycles continue
    round the schedule after the first pass is complete.
    """
    cycle = len(w.filters)
    n_units = w.n_batches // cycle
    cal = Calibrator()
    setups: list[dict] = []
    samples_ms: list[float] = []
    schedule = None
    query_s = raw_query_s = 0.0
    done = 0
    s = None
    for block in range(setup_repeats):
        s = None  # free the previous system before building the next
        s = set_up(w, seed, cal)
        setups.append(s.ref_seconds)
        if schedule is None:
            schedule = Schedule(s)
        elif s.build.total_seconds != schedule.build.total_seconds:
            schedule.problems.append("sim_build_s differs between set-ups of one seed")
        pass_share = -(-n_units * (block + 1) // setup_repeats)
        t0 = time.perf_counter()
        probe = cal.probe()
        while done < pass_share or time.perf_counter() - t0 < seconds / setup_repeats:
            unit_s = 0.0
            for b in range(done % n_units * cycle, (done % n_units + 1) * cycle):
                dt, out = timed(lambda: plain_query(s, b))
                unit_s += dt
                schedule.record(b, *out)
            probe_before, probe = probe, cal.probe()
            raw_query_s += unit_s
            unit_s = at_reference_speed(unit_s, probe_before, probe)
            query_s += unit_s
            samples_ms.append(unit_s / cycle * 1e3)
            done += 1

    metrics = {
        "setup_s": statistics.median(sum(sec.values()) for sec in setups),
        "fit_pts_per_s": w.n_points * len(setups) / sum(sec["fit"] for sec in setups),
        "query_qps": schedule.attempted / query_s,
        "query_batch_ms_p50": windowed_percentile(samples_ms, 50),
        "query_batch_ms_p90": windowed_percentile(samples_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **schedule.sim_metrics(),
    }
    return finish(
        schedule, cal, metrics, samples_ms=samples_ms, query_s=query_s, raw_query_s=raw_query_s
    )


# --------------------------------------------------------------------------
# traced: the per-layer metrics
# --------------------------------------------------------------------------


def make_searcher(cfg, dim: int):
    """The searcher ``DistributedANN.query`` builds for this config."""
    if cfg.searcher == "real":
        return RealHnswSearcher(cfg.cost, cfg.effective_ef_search)
    return ModeledSearcher(
        cfg.cost,
        cfg.effective_ef_search,
        cfg.hnsw.M,
        dim,
        cfg.modeled_partition_points,
        metric=cfg.metric,
        search_seconds=cfg.modeled_search_seconds,
    )


def filter_payload(cfg, text):
    """The wire filter ``DistributedANN.query(filter=text)`` sends."""
    if text is None:
        return None
    return {"clauses": clauses_to_wire([FilterSpec.parse(text)]), "strategy": cfg.filter_strategy}


def traced_query(s: SetUp, b: int, recorder, **config_changes):
    """Batch ``b`` through ``ClusterRuntime.run_search`` with the proxies in."""
    cfg = s.batch_cfgs[b]
    if config_changes:
        cfg = dataclasses.replace(cfg, **config_changes)
    return tracing.run_search(
        cfg,
        tracing.cluster_parts(s.ann),
        make_searcher(cfg, s.X.shape[1]),
        s.Q[batch_rows(s.w, b)],
        K,
        filter_payload(cfg, batch_filter(s.w, b)),
        recorder,
    )


def run_traced(w: Workload, seed: int, seconds: float, trace_path: str) -> dict:
    cal = Calibrator()
    s = set_up(w, seed, cal)
    plain = Schedule(s)
    traced = Schedule(s, plain.reachable)
    recorder = tracing.SpanRecorder()
    # per side: how to run batch b, where its facts go, host seconds per batch
    plain_s: list[float] = []
    traced_s: list[float] = []
    sides = (
        (lambda b: plain_query(s, b), plain, plain_s),
        (lambda b: traced_query(s, b, recorder), traced, traced_s),
    )

    # whole passes only: the span totals below are per pass of the schedule
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for b in range(w.n_batches):
            cal.probe()
            recorder.batch = b
            # alternate which goes first so drift in machine speed cancels
            for query, schedule, host_s in sides[:: 1 if b % 2 == 0 else -1]:
                dt, out = timed(lambda: query(b))
                host_s.append(dt)
                schedule.record(b, *out)
        passes += 1

    if traced.facts != plain.facts:
        traced.problems.append("traced pass differs from the untraced pass")
    traced.problems.extend(plain.problems)

    spans = recorder.spans
    by_name = tracing.totals_by_name(spans)
    if min(tracing.self_times(spans), default=0.0) < 0:
        traced.problems.append("a span has negative self time")

    def span_s(name: str, field: str = "total") -> float:
        return by_name[name][field] / passes

    root_s = span_s(tracing.ROOT_SPAN)
    sim_s = span_s(tracing.SIM_SPAN)
    route_s, route_calls = span_s(tracing.ROUTE_SPAN), span_s(tracing.ROUTE_SPAN, "calls")
    search_s, search_calls = span_s(tracing.SEARCH_SPAN), span_s(tracing.SEARCH_SPAN, "calls")
    events = traced.total("n_events")
    tasks = traced.total("tasks")
    facts = traced.facts
    hits, misses = traced.total("cache_hits"), traced.total("cache_misses")
    latencies = traced.pooled("query_latencies")
    serving = len(latencies) > 0

    def pct_ms(name: str, p: float) -> float:
        return float(np.nanpercentile(traced.pooled(name), p)) * 1e3 if serving else 0.0

    filtered = len(w.filters) > 1
    metrics = {
        "runtime.run_search_s": root_s,
        "runtime.self_s": span_s(tracing.ROOT_SPAN, "self"),
        "simmpi.run_s": sim_s,
        "simmpi.run_self_s": span_s(tracing.SIM_SPAN, "self"),
        "simmpi.events": events,
        "simmpi.host_us_per_event": sim_s / events * 1e6,
        "simmpi.events_per_host_s": events / sim_s,
        "simmpi.msgs_sent": traced.total("sim.msgs_sent"),
        "simmpi.bytes_sent": traced.total("sim.bytes_sent"),
        "simmpi.rma_ops": traced.total("sim.rma_ops"),
        "simmpi.pingpong_events_per_s": pingpong_events_per_s(20_000),
        "vptree.route_s": route_s,
        "vptree.route_calls": route_calls,
        "vptree.route_us_per_call": route_s / route_calls * 1e6,
        "vptree.dist_evals": traced.total("router.dist_evals"),
        "vptree.router_depth": s.ann.router.depth(),
        "metrics.pair_dist_us": pair_dist_us(s.X),
        "core.searcher_s": search_s,
        "core.searcher_calls": search_calls,
        "core.searcher_us_per_task": search_s / tasks * 1e6,
        "core.tasks": tasks,
        "core.task_messages": traced.total("task_messages"),
        "core.mean_fanout": statistics.fmean(f["mean_fanout"] for f in facts),
        "core.tasks_per_host_s": tasks / root_s,
        "core.imbalance_factor": statistics.fmean(f["imbalance_factor"] for f in facts),
        "core.comm_fraction": statistics.fmean(f["comm_fraction"] for f in facts),
        "core.credit_stall_sim_s": traced.total("credit_stall_seconds"),
        "core.max_outstanding_tasks": max(f["max_outstanding_tasks"] for f in facts),
        "core.credits_leaked": traced.total("credits_leaked"),
        "core.sim_hnsw_build_s": s.build.hnsw_seconds,
        "core.sim_vptree_build_s": s.build.vptree_seconds,
        "core.max_node_bytes": s.build.max_node_bytes,
        **hnsw_isolated(s),
        "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.offered": traced.total("offered_queries"),
        "serving.admitted": traced.total("admitted_queries"),
        "serving.shed": traced.total("shed_queries"),
        "serving.rejected": traced.total("rejected_queries"),
        "serving.max_ingress_depth": max(f["max_ingress_depth"] for f in facts),
        "serving.sim_p50_ms": pct_ms("query_latencies", 50),
        "serving.sim_queue_p99_ms": pct_ms("queue_seconds", 99),
        "serving.sim_service_p99_ms": pct_ms("service_seconds", 99),
        "filtering.tasks_pre": traced.total("filter_tasks_pre"),
        "filtering.tasks_post": traced.total("filter_tasks_post"),
        "filtering.evals_pre": traced.total("filter_evals_pre"),
        "filtering.evals_post": traced.total("filter_evals_post"),
        "filtering.empty_tasks": traced.total("filter_empty_tasks"),
        "filtering.recall_wide": traced.recall(0) if filtered else 0.0,
        "filtering.recall_narrow": traced.recall(1) if filtered else 0.0,
        "datasets.gen_s": s.seconds["gen"],
        "datasets.ground_truth_s": s.seconds["ground_truth"],
        "obs.recorder_overhead_frac": recorder_overhead_frac(s, traced.problems),
        "bench.trace_overhead_frac": median_overhead(plain_s, traced_s),
        "bench.calib_ms": cal.median_ms(),
        "bench.failed_frac": (plain.failed + traced.failed) / (plain.attempted + traced.attempted),
    }

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    origin = spans[0][tracing.START]
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "workload": w.name,
                "seed": seed,
                "passes": passes,
                "fields": ["name", "start_s", "end_s", "parent", "batch"],
                "spans": [[n, a - origin, b - origin, p, batch] for n, a, b, p, batch in spans],
            },
            fh,
        )
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return finish(traced, cal, metrics, query_s=sum(plain_s) / passes, fit_s=s.seconds["fit"])


# --------------------------------------------------------------------------
# layers called directly, outside the cluster
# --------------------------------------------------------------------------


def pingpong_events_per_s(n_messages: int) -> float:
    """Two procs exchanging ``n_messages`` on a bare ``Simulation``:
    engine events per host second with no ANN work at all."""
    sim = Simulation()

    def player(ctx, peer: int, serves: bool, n: int):
        box = sim.mailbox_of(peer)
        for _ in range(n):
            if serves:
                yield from ctx.send_to_mailbox(
                    box, None, source=ctx.pid, tag=0, nbytes=8, same_node=False
                )
            req = yield from ctx.post_recv(ctx.mailbox, source=peer, tag=0)
            yield from ctx.wait(req)
            if not serves:
                yield from ctx.send_to_mailbox(
                    box, None, source=ctx.pid, tag=0, nbytes=8, same_node=False
                )

    sim.add_proc(player, 1, True, n_messages // 2, node=0, name="ping")
    sim.add_proc(player, 0, False, n_messages // 2, node=1, name="pong")
    t0 = time.perf_counter()
    out = sim.run()
    return out.n_events / (time.perf_counter() - t0)


def pair_dist_us(X: np.ndarray, reps: int = 20_000) -> float:
    """One query-to-vantage-point distance through the generic metric layer,
    the call ``PartitionRouter._d`` makes once per routing step."""
    one_to_many = get_metric("l2").one_to_many
    q, vp = X[0], X[1][None]
    t0 = time.perf_counter()
    for _ in range(reps):
        one_to_many(q, vp)
    return (time.perf_counter() - t0) / reps * 1e6


def hnsw_isolated(s: SetUp) -> dict:
    """Direct ``knn_search`` / ``knn_search_batch`` on the (query, partition)
    pairs the router picks, and a direct rebuild of every partition's index."""
    names = (
        "hnsw.native_search_active",
        "hnsw.native_build_active",
        "hnsw.search_us_per_query",
        "hnsw.search_batch_us_per_query",
        "hnsw.dist_evals_per_query",
        "hnsw.build_s",
        "hnsw.build_pts_per_s",
    )
    w, partitions = s.w, s.ann.partitions
    if s.cfg.searcher != "real":
        return dict.fromkeys(names, 0.0)  # no local index exists
    cfg, router = s.cfg, s.ann.router
    ef = cfg.effective_ef_search
    Qs = s.Q[: 4 * w.batch_queries]
    by_partition: dict[int, list[int]] = {}
    for i, q in enumerate(Qs):
        for pid in router.route_approx(q, cfg.n_probe):
            by_partition.setdefault(pid, []).append(i)
    n_pairs = sum(len(rows) for rows in by_partition.values())

    def evals() -> int:
        return sum(p.index.n_dist_evals for p in partitions.values())

    before = evals()
    t0 = time.perf_counter()
    for pid, rows in by_partition.items():
        index = partitions[pid].index
        for i in rows:
            index.knn_search(Qs[i], K, ef=ef)
    t1 = time.perf_counter()
    per_pair_evals = (evals() - before) / n_pairs
    for pid, rows in by_partition.items():
        partitions[pid].index.knn_search_batch(Qs[rows], K, ef=ef)
    t2 = time.perf_counter()

    for part in partitions.values():
        index = HnswIndex(
            dim=s.X.shape[1],
            params=cfg.hnsw,
            metric=cfg.metric,
            capacity=max(part.n_points, 16),
        )
        index.add_items(part.points, part.ids)
    build_s = time.perf_counter() - t2
    any_index = next(iter(partitions.values())).index
    values = (
        float(any_index.native_search_active),
        float(any_index.native_build_active),
        (t1 - t0) / n_pairs * 1e6,
        (t2 - t1) / n_pairs * 1e6,
        per_pair_evals,
        build_s,
        w.n_points / build_s,
    )
    return dict(zip(names, values))


def median_overhead(base_s: list[float], with_s: list[float]) -> float:
    """Median over back-to-back pairs of ``with / base - 1``: a pair shares
    the machine's speed of the moment, and the median drops a disturbed one."""
    return statistics.median(b / a - 1.0 for a, b in zip(base_s, with_s))


def recorder_overhead_frac(s: SetUp, problems: list[str]) -> float:
    """Host cost of the program's own ``TraceRecorder`` (``explain_top=1``):
    the first batches with it against the same batches without."""
    scratch = tracing.SpanRecorder()
    off_s, on_s = [], []
    for b in range(min(s.w.n_batches, 8 * len(s.w.filters))):
        dt_off, off = timed(lambda: traced_query(s, b, scratch))
        dt_on, on = timed(lambda: traced_query(s, b, scratch, explain_top=1))
        off_s.append(dt_off)
        on_s.append(dt_on)
        if not (np.array_equal(off[0], on[0]) and np.array_equal(off[1], on[1])):
            problems.append(f"batch {b}: answers change with explain_top=1")
    return median_overhead(off_s, on_s)


# --------------------------------------------------------------------------
# result
# --------------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gcc_found": shutil.which("gcc") is not None,
        "nproc": os.cpu_count(),
    }


def finish(schedule: Schedule, cal: Calibrator, metrics: dict, **detail) -> dict:
    """The process's result: the contract's four keys plus ``detail`` for
    the suite (samples, checksum, virtual metrics, problems found)."""
    w = schedule.w
    sim = schedule.sim_metrics()
    if sim["recall_at_10"] < w.recall_floor:
        schedule.problems.append(
            f"recall_at_10 {sim['recall_at_10']:.4f} below the floor {w.recall_floor}"
        )
    if schedule.failed:
        schedule.problems.append(f"{schedule.failed} of {schedule.attempted} queries failed")
    return {
        "correct": not schedule.problems,
        "attempted": schedule.attempted,
        "failed": schedule.failed,
        "metrics": metrics,
        "detail": {
            "workload": w.name,
            "checksum": schedule.checksum(),
            "exact": sim,
            "problems": schedule.problems,
            "env": environment(),
            "calib_ms": cal.median_ms(),
            **detail,
        },
    }
