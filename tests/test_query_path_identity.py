"""Identity of every mode that reaches a worker, and of the wire itself.

One (query, partition) task kind, one worker body, one searcher call and
one fault-tolerant loop serve every mode below.  Each row of ``CASES``
runs one mode end to end on a 600 x 16-d corpus over 8 simulated cores
and is compared, number for number, with ``GOLDEN`` — literals computed
at the commit *before* the single-row twin of the query path was deleted
(four task kinds, two result kinds, two worker branches, ``FaultHarness.
run`` beside ``run_serving``).  A moved size formula, send order or
charged second shows up as a changed byte count, event count or
``repr`` of a virtual time.  (The two rows with a duplicating link,
``ft_lossy`` and ``ft_serve_lossy_w1``, carry the virtual time, event and
message counts of the commit that made the shutdown drain count distinct
threads: until then a duplicated exit notice ended it early.)  The
serving and fault-tolerant coordinators settle arrivals and results in
fabric arrival order since they receive over both tags at once; before,
a result that landed first was settled after an arrival whenever the
result receive had been re-posted later.  That moved the latency and
timeline of ``serve_w0``, ``serve_w2_cache``, ``serve_prefilter`` and
``ft_serve_cache_crash`` (same answers), and every field of
``ft_serve_lossy_w1``: its lossy links draw drop and duplicate in send
order, so sends made in another order lose other messages.

Crash times are fractions of the same mode's fault-free makespan, so a
"crash" row really loses in-flight work.

The same runs feed the wire check: every message the engine transmits in
every mode must carry a payload whose kind is in ``messages.WIRE`` under
that kind's tag, with exactly the byte count the table gives it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import DistributedANN, HnswParams, SystemConfig
from repro.core import messages
from repro.core.localindex import BruteForceSearcher
from repro.faults import FaultPolicy, FaultSpec, LinkFault, RankCrash
from repro.filtering import FilterSpec, clauses_to_wire
from repro.kdtree.system import KDBaselineSystem
from repro.obs import validate_metrics
from repro.runtime.report import REPORT_INSTRUMENTS, SearchReport
from repro.simmpi.engine import Simulation

N, DIM, NQ, K = 600, 16, 24, 5
WIDE, NARROW = "tier=0..9", "tier=0"  # ~50 % of rows (post), ~5 % (pre)

_rng = np.random.default_rng(2021)
X = _rng.standard_normal((N, DIM)).astype(np.float32)
TIERS = {"tier": np.arange(N) % 20}
Q = (X[_rng.choice(N, NQ)] + 0.05 * _rng.standard_normal((NQ, DIM))).astype(np.float32)
#: a batch with repeats, so the exact-match cache has something to hit
Q_HOT = np.ascontiguousarray(Q[_rng.integers(0, 6, NQ)])

BASE = dict(n_cores=8, cores_per_node=2, k=K, n_probe=3, seed=3,
            hnsw=HnswParams(M=8, ef_construction=40, seed=3))
#: fault tolerance wants workgroups that span nodes
FT = dict(BASE, cores_per_node=1, one_sided=False)
SERVE = dict(BASE, one_sided=False, arrival="poisson:400000")
MODELED = dict(searcher="modeled", modeled_partition_points=10**6, modeled_sample_points=16)
BURST = "trace:" + ",".join(["0"] * NQ)
#: node 1 duplicates everything it sends; every other link drops 15 %
LOSSY = (LinkFault(src=1, dup_prob=1.0), LinkFault(drop_prob=0.15))


def _crash(frac: float, makespan: float) -> FaultSpec:
    return FaultSpec(crashes=(RankCrash(node=1, at=frac * makespan),))


#: name -> (config, query keywords, hot queries?, crash fraction or None).
#: A crash fraction is of the makespan the same config has without it.
CASES: dict[str, tuple] = {
    # -- the fault-tolerant loop, closed and open --
    "ft_free": (dict(FT, replication_factor=2, fault_policy=FaultPolicy()), {}, False, None),
    "ft_windowed": (
        dict(FT, replication_factor=2, dispatch_window=1, fault_policy=FaultPolicy()),
        {}, False, None,
    ),
    "ft_crash_r2_w1": (
        dict(FT, replication_factor=2, dispatch_window=1, fault_policy=FaultPolicy()),
        {}, False, 0.3,
    ),
    "ft_crash_r1": (dict(FT, fault_policy=FaultPolicy()), {}, False, 0.3),
    "ft_lossy": (
        dict(FT, replication_factor=2, fault_spec=FaultSpec(links=LOSSY, seed=5)), {}, False, None,
    ),
    "ft_filter": (
        dict(FT, replication_factor=2, fault_policy=FaultPolicy()),
        dict(filter=WIDE), False, 0.3,
    ),
    "ft_serve_cache_crash": (
        dict(FT, replication_factor=2, arrival="poisson:400000", cache_size=16,
             fault_policy=FaultPolicy()),
        {}, True, 0.15,
    ),
    # (the harness serves the queue head at once and defers on credits, so
    # its ingress queue never fills: the overload policy is inert here)
    "ft_serve_lossy_w1": (
        dict(FT, replication_factor=2, arrival=BURST, queue_depth=3,
             overload_policy="shed_oldest", dispatch_window=1,
             fault_spec=FaultSpec(links=LOSSY, seed=8)),
        {}, False, None,
    ),
    # -- the serving pipeline --
    "serve_w0": (dict(SERVE), {}, False, None),
    "serve_w2_cache": (dict(SERVE, dispatch_window=2, cache_size=16), {}, True, None),
    "serve_onesided_w2": (dict(SERVE, one_sided=True, dispatch_window=2), {}, False, None),
    "serve_prefilter": (dict(SERVE, filter_strategy="pre"), dict(filter=WIDE), False, None),
    "serve_reject": (
        dict(SERVE, arrival=BURST, queue_depth=3, overload_policy="reject"), {}, False, None,
    ),
    "serve_shed_w1": (
        dict(SERVE, arrival=BURST, queue_depth=3, overload_policy="shed_oldest",
             dispatch_window=1),
        {}, False, None,
    ),
    # -- the fault-free pipeline's one-row callers --
    "adaptive_w0": (dict(BASE, routing="adaptive", one_sided=False), {}, False, None),
    "adaptive_w2": (
        dict(BASE, routing="adaptive", one_sided=False, dispatch_window=2), {}, False, None,
    ),
    "owner": (dict(BASE, owner_strategy="multiple", one_sided=False), {}, False, None),
    "owner_filter": (
        dict(BASE, owner_strategy="multiple", one_sided=False), dict(filter=NARROW), False, None,
    ),
    # -- closed loop: B = 1 / B = 4 x one-/two-sided x +- filter --
    "closed_b1_onesided": (dict(BASE), {}, False, None),
    "closed_b1_twosided": (dict(BASE, one_sided=False), {}, False, None),
    "closed_b4_onesided": (dict(BASE, batch_size=4), {}, False, None),
    "closed_b4_twosided": (dict(BASE, batch_size=4, one_sided=False), {}, False, None),
    "closed_b1_onesided_filter": (dict(BASE), dict(filter=WIDE), False, None),
    "closed_b1_twosided_filter": (dict(BASE, one_sided=False), dict(filter=NARROW), False, None),
    "closed_b4_onesided_filter": (
        dict(BASE, batch_size=4, dispatch_window=4), dict(filter=NARROW), False, None,
    ),
    "closed_b4_twosided_filter": (
        dict(BASE, batch_size=4, one_sided=False), dict(filter=WIDE), False, None,
    ),
    # -- the modeled searcher (the per-row virtual charge) --
    "modeled_ft": (
        dict(FT, **MODELED, replication_factor=2, fault_policy=FaultPolicy()), {}, False, 0.3,
    ),
    "modeled_serve_filter": (
        dict(SERVE, **MODELED, dispatch_window=2), dict(filter=WIDE), False, None,
    ),
    # -- a one-row searcher behind the adaptation (see run_search) --
    "kd_baseline": None,
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _observe(D, I, rep) -> dict:
    """Everything a rerouted mode must repeat, as plain literals."""
    counters = rep.metrics["counters"]
    out = {
        "answer": _digest(D, I),
        "total_seconds": repr(rep.total_seconds),
        "n_events": rep.n_events,
        "sim": (counters["sim.msgs_sent"], counters["sim.bytes_sent"],
                counters.get("sim.rma_ops", 0)),
        "tasks": (rep.tasks, rep.task_messages),
        "faults": (rep.retries, rep.failovers, rep.failed_tasks, rep.duplicate_results),
        "serving": (rep.admitted_queries, rep.shed_queries, rep.rejected_queries, rep.cache_hits),
        "filter": (rep.filter_tasks_pre, rep.filter_tasks_post, rep.filter_evals_pre,
                   rep.filter_evals_post, rep.filter_empty_tasks),
        "latency_sum": repr(
            None if rep.query_latencies is None else float(np.nansum(rep.query_latencies))
        ),
    }
    if rep.dispatch_times is not None:
        out["timeline"] = _digest(rep.dispatch_times, rep.complete_times)
    # per-phase span time and per-role time buckets, summed over procs
    out["breakdowns"] = (
        repr(rep.phase_breakdown), repr(rep.worker_breakdown), repr(rep.master_breakdown)
    )
    return out


def _system(name: str):
    """(fitted system, queries, query keywords) of one DistributedANN case,
    built through the public entry points only."""
    config, query_kw, hot, crash = CASES[name]
    queries = Q_HOT if hot else Q
    ann = DistributedANN(SystemConfig(**config))
    ann.fit(X, metadata=TIERS)
    if crash is not None:
        makespan = ann.query(queries, **query_kw)[2].total_seconds
        ann = DistributedANN(SystemConfig(**dict(config, fault_spec=_crash(crash, makespan))))
        ann.fit(X, metadata=TIERS)
    return ann, queries, query_kw


def _prepare(name: str):
    """The measured query of one case as a zero-argument call, its system
    already built."""
    if name == "kd_baseline":
        kd = KDBaselineSystem(SystemConfig(**BASE), leaf_size=16)
        kd.fit(X)
        return lambda: kd.query(Q, K)
    ann, queries, query_kw = _system(name)
    return lambda: ann.query(queries, **query_kw)


@pytest.fixture(scope="module")
def runs():
    """name -> (observation, [(payload, tag, nbytes) of every query-phase
    send], report, the query's SimulationResult)."""
    out = {}
    real_transmit, real_run = Simulation._transmit, Simulation.run
    for name in CASES:
        query = _prepare(name)
        sent, sims = [], []

        def spy(self, proc, sc, _sent=sent):
            _sent.append((sc.payload, sc.tag, sc.nbytes))
            return real_transmit(self, proc, sc)

        def run_spy(self, _sims=sims):
            _sims.append(real_run(self))
            return _sims[-1]

        Simulation._transmit, Simulation.run = spy, run_spy
        try:
            D, I, rep = query()
            (sim_out,) = sims
            out[name] = (_observe(D, I, rep), sent, rep, sim_out)
        finally:
            Simulation._transmit, Simulation.run = real_transmit, real_run
    return out


#: computed at the parent commit (e74adb0) by calling ``_observe`` on every
#: case, before any source edit of the change that introduced this file.
#: ``n_events`` alone was recomputed when ``Context.recv`` made a receive
#: one engine event instead of two (post, wait) or three (post, a wait on
#: the receive or the stop flag, cancel): every other field, virtual times included, is unchanged, and
#: each count only fell (``closed_b1_onesided`` 461 -> 369, ``adaptive_w0``
#: 1645 -> 1241, ``owner`` 656 -> 504).  It was recomputed once more when a
#: worker thread's start and stop became two events (its lock epoch rides
#: its first receive; unlock, exit notice and return are one ``ctx.exit``)
#: and the fault-free master began counting exit notices with one
#: ``recv_n``.  Again nothing else moved.  Per thread that is one event
#: fewer two-sided and three fewer one-sided, plus all but one of the
#: master's exit receives; the fault harness keeps its per-notice loop:
#: ft_free / ft_windowed 577 -> 569, ft_crash_r2_w1 598 -> 591,
#: ft_crash_r1 618 -> 611, ft_lossy 699 -> 691, ft_filter 604 -> 597,
#: ft_serve_cache_crash 492 -> 485, ft_serve_lossy_w1 756 -> 748,
#: serve_w0 / serve_prefilter / modeled_serve_filter 662 -> 647,
#: serve_w2_cache 310 -> 295, serve_onesided_w2 678 -> 647,
#: serve_reject / serve_shed_w1 202 -> 187, adaptive_w0 / adaptive_w2 /
#: kd_baseline 1241 -> 1226, owner / owner_filter 504 -> 496,
#: closed_b1_onesided(_filter) 369 -> 338, closed_b1_twosided(_filter)
#: 497 -> 482, closed_b4_onesided 219 -> 188, closed_b4_onesided_filter
#: 263 -> 232, closed_b4_twosided(_filter) 247 -> 232, modeled_ft 608 -> 601.
#: When the serving and fault-tolerant loops began taking each arrival and
#: result with one receive over both tags (not a post, then a wait) the
#: counts of the rows they run fell again: ft_free / ft_windowed 569 -> 497,
#: ft_crash_r2_w1 591 -> 519, ft_crash_r1 611 -> 541, ft_lossy 691 -> 613,
#: ft_filter 597 -> 525, ft_serve_cache_crash 485 -> 419, serve_w0 /
#: serve_onesided_w2 / serve_prefilter / modeled_serve_filter 647 -> 551,
#: serve_w2_cache 295 -> 247, serve_reject / serve_shed_w1 187 -> 151,
#: modeled_ft 601 -> 529; the rows the module docstring names moved as it
#: says (ft_serve_lossy_w1 748 -> 591).  When a timed receive began to
#: keep its deadline (a match that arrives after it stays queued, and the
#: receive returns None at the deadline; it used to wait for that match),
#: the fault harness's deadline waits moved three rows, and only those:
#: ft_lossy (n_events 613 -> 639, faults (2, 26, 0, 6) -> (4, 24, 0, 5),
#: same answer), ft_serve_cache_crash (latency_sum and timeline only) and
#: every field of ft_serve_lossy_w1 (n_events 591 -> 592, tasks 84 -> 85;
#: recall@5 against brute force 0.658 -> 0.667).  Their breakdowns below
#: were recomputed with them.
GOLDEN: dict[str, dict] = {'ft_free': {'answer': 'af18f7c6b134b47a',
             'total_seconds': '5.2277600000000185e-05',
             'n_events': 497,
             'sim': (160, 14080, 0),
             'tasks': (72, 72),
             'faults': (0, 0, 0, 0),
             'serving': (0, 0, 0, 0),
             'filter': (0, 0, 0, 0, 0),
             'latency_sum': '0.0008842056000000027'},
 'ft_windowed': {'answer': 'af18f7c6b134b47a',
                 'total_seconds': '6.881479999999996e-05',
                 'n_events': 497,
                 'sim': (160, 14080, 0),
                 'tasks': (72, 72),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.0008790536000000006'},
 'ft_crash_r2_w1': {'answer': 'af18f7c6b134b47a',
                    'total_seconds': '0.003265612399999998',
                    'n_events': 519,
                    'sim': (176, 14272, 0),
                    'tasks': (73, 73),
                    'faults': (0, 1, 0, 0),
                    'serving': (0, 0, 0, 0),
                    'filter': (0, 0, 0, 0, 0),
                    'latency_sum': '0.0016979992'},
 'ft_crash_r1': {'answer': 'f90d3453783610cb',
                 'total_seconds': '0.014558297599999995',
                 'n_events': 541,
                 'sim': (183, 14824, 0),
                 'tasks': (84, 84),
                 'faults': (12, 0, 4, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.0492028456'},
 'ft_lossy': {'answer': 'af18f7c6b134b47a',
              'total_seconds': '0.004876472799999998',
              'n_events': 639,
              'sim': (215, 17816, 0),
              'tasks': (100, 100),
              'faults': (4, 24, 0, 5),
              'serving': (0, 0, 0, 0),
              'filter': (0, 0, 0, 0, 0),
              'latency_sum': '0.018340545199999995'},
 'ft_filter': {'answer': 'd0476ac6c1db2241',
               'total_seconds': '0.003267190199999998',
               'n_events': 525,
               'sim': (178, 19998, 0),
               'tasks': (75, 75),
               'faults': (0, 3, 0, 0),
               'serving': (0, 0, 0, 0),
               'filter': (0, 72, 0, 6516, 0),
               'latency_sum': '0.0032443390000000015'},
 'ft_serve_cache_crash': {'answer': '76d501a8d4715e5a',
                          'total_seconds': '0.0033114175368214507',
                          'n_events': 419,
                          'sim': (147, 9704, 0),
                          'tasks': (50, 50),
                          'faults': (0, 8, 0, 0),
                          'serving': (24, 0, 0, 10),
                          'filter': (0, 0, 0, 0, 0),
                          'latency_sum': '0.006609804126101311',
                          'timeline': '78eeb9c1904a9fd2'},
 'ft_serve_lossy_w1': {'answer': '7029d9c027668a70',
                       'total_seconds': '0.007330157599999999',
                       'n_events': 592,
                       'sim': (201, 15448, 0),
                       'tasks': (85, 85),
                       'faults': (21, 5, 13, 9),
                       'serving': (24, 0, 0, 0),
                       'filter': (0, 0, 0, 0, 0),
                       'latency_sum': '0.07055565999999998',
                       'timeline': '80d178ba40b9080f'},
 'serve_w0': {'answer': 'af18f7c6b134b47a',
              'total_seconds': '8.204889266587737e-05',
              'n_events': 551,
              'sim': (180, 14624, 0),
              'tasks': (72, 72),
              'faults': (0, 0, 0, 0),
              'serving': (24, 0, 0, 0),
              'filter': (0, 0, 0, 0, 0),
              'latency_sum': '0.00024286166152408912',
              'timeline': '2ab6a070354dfd00'},
 'serve_w2_cache': {'answer': '76d501a8d4715e5a',
                    'total_seconds': '7.552969266587743e-05',
                    'n_events': 247,
                    'sim': (84, 5408, 0),
                    'tasks': (24, 24),
                    'faults': (0, 0, 0, 0),
                    'serving': (24, 0, 0, 16),
                    'filter': (0, 0, 0, 0, 0),
                    'latency_sum': '0.00012812128146018844',
                    'timeline': '70887d932878f4cf'},
 'serve_onesided_w2': {'answer': 'af18f7c6b134b47a',
                       'total_seconds': '9.689991988741943e-05',
                       'n_events': 551,
                       'sim': (180, 16352, 72),
                       'tasks': (72, 72),
                       'faults': (0, 0, 0, 0),
                       'serving': (24, 0, 0, 0),
                       'filter': (0, 0, 0, 0, 0),
                       'latency_sum': '0.0004288919458676499',
                       'timeline': '7718401c38221ce4'},
 'serve_prefilter': {'answer': '4cdd3e3b7d9e5b3f',
                     'total_seconds': '8.097459266587738e-05',
                     'n_events': 551,
                     'sim': (180, 19880, 0),
                     'tasks': (72, 72),
                     'faults': (0, 0, 0, 0),
                     'serving': (24, 0, 0, 0),
                     'filter': (72, 0, 2692, 0, 0),
                     'latency_sum': '0.00021826722286980856',
                     'timeline': '5fd5c844a15384b9'},
 'serve_reject': {'answer': '9d41a7b9af57fd18',
                  'total_seconds': '2.6146800000000012e-05',
                  'n_events': 151,
                  'sim': (60, 3104, 0),
                  'tasks': (12, 12),
                  'faults': (0, 0, 0, 0),
                  'serving': (4, 0, 20, 0),
                  'filter': (0, 0, 0, 0, 0),
                  'latency_sum': '6.711680000000003e-05',
                  'timeline': 'f69078b5ad2407da'},
 'serve_shed_w1': {'answer': 'b5e7c6f58394dcf2',
                   'total_seconds': '3.045520000000002e-05',
                   'n_events': 151,
                   'sim': (60, 3104, 0),
                   'tasks': (12, 12),
                   'faults': (0, 0, 0, 0),
                   'serving': (4, 20, 0, 0),
                   'filter': (0, 0, 0, 0, 0),
                   'latency_sum': '7.345720000000004e-05',
                   'timeline': 'e848e5c03f9e4aa5'},
 'adaptive_w0': {'answer': '9a8128a473a7e61a',
                 'total_seconds': '0.0001280151999999981',
                 'n_events': 1226,
                 'sim': (396, 37088, 0),
                 'tasks': (192, 192),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.002338587999999974'},
 'adaptive_w2': {'answer': '9a8128a473a7e61a',
                 'total_seconds': '0.00013223399999999868',
                 'n_events': 1226,
                 'sim': (396, 37088, 0),
                 'tasks': (192, 192),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.0017482879999999896'},
 'owner': {'answer': 'af18f7c6b134b47a',
           'total_seconds': '4.053080000000002e-05',
           'n_events': 496,
           'sim': (160, 14080, 0),
           'tasks': (72, 72),
           'faults': (0, 0, 0, 0),
           'serving': (0, 0, 0, 0),
           'filter': (0, 0, 0, 0, 0),
           'latency_sum': 'None'},
 'owner_filter': {'answer': '3841d55ca1d91697',
                  'total_seconds': '1.873910000000001e-05',
                  'n_events': 496,
                  'sim': (160, 16984, 0),
                  'tasks': (72, 72),
                  'faults': (0, 0, 0, 0),
                  'serving': (0, 0, 0, 0),
                  'filter': (72, 0, 258, 0, 0),
                  'latency_sum': 'None'},
 'closed_b1_onesided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '5.4400000000000014e-05',
                        'n_events': 338,
                        'sim': (84, 14048, 72),
                        'tasks': (72, 72),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': 'None'},
 'closed_b1_twosided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '4.997440000000018e-05',
                        'n_events': 482,
                        'sim': (156, 14048, 0),
                        'tasks': (72, 72),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': '0.0009030856000000025'},
 'closed_b4_onesided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '5.32856e-05',
                        'n_events': 188,
                        'sim': (34, 13248, 72),
                        'tasks': (72, 22),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': 'None'},
 'closed_b4_twosided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '3.284000000000002e-05',
                        'n_events': 232,
                        'sim': (56, 12448, 0),
                        'tasks': (72, 22),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': '0.0005133220000000003'},
 'closed_b1_onesided_filter': {'answer': 'd0476ac6c1db2241',
                               'total_seconds': '5.449060000000001e-05',
                               'n_events': 338,
                               'sim': (84, 19376, 72),
                               'tasks': (72, 72),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (0, 72, 0, 6516, 0),
                               'latency_sum': 'None'},
 'closed_b1_twosided_filter': {'answer': '3841d55ca1d91697',
                               'total_seconds': '4.985440000000008e-05',
                               'n_events': 482,
                               'sim': (156, 16952, 0),
                               'tasks': (72, 72),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (72, 0, 258, 0, 0),
                               'latency_sum': '0.0008836396000000013'},
 'closed_b4_onesided_filter': {'answer': '3841d55ca1d91697',
                               'total_seconds': '4.8033200000000006e-05',
                               'n_events': 232,
                               'sim': (56, 13730, 72),
                               'tasks': (72, 22),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (72, 0, 258, 0, 0),
                               'latency_sum': 'None'},
 'closed_b4_twosided_filter': {'answer': 'd0476ac6c1db2241',
                               'total_seconds': '3.296740000000001e-05',
                               'n_events': 232,
                               'sim': (56, 14076, 0),
                               'tasks': (72, 22),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (0, 72, 0, 6516, 0),
                               'latency_sum': '0.0005146244000000003'},
 'modeled_ft': {'answer': 'f44c04f46383cfac',
                'total_seconds': '0.009045475599999997',
                'n_events': 529,
                'sim': (179, 14536, 0),
                'tasks': (76, 76),
                'faults': (0, 4, 0, 0),
                'serving': (0, 0, 0, 0),
                'filter': (0, 0, 0, 0, 0),
                'latency_sum': '0.0142824932'},
 'modeled_serve_filter': {'answer': 'a8154a3b5fd17d13',
                          'total_seconds': '0.0006198753198874192',
                          'n_events': 551,
                          'sim': (180, 19952, 0),
                          'tasks': (72, 72),
                          'faults': (0, 0, 0, 0),
                          'serving': (24, 0, 0, 0),
                          'filter': (0, 72, 0, 5400, 0),
                          'latency_sum': '0.006660473584563094',
                          'timeline': '30af6971050d0639'},
 'kd_baseline': {'answer': '4aa0604122e9c870',
                 'total_seconds': '0.00012302319999999808',
                 'n_events': 1226,
                 'sim': (396, 37088, 0),
                 'tasks': (192, 192),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.002213199999999977'}}


#: ``_observe``'s ``breakdowns`` of every case — ``repr`` of the report's
#: ``phase_breakdown``, ``worker_breakdown`` and ``master_breakdown`` —
#: computed at the parent commit (4b174df) before any source edit of the
#: change that added them, when the worker's span accounting was
#: rewritten by hand: a span that moves, or a float summed in another
#: order, changes a literal here.
BREAKDOWNS: dict[str, tuple] = {
    'adaptive_w0': (
        "{'route': 4.991999999999994e-06, 'dispatch': 5.75999999999999e-05, 'search': 0.00036085919999999996, 'reduce': 0.00011711999999999794, 'drain': 8.303200000000155e-06}",
        "{'compute': 0.00036085920000000006, 'send': 5.999999999999998e-05, 'recv': 5.8799999999999986e-05, 'wait': 0.0005184431999999846, 'rma': 0.0}",
        "{'compute': 6.911999999999991e-06, 'send': 5.880000000000008e-05, 'recv': 6.000000000000008e-05, 'wait': 2.3032000000000087e-06, 'rma': 0.0}",
    ),
    'adaptive_w2': (
        "{'route': 4.991999999999953e-06, 'dispatch': 5.759999999999945e-05, 'search': 0.00036085919999999974, 'reduce': 0.00012133879999999863, 'drain': 8.303200000000155e-06}",
        "{'compute': 0.00036085919999999996, 'send': 5.999999999999998e-05, 'recv': 5.8799999999999986e-05, 'wait': 0.0005521935999999902, 'rma': 0.0}",
        "{'compute': 6.911999999999989e-06, 'send': 5.880000000000008e-05, 'recv': 6.000000000000008e-05, 'wait': 6.522000000000151e-06, 'rma': 0.0}",
    ),
    'closed_b1_onesided': (
        "{'route': 2.4543999999999955e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.0001351584, 'reduce': 0.00013034879999999997, 'drain': 3.27456e-05}",
        "{'compute': 0.0001639584, 'send': 2.4000000000000003e-06, 'recv': 2.2800000000000005e-05, 'wait': 1.2159200000000007e-05, 'rma': 0.0001303488}",
        "{'compute': 2.4544e-06, 'send': 2.2800000000000022e-05, 'recv': 2.4000000000000003e-06, 'wait': 2.674559999999999e-05, 'rma': 0.0}",
    ),
    'closed_b1_onesided_filter': (
        "{'route': 2.4543999999999955e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.00013553279999999998, 'reduce': 0.00013034879999999997, 'drain': 3.2836199999999996e-05}",
        "{'compute': 0.0001643328, 'send': 2.4000000000000003e-06, 'recv': 2.2800000000000005e-05, 'wait': 1.2120400000000007e-05, 'rma': 0.0001303488}",
        "{'compute': 2.4544e-06, 'send': 2.2800000000000022e-05, 'recv': 2.4000000000000003e-06, 'wait': 2.6836199999999985e-05, 'rma': 0.0}",
    ),
    'closed_b1_twosided': (
        "{'route': 2.4543999999999955e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.0001351584, 'reduce': 4.392000000000019e-05, 'drain': 6.00000000000001e-06}",
        "{'compute': 0.0001351584, 'send': 2.4000000000000004e-05, 'recv': 2.2800000000000005e-05, 'wait': 5.668640000000005e-05, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.2800000000000022e-05, 'recv': 2.4000000000000024e-05, 'wait': 0.0, 'rma': 0.0}",
    ),
    'closed_b1_twosided_filter': (
        "{'route': 2.4543999999999955e-06, 'dispatch': 2.1600000000000024e-05, 'search': 5.36640000000001e-06, 'reduce': 4.380000000000008e-05, 'drain': 6.00000000000001e-06}",
        "{'compute': 5.3664e-06, 'send': 2.4000000000000004e-05, 'recv': 2.2800000000000005e-05, 'wait': 0.0001614752000000001, 'rma': 0.0}",
        "{'compute': 3.0544000000000004e-06, 'send': 2.2800000000000022e-05, 'recv': 2.4000000000000024e-05, 'wait': 0.0, 'rma': 0.0}",
    ),
    'closed_b4_onesided': (
        "{'route': 2.4544000000000014e-06, 'dispatch': 6.599999999999999e-06, 'search': 0.0001351584, 'reduce': 0.00013034879999999997, 'drain': 4.66312e-05}",
        "{'compute': 0.00016395840000000002, 'send': 2.4000000000000003e-06, 'recv': 7.8e-06, 'wait': 1.6328800000000002e-05, 'rma': 0.0001303488}",
        "{'compute': 2.4544e-06, 'send': 7.799999999999996e-06, 'recv': 2.4000000000000003e-06, 'wait': 4.063119999999999e-05, 'rma': 0.0}",
    ),
    'closed_b4_onesided_filter': (
        "{'route': 2.454399999999997e-06, 'dispatch': 6.600000000000008e-06, 'search': 5.366399999999993e-06, 'reduce': 0.00017213559999999998, 'drain': 6.00000000000001e-06}",
        "{'compute': 3.41664e-05, 'send': 9e-06, 'recv': 7.8e-06, 'wait': 0.00017135830000000003, 'rma': 0.0001301568}",
        "{'compute': 2.4544e-06, 'send': 7.799999999999996e-06, 'recv': 8.999999999999999e-06, 'wait': 2.8778799999999983e-05, 'rma': 0.0}",
    ),
    'closed_b4_twosided': (
        "{'route': 2.4544000000000014e-06, 'dispatch': 6.599999999999999e-06, 'search': 0.0001351584, 'reduce': 2.6785600000000024e-05, 'drain': 6.00000000000001e-06}",
        "{'compute': 0.0001351584, 'send': 9e-06, 'recv': 7.8e-06, 'wait': 3.07312e-05, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 7.799999999999996e-06, 'recv': 8.999999999999999e-06, 'wait': 1.2865599999999932e-05, 'rma': 0.0}",
    ),
    'closed_b4_twosided_filter': (
        "{'route': 2.4544000000000014e-06, 'dispatch': 6.599999999999999e-06, 'search': 0.0001355328, 'reduce': 2.6913000000000018e-05, 'drain': 6.00000000000001e-06}",
        "{'compute': 0.0001355328, 'send': 9e-06, 'recv': 7.8e-06, 'wait': 3.0788000000000004e-05, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 7.799999999999996e-06, 'recv': 8.999999999999999e-06, 'wait': 1.2992999999999926e-05, 'rma': 0.0}",
    ),
    'ft_crash_r1': (
        "{'route': 2.4544e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.0001296464, 'reduce': 2.108000000000014e-05, 'drain': 0.002433443199999996, 'retry': 3.599999999999437e-06}",
        "{'compute': 0.0001296464, 'send': 2.25e-05, 'recv': 2.2800000000000002e-05, 'wait': 0.08475432559999999, 'rma': 0.0}",
        "{'compute': 3.134400000000001e-06, 'send': 3.2400000000000035e-05, 'recv': 2.2500000000000022e-05, 'wait': 0.014500263199999997, 'rma': 0.0}",
    ),
    'ft_crash_r2_w1': (
        "{'route': 2.4544e-06, 'dispatch': 2.160000000000003e-05, 'search': 0.00013515839999999997, 'reduce': 2.2320000000000105e-05, 'drain': 0.002433443199999998, 'failover': 2.999999999999531e-07}",
        "{'compute': 0.00013515840000000002, 'send': 2.3700000000000007e-05, 'recv': 2.3700000000000007e-05, 'wait': 0.0057005159999999975, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.9100000000000033e-05, 'recv': 2.3700000000000024e-05, 'wait': 0.0032096379999999995, 'rma': 0.0}",
    ),
    'ft_filter': (
        "{'route': 2.4544e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.00013553279999999992, 'reduce': 2.232000000000015e-05, 'drain': 0.002433443199999998, 'failover': 8.999999999998592e-07}",
        "{'compute': 0.0001355328, 'send': 2.37e-05, 'recv': 2.37e-05, 'wait': 0.005706360399999996, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.9700000000000034e-05, 'recv': 2.3700000000000024e-05, 'wait': 0.0032106157999999994, 'rma': 0.0}",
    ),
    'ft_free': (
        "{'route': 2.4544e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.0001351584, 'reduce': 2.232000000000015e-05, 'drain': 8.303200000000012e-06}",
        "{'compute': 0.0001351584, 'send': 2.4e-05, 'recv': 2.4e-05, 'wait': 0.0002138432000000014, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.4000000000000024e-05, 'recv': 2.4000000000000024e-05, 'wait': 1.1031999999999999e-06, 'rma': 0.0}",
    ),
    'ft_lossy': (
        "{'route': 2.4544e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.00015550079999999947, 'reduce': 2.561999999999983e-05, 'drain': 0.0024337431999999983, 'failover': 7.199999999998874e-06, 'retry': 1.1999999999998123e-06}",
        "{'compute': 0.00015550080000000001, 'send': 2.73e-05, 'recv': 2.73e-05, 'wait': 0.019376942399999996, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 3.7200000000000044e-05, 'recv': 2.5500000000000027e-05, 'wait': 0.004810598400000002, 'rma': 0.0}",
    ),
    'ft_serve_cache_crash': (
        "{'route': 1.3519999999999974e-06, 'dispatch': 1.2599999999999995e-05, 'search': 7.920639999999993e-05, 'reduce': 1.3020000000000036e-05, 'drain': 0.002433443199999998, 'failover': 2.3999999999996247e-06}",
        "{'compute': 7.92064e-05, 'send': 1.4700000000000002e-05, 'recv': 1.5e-05, 'wait': 0.0060866911776504455, 'rma': 0.0}",
        "{'compute': 1.7720000000000004e-06, 'send': 2.220000000000002e-05, 'recv': 2.190000000000002e-05, 'wait': 0.0032655455368214526, 'rma': 0.0}",
    ),
    'ft_serve_lossy_w1': (
        "{'route': 2.4543999999999917e-06, 'dispatch': 1.769999999999822e-05, 'search': 0.00012746240000000077, 'reduce': 2.0989999999997514e-05, 'drain': 0.0008192863999999999, 'retry': 6.299999999999015e-06, 'failover': 1.4999999999997654e-06}",
        "{'compute': 0.0001274624, 'send': 2.2800000000000002e-05, 'recv': 2.2800000000000002e-05, 'wait': 0.05277189679999999, 'rma': 0.0}",
        "{'compute': 3.0444000000000004e-06, 'send': 3.0300000000000035e-05, 'recv': 3.0000000000000035e-05, 'wait': 0.007266813200000006, 'rma': 0.0}",
    ),
    'ft_windowed': (
        "{'route': 2.4544e-06, 'dispatch': 2.160000000000003e-05, 'search': 0.0001351584, 'reduce': 2.232000000000012e-05, 'drain': 8.303199999999884e-06}",
        "{'compute': 0.0001351584, 'send': 2.4000000000000007e-05, 'recv': 2.4000000000000007e-05, 'wait': 0.00034614079999999994, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.4000000000000024e-05, 'recv': 2.4000000000000024e-05, 'wait': 1.7640399999999903e-05, 'rma': 0.0}",
    ),
    'kd_baseline': (
        "{'route': 0.0, 'dispatch': 5.7599999999999984e-05, 'search': 0.00029951999999999995, 'reduce': 0.00011711999999999805, 'drain': 8.303199999999924e-06}",
        "{'compute': 0.0002995199999999998, 'send': 5.999999999999998e-05, 'recv': 5.8799999999999986e-05, 'wait': 0.0005398463999999849, 'rma': 0.0}",
        "{'compute': 1.9199999999999918e-06, 'send': 5.880000000000008e-05, 'recv': 6.000000000000008e-05, 'wait': 2.3032000000000087e-06, 'rma': 0.0}",
    ),
    'modeled_ft': (
        "{'route': 2.4544e-06, 'dispatch': 2.1600000000000024e-05, 'search': 0.003026171199999999, 'reduce': 2.231999999999961e-05, 'drain': 0.006710963199999997, 'failover': 1.1999999999998123e-06}",
        "{'compute': 0.0030261712, 'send': 2.37e-05, 'recv': 2.4e-05, 'wait': 0.013478801999999995, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 3.0000000000000035e-05, 'recv': 2.3700000000000024e-05, 'wait': 0.008988601199999998, 'rma': 0.0}",
    ),
    'modeled_serve_filter': (
        "{'route': 2.454400000000109e-06, 'dispatch': 2.1600000000000213e-05, 'search': 0.0029847168000000004, 'reduce': 2.2320000000000098e-05, 'drain': 8.303199999999179e-06}",
        "{'compute': 0.0029847167999999995, 'send': 2.4000000000000004e-05, 'recv': 2.2800000000000005e-05, 'wait': 0.001901466559099356, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.2800000000000022e-05, 'recv': 3.120000000000003e-05, 'wait': 0.0005627009198874193, 'rma': 0.0}",
    ),
    'owner': (
        "{'route': 2.454400000000002e-06, 'dispatch': 2.1599999999999993e-05, 'search': 0.0001351584, 'reduce': 0.00011685920000000006, 'drain': 3.0406400000000035e-05}",
        "{'compute': 0.0001351584, 'send': 2.4000000000000004e-05, 'recv': 2.4000000000000004e-05, 'wait': 0.0001326880000000001, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.3999999999999994e-05, 'recv': 2.1599999999999996e-05, 'wait': 9.85456e-05, 'rma': 0.0}",
    ),
    'owner_filter': (
        "{'route': 2.454400000000002e-06, 'dispatch': 2.1599999999999993e-05, 'search': 5.366399999999996e-06, 'reduce': 4.400590000000001e-05, 'drain': 1.6092900000000003e-05}",
        "{'compute': 5.3664e-06, 'send': 2.4000000000000004e-05, 'recv': 2.4000000000000004e-05, 'wait': 8.814640000000006e-05, 'rma': 0.0}",
        "{'compute': 3.0544e-06, 'send': 2.3999999999999994e-05, 'recv': 2.1599999999999996e-05, 'wait': 1.1498799999999994e-05, 'rma': 0.0}",
    ),
    'serve_onesided_w2': (
        "{'route': 2.454400000000014e-06, 'dispatch': 2.159999999999991e-05, 'search': 0.00013515839999999997, 'reduce': 0.00015194879999999981, 'drain': 1.0103199999999887e-05}",
        "{'compute': 0.0001639584, 'send': 2.4000000000000004e-05, 'recv': 2.2800000000000005e-05, 'wait': 0.00040807295909935624, 'rma': 0.0001303488}",
        "{'compute': 2.4544e-06, 'send': 2.2800000000000022e-05, 'recv': 3.120000000000003e-05, 'wait': 4.0445519887419745e-05, 'rma': 0.0}",
    ),
    'serve_prefilter': (
        "{'route': 2.4544000000000108e-06, 'dispatch': 2.1599999999999946e-05, 'search': 5.599359999999998e-05, 'reduce': 2.2319999999999888e-05, 'drain': 8.303199999999884e-06}",
        "{'compute': 5.5993600000000005e-05, 'send': 2.4000000000000004e-05, 'recv': 2.2800000000000005e-05, 'wait': 0.0005189839413270196, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.2800000000000022e-05, 'recv': 3.120000000000003e-05, 'wait': 2.380019266587762e-05, 'rma': 0.0}",
    ),
    'serve_reject': (
        "{'route': 4.159999999999982e-07, 'dispatch': 3.6000000000000036e-06, 'search': 2.24016e-05, 'reduce': 3.7200000000000203e-06, 'drain': 8.303200000000009e-06}",
        "{'compute': 2.2401600000000002e-05, 'send': 5.999999999999999e-06, 'recv': 4.8e-06, 'wait': 0.00014995360000000005, 'rma': 0.0}",
        "{'compute': 5.36e-07, 'send': 4.8e-06, 'recv': 1.3200000000000006e-05, 'wait': 7.610799999999981e-06, 'rma': 0.0}",
    ),
    'serve_shed_w1': (
        "{'route': 4.159999999999982e-07, 'dispatch': 3.6000000000000036e-06, 'search': 2.2900800000000003e-05, 'reduce': 3.7200000000000186e-06, 'drain': 8.303200000000009e-06}",
        "{'compute': 2.2900800000000003e-05, 'send': 6e-06, 'recv': 4.800000000000001e-06, 'wait': 0.0001839216000000001, 'rma': 0.0}",
        "{'compute': 5.36e-07, 'send': 4.8e-06, 'recv': 1.3200000000000006e-05, 'wait': 1.1919199999999989e-05, 'rma': 0.0}",
    ),
    'serve_w0': (
        "{'route': 2.454400000000004e-06, 'dispatch': 2.1599999999999966e-05, 'search': 0.00013515839999999994, 'reduce': 2.2319999999999868e-05, 'drain': 8.303199999999884e-06}",
        "{'compute': 0.0001351584, 'send': 2.4000000000000004e-05, 'recv': 2.2800000000000005e-05, 'wait': 0.00044841354132701955, 'rma': 0.0}",
        "{'compute': 3.1744000000000005e-06, 'send': 2.2800000000000022e-05, 'recv': 3.120000000000003e-05, 'wait': 2.4874492665877637e-05, 'rma': 0.0}",
    ),
    'serve_w2_cache': (
        "{'route': 7.904000000000026e-07, 'dispatch': 7.200000000000005e-06, 'search': 4.52192e-05, 'reduce': 7.4400000000000355e-06, 'drain': 8.303199999999884e-06}",
        "{'compute': 4.52192e-05, 'send': 9.6e-06, 'recv': 8.4e-06, 'wait': 0.0005149991413270199, 'rma': 0.0}",
        "{'compute': 1.0304e-06, 'send': 8.399999999999998e-06, 'recv': 1.6800000000000012e-05, 'wait': 4.929929266587747e-05, 'rma': 0.0}",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_mode_repeats_the_parent(runs, name):
    assert runs[name][0] == dict(GOLDEN[name], breakdowns=BREAKDOWNS[name])


@pytest.mark.parametrize("name", list(CASES))
def test_time_buckets_sum_to_the_clock(runs, name):
    """Every virtual second of a live proc is in exactly one bucket:
    computing, sending, receiving, blocked, or one-sided."""
    out = runs[name][3]
    crashed = set(out.crashed_pids)
    for pid, s in out.stats.items():
        if pid in crashed:
            continue
        busy = sum(s.compute.values()) + s.send_time + s.recv_time + s.comm_wait + s.rma_time
        assert busy == pytest.approx(out.clocks[pid], rel=1e-12, abs=0.0), (name, pid)


def _sim_facts(out) -> dict:
    """A SimulationResult as plain literals: per-proc clocks, stats and
    results (a coordinator's report by type), crashes and faults."""
    return {
        "clocks": out.clocks,
        "stats": {pid: dataclasses.asdict(s) for pid, s in out.stats.items()},
        "results": {
            pid: r if r is None or isinstance(r, int) else type(r).__name__
            for pid, r in out.results.items()
        },
        "crashed": out.crashed_pids,
        "faults": out.fault_events,
        "n_events": out.n_events,
    }


@pytest.mark.parametrize("name", [n for n in CASES if n != "kd_baseline"])
def test_a_kept_session_repeats_a_fresh_runtime(name, monkeypatch):
    """The third call on a system's kept session — a new seed each call,
    as a benchmark assigns them — equals the same call through a fresh
    ``ClusterRuntime``: answers, report, counters, and every proc's clock,
    stats and result.  The threads the session registered are still the
    ones it runs, except those a crash killed."""
    from repro.runtime import ClusterRuntime, strategy_for

    ann, queries, query_kw = _system(name)
    sims = []
    real_run = Simulation.run

    def run_spy(self):
        sims.append(real_run(self))
        return sims[-1]

    monkeypatch.setattr(Simulation, "run", run_spy)
    config = ann.config
    for seed in (11, 12, 13):
        if seed == 13:
            session = ann._session
            programs = [proc.gen for proc in session.sim._procs]
            killed = set(sims[-1].crashed_pids)
        ann.config = dataclasses.replace(config, seed=seed)
        D, I, rep = ann.query(queries, **query_kw)
    kept = _sim_facts(sims[-1])
    assert ann._session is session

    build = ann._build
    runtime = ClusterRuntime(ann.config)
    if build.metrics is not None:
        runtime.metrics.merge(build.metrics)
    D2, I2, rep2 = runtime.run_search(
        strategy_for(ann.config), build.router, build.workgroups, build.node_stores,
        ann._make_searcher(), queries, K,
        fpayload=ann._resolve_filter(query_kw.get("filter"), None),
    )
    assert _observe(D, I, rep) == _observe(D2, I2, rep2)
    assert rep.metrics["counters"] == rep2.metrics["counters"]
    assert kept == _sim_facts(sims[-1])

    n_workers = config.n_nodes * config.threads_per_node
    procs = session.sim._procs
    for proc, before in zip(procs[len(procs) - n_workers:], programs[len(procs) - n_workers:]):
        assert (proc.gen is before) == (proc.pid not in killed), proc.name


def test_the_session_follows_the_wiring():
    """A new seed keeps the session; a config that wires the cluster
    differently, or a new fit, starts a new one, and the old one's
    parked threads return."""
    ann = DistributedANN(SystemConfig(**BASE))
    ann.fit(X)
    ann.query(Q)
    first = ann._session
    ann.config = dataclasses.replace(ann.config, seed=9, k=3)
    ann.query(Q)
    assert ann._session is first
    ann.config = dataclasses.replace(ann.config, one_sided=False)
    D, I, _ = ann.query(Q)
    assert ann._session is not first
    assert not any(proc.parked for proc in first.sim._procs)
    assert all(proc.gen is None for proc in first.sim._procs[1:])
    again = DistributedANN(SystemConfig(**BASE))
    again.fit(X)
    again.config = ann.config
    D2, I2, _ = again.query(Q)
    assert np.array_equal(I, I2) and np.array_equal(D, D2)
    second = ann._session
    ann.fit(X)
    assert ann._session is None and not any(proc.parked for proc in second.sim._procs)


def test_a_call_that_fails_before_its_run_drops_the_session(monkeypatch):
    """A failure between re-arming the session and running it (here in
    ``rearm`` itself) ends the session: its parked threads return, and
    the next call starts a new one rather than meeting a half-armed
    simulation."""
    from repro.runtime.cluster import ClusterRuntime

    ann = DistributedANN(SystemConfig(**BASE))
    ann.fit(X)
    D, I, _ = ann.query(Q)
    session = ann._session
    real_rearm = ClusterRuntime.rearm

    def failing_rearm(self, config):
        real_rearm(self, config)
        raise KeyboardInterrupt

    monkeypatch.setattr(ClusterRuntime, "rearm", failing_rearm)
    with pytest.raises(KeyboardInterrupt):
        ann.query(Q)
    assert ann._session is None
    assert not any(proc.parked for proc in session.sim._procs)
    monkeypatch.setattr(ClusterRuntime, "rearm", real_rearm)
    D2, I2, _ = ann.query(Q)
    assert np.array_equal(I, I2) and np.array_equal(D, D2)


def test_dropping_a_system_ends_its_session():
    """Parked threads and their simulation reference each other; the
    session closes with its system, so its programs return and the
    cluster's data is not held until a full collection."""
    ann = DistributedANN(SystemConfig(**BASE))
    ann.fit(X)
    ann.query(Q)
    session = ann._session
    assert any(proc.parked for proc in session.sim._procs)
    del ann
    assert not any(proc.parked for proc in session.sim._procs)


def test_rows_exercise_what_they_name():
    """The goldens themselves show each named mechanism fired."""
    g = GOLDEN
    for name in ("ft_crash_r2_w1", "ft_filter", "ft_serve_cache_crash", "modeled_ft"):
        assert g[name]["faults"][1] > 0, name  # failovers
    assert g["ft_crash_r1"]["faults"][2] > 0  # abandoned tasks
    for name in ("ft_lossy", "ft_serve_lossy_w1"):
        retries, failovers, _, duplicates = g[name]["faults"]
        assert retries > 0 and failovers > 0 and duplicates > 0, name
    assert g["serve_shed_w1"]["serving"][1] > 0
    assert g["serve_reject"]["serving"][2] > 0
    for name in ("ft_serve_cache_crash", "serve_w2_cache"):
        assert g[name]["serving"][3] > 0, name  # cache hits
    assert g["serve_prefilter"]["filter"][0] > 0 and g["serve_prefilter"]["filter"][1] == 0
    assert g["owner_filter"]["filter"][0] > 0
    assert g["closed_b4_twosided_filter"]["filter"][1] > 0
    assert g["closed_b4_twosided"]["tasks"][1] < g["closed_b4_twosided"]["tasks"][0]
    assert g["closed_b1_onesided"]["sim"][2] > 0  # RMA accumulates


#: (tasks, task_messages, router.dist_evals) of the multiple-owner rows as
#: the parent commit (874faf9) reported them, by summing one private
#: registry per owner; the owners now count into one shared registry
OWNER_SUMS = {"owner": (72, 72, 118), "owner_filter": (72, 72, 118)}


@pytest.mark.parametrize("name", list(CASES))
def test_report_reads_the_registry(runs, name):
    """Every projected scalar is its instrument in the report's own dump,
    which holds nothing outside the vocabulary, and the report survives
    JSON field for field."""
    rep = runs[name][2]
    for report_name, (kind, instrument) in REPORT_INSTRUMENTS.items():
        assert getattr(rep, report_name) == rep.metrics[kind + "s"][instrument], report_name
    assert validate_metrics(rep.metrics, required=REPORT_INSTRUMENTS.values()) == []
    payload = json.loads(json.dumps(rep.to_dict()))
    back = SearchReport.from_dict(payload)
    assert back.to_dict() == payload
    for f in dataclasses.fields(SearchReport):
        was, now = getattr(rep, f.name), getattr(back, f.name)
        if isinstance(was, np.ndarray):
            assert np.array_equal(was, now, equal_nan=True), f.name
        elif f.compare:
            assert was == now, f.name
    if name in OWNER_SUMS:
        counters = rep.metrics["counters"]
        assert (rep.tasks, rep.task_messages, counters["router.dist_evals"]) == OWNER_SUMS[name]


@pytest.mark.parametrize("name", list(CASES))
def test_wire_matches_its_table(runs, name):
    sent, rep = runs[name][1], runs[name][2]
    assert sent
    # the spy sits where every message passes, the engine's transmit:
    # what it saw is what the run counted, faults and crashes included
    assert len(sent) == rep.metrics["counters"]["sim.msgs_sent"]
    for payload, tag, nbytes in sent:
        assert payload[0] in messages.WIRE, payload[0]
        want_tag, size = messages.WIRE[payload[0]]
        assert tag == want_tag, payload[0]
        assert nbytes == size(payload), payload[0]
    kinds = {p[0] for p, _, _ in sent}
    assert {"task", "end", "tdone"} <= kinds


def _size(payload) -> int:
    return messages.WIRE[payload[0]][1](payload)


class TestWireSizes:
    """The table's sizes against the literals the per-kind ``*_nbytes``
    functions of the parent commit gave for the same payloads."""

    WIDE_PAYLOAD = {"clauses": clauses_to_wire([FilterSpec.parse(WIDE)]), "strategy": "auto"}
    TENANT_PAYLOAD = {
        "clauses": clauses_to_wire([FilterSpec.parse(NARROW), FilterSpec("tenant", "eq", 7)]),
        "strategy": "pre",
        "tenant": 7,
    }

    def test_one_row_is_the_row_formula(self):
        qvec = Q[3]
        # task_nbytes(qvec) = qvec.nbytes + 24
        assert _size(messages.make_task([3], 5, Q[3:4])) == qvec.nbytes + 24 == 88
        d, ids = np.zeros(K), np.zeros(K, dtype=np.int64)
        # result_nbytes(d, ids) = d.nbytes + ids.nbytes + 24, also the
        # charge of a one-sided worker's accumulate of that row
        assert _size(messages.make_result([3], 5, [d], [ids])) == d.nbytes + ids.nbytes + 24 == 104
        assert messages.result_nbytes((d,), (ids,)) == 104
        # filter_task_nbytes(qvec, fpayload) = the task + the compact JSON
        wfilter = messages.wire_filter(self.TENANT_PAYLOAD)
        assert wfilter.nbytes == 115
        assert _size(messages.make_task([3], 5, Q[3:4], wfilter, object())) == 203

    def test_batch_of_four(self):
        assert _size(messages.make_task([0, 1, 2, 3], 5, Q[:4])) == 304  # batch_task_nbytes
        wfilter = messages.wire_filter(self.WIDE_PAYLOAD)
        assert wfilter.nbytes == 74  # filter_payload_nbytes
        assert _size(messages.make_task([0, 1, 2, 3], 5, Q[:4], wfilter)) == 378
        ds = [np.zeros(n) for n in (5, 3, 0, 5)]
        idss = [np.zeros(len(d), dtype=np.int64) for d in ds]
        assert _size(messages.make_result([0, 1, 2, 3], 5, ds, idss)) == 256  # batch_result_nbytes

    def test_control_kinds(self):
        assert _size(messages.make_credit([0, 1, 2, 3], 5)) == 48
        assert _size(messages.make_credit([7], 5)) == 24
        assert _size(messages.make_arrival(7, 0.5)) == 24
        assert _size(messages.END) == 8
        assert _size(("tdone", 4, 9)) == 24

    def test_wire_filter_carries_the_decoded_pair(self):
        clauses, strategy = messages.wire_filter(self.TENANT_PAYLOAD).spec
        assert list(clauses) == [FilterSpec.parse(NARROW), FilterSpec("tenant", "eq", 7)]
        assert strategy == "pre"
        assert messages.wire_filter(None) is None


def test_filter_on_a_one_row_searcher_fails_before_the_run(monkeypatch):
    ann = DistributedANN(SystemConfig(**BASE))
    ann.fit(X, metadata=TIERS)
    monkeypatch.setattr(Simulation, "run", lambda self: pytest.fail("the simulation started"))
    with pytest.raises(TypeError, match="BruteForceSearcher has no search_batch"):
        ann.query_with_searcher(Q, K, BruteForceSearcher(ann.config.cost), filter=NARROW)
