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
threads: until then a duplicated exit notice ended it early.)

Crash times are fractions of the same mode's fault-free makespan, so a
"crash" row really loses in-flight work.

The same runs feed the wire check: every ``Context.send_to_mailbox`` of
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
from repro.simmpi.engine import Context, Simulation

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
    return out


def _prepare(name: str):
    """The measured query of one case as a zero-argument call, its system
    already built — through the public entry points only."""
    if name == "kd_baseline":
        kd = KDBaselineSystem(SystemConfig(**BASE), leaf_size=16)
        kd.fit(X)
        return lambda: kd.query(Q, K)
    config, query_kw, hot, crash = CASES[name]
    queries = Q_HOT if hot else Q
    ann = DistributedANN(SystemConfig(**config))
    ann.fit(X, metadata=TIERS)
    if crash is not None:
        makespan = ann.query(queries, **query_kw)[2].total_seconds
        ann = DistributedANN(SystemConfig(**dict(config, fault_spec=_crash(crash, makespan))))
        ann.fit(X, metadata=TIERS)
    return lambda: ann.query(queries, **query_kw)


@pytest.fixture(scope="module")
def runs():
    """name -> (observation, [(payload, tag, nbytes) of every query-phase send], report)."""
    out = {}
    real_send = Context.send_to_mailbox
    for name in CASES:
        query = _prepare(name)
        sent = []

        def spy(self, mailbox, payload, *, source, tag, nbytes, same_node, _sent=sent):
            _sent.append((payload, tag, nbytes))
            return real_send(
                self, mailbox, payload, source=source, tag=tag, nbytes=nbytes, same_node=same_node
            )

        Context.send_to_mailbox = spy
        try:
            D, I, rep = query()
            out[name] = (_observe(D, I, rep), sent, rep)
        finally:
            Context.send_to_mailbox = real_send
    return out


#: computed at the parent commit (e74adb0) by calling ``_observe`` on every
#: case, before any source edit of the change that introduced this file.
#: ``n_events`` alone was recomputed when ``Context.recv`` made a receive
#: one engine event instead of two (post, wait) or three (post, wait_any,
#: cancel): every other field, virtual times included, is unchanged, and
#: each count only fell (``closed_b1_onesided`` 461 -> 369, ``adaptive_w0``
#: 1645 -> 1241, ``owner`` 656 -> 504)
GOLDEN: dict[str, dict] = {'ft_free': {'answer': 'af18f7c6b134b47a',
             'total_seconds': '5.2277600000000185e-05',
             'n_events': 577,
             'sim': (160, 14080, 0),
             'tasks': (72, 72),
             'faults': (0, 0, 0, 0),
             'serving': (0, 0, 0, 0),
             'filter': (0, 0, 0, 0, 0),
             'latency_sum': '0.0008842056000000027'},
 'ft_windowed': {'answer': 'af18f7c6b134b47a',
                 'total_seconds': '6.881479999999996e-05',
                 'n_events': 577,
                 'sim': (160, 14080, 0),
                 'tasks': (72, 72),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.0008790536000000006'},
 'ft_crash_r2_w1': {'answer': 'af18f7c6b134b47a',
                    'total_seconds': '0.003265612399999998',
                    'n_events': 598,
                    'sim': (176, 14272, 0),
                    'tasks': (73, 73),
                    'faults': (0, 1, 0, 0),
                    'serving': (0, 0, 0, 0),
                    'filter': (0, 0, 0, 0, 0),
                    'latency_sum': '0.0016979992'},
 'ft_crash_r1': {'answer': 'f90d3453783610cb',
                 'total_seconds': '0.014558297599999995',
                 'n_events': 618,
                 'sim': (183, 14824, 0),
                 'tasks': (84, 84),
                 'faults': (12, 0, 4, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.0492028456'},
 'ft_lossy': {'answer': 'af18f7c6b134b47a',
              'total_seconds': '0.0048736191999999975',
              'n_events': 699,
              'sim': (216, 17920, 0),
              'tasks': (100, 100),
              'faults': (2, 26, 0, 6),
              'serving': (0, 0, 0, 0),
              'filter': (0, 0, 0, 0, 0),
              'latency_sum': '0.01838025239999999'},
 'ft_filter': {'answer': 'd0476ac6c1db2241',
               'total_seconds': '0.003267190199999998',
               'n_events': 604,
               'sim': (178, 19998, 0),
               'tasks': (75, 75),
               'faults': (0, 3, 0, 0),
               'serving': (0, 0, 0, 0),
               'filter': (0, 72, 0, 6516, 0),
               'latency_sum': '0.0032443390000000015'},
 'ft_serve_cache_crash': {'answer': '76d501a8d4715e5a',
                          'total_seconds': '0.0033114175368214507',
                          'n_events': 492,
                          'sim': (147, 9704, 0),
                          'tasks': (50, 50),
                          'faults': (0, 8, 0, 0),
                          'serving': (24, 0, 0, 10),
                          'filter': (0, 0, 0, 0, 0),
                          'latency_sum': '0.006612827427285171',
                          'timeline': '9ec3895a5316e021'},
 'ft_serve_lossy_w1': {'answer': 'af18cf68d102a616',
                       'total_seconds': '0.004134571599999998',
                       'n_events': 756,
                       'sim': (215, 17512, 0),
                       'tasks': (95, 95),
                       'faults': (23, 4, 4, 9),
                       'serving': (24, 0, 0, 0),
                       'filter': (0, 0, 0, 0, 0),
                       'latency_sum': '0.05820644559999996',
                       'timeline': '1be44dfc521ebf63'},
 'serve_w0': {'answer': 'af18f7c6b134b47a',
              'total_seconds': '8.204889266587737e-05',
              'n_events': 662,
              'sim': (180, 14624, 0),
              'tasks': (72, 72),
              'faults': (0, 0, 0, 0),
              'serving': (24, 0, 0, 0),
              'filter': (0, 0, 0, 0, 0),
              'latency_sum': '0.00024346166152408913',
              'timeline': '7f5dc5f09968d530'},
 'serve_w2_cache': {'answer': '76d501a8d4715e5a',
                    'total_seconds': '7.552969266587743e-05',
                    'n_events': 310,
                    'sim': (84, 5408, 0),
                    'tasks': (24, 24),
                    'faults': (0, 0, 0, 0),
                    'serving': (24, 0, 0, 16),
                    'filter': (0, 0, 0, 0, 0),
                    'latency_sum': '0.00012872128146018845',
                    'timeline': 'fc2edac2f9d9d463'},
 'serve_onesided_w2': {'answer': 'af18f7c6b134b47a',
                       'total_seconds': '9.689991988741943e-05',
                       'n_events': 678,
                       'sim': (180, 16352, 72),
                       'tasks': (72, 72),
                       'faults': (0, 0, 0, 0),
                       'serving': (24, 0, 0, 0),
                       'filter': (0, 0, 0, 0, 0),
                       'latency_sum': '0.0004288919458676499',
                       'timeline': '7718401c38221ce4'},
 'serve_prefilter': {'answer': '4cdd3e3b7d9e5b3f',
                     'total_seconds': '8.097459266587738e-05',
                     'n_events': 662,
                     'sim': (180, 19880, 0),
                     'tasks': (72, 72),
                     'faults': (0, 0, 0, 0),
                     'serving': (24, 0, 0, 0),
                     'filter': (72, 0, 2692, 0, 0),
                     'latency_sum': '0.00021856722286980857',
                     'timeline': 'cccda0c67c2367db'},
 'serve_reject': {'answer': '9d41a7b9af57fd18',
                  'total_seconds': '2.6146800000000012e-05',
                  'n_events': 202,
                  'sim': (60, 3104, 0),
                  'tasks': (12, 12),
                  'faults': (0, 0, 0, 0),
                  'serving': (4, 0, 20, 0),
                  'filter': (0, 0, 0, 0, 0),
                  'latency_sum': '6.711680000000003e-05',
                  'timeline': 'f69078b5ad2407da'},
 'serve_shed_w1': {'answer': 'b5e7c6f58394dcf2',
                   'total_seconds': '3.045520000000002e-05',
                   'n_events': 202,
                   'sim': (60, 3104, 0),
                   'tasks': (12, 12),
                   'faults': (0, 0, 0, 0),
                   'serving': (4, 20, 0, 0),
                   'filter': (0, 0, 0, 0, 0),
                   'latency_sum': '7.345720000000004e-05',
                   'timeline': 'e848e5c03f9e4aa5'},
 'adaptive_w0': {'answer': '9a8128a473a7e61a',
                 'total_seconds': '0.0001280151999999981',
                 'n_events': 1241,
                 'sim': (396, 37088, 0),
                 'tasks': (192, 192),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.002338587999999974'},
 'adaptive_w2': {'answer': '9a8128a473a7e61a',
                 'total_seconds': '0.00013223399999999868',
                 'n_events': 1241,
                 'sim': (396, 37088, 0),
                 'tasks': (192, 192),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.0017482879999999896'},
 'owner': {'answer': 'af18f7c6b134b47a',
           'total_seconds': '4.053080000000002e-05',
           'n_events': 504,
           'sim': (160, 14080, 0),
           'tasks': (72, 72),
           'faults': (0, 0, 0, 0),
           'serving': (0, 0, 0, 0),
           'filter': (0, 0, 0, 0, 0),
           'latency_sum': 'None'},
 'owner_filter': {'answer': '3841d55ca1d91697',
                  'total_seconds': '1.873910000000001e-05',
                  'n_events': 504,
                  'sim': (160, 16984, 0),
                  'tasks': (72, 72),
                  'faults': (0, 0, 0, 0),
                  'serving': (0, 0, 0, 0),
                  'filter': (72, 0, 258, 0, 0),
                  'latency_sum': 'None'},
 'closed_b1_onesided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '5.4400000000000014e-05',
                        'n_events': 369,
                        'sim': (84, 14048, 72),
                        'tasks': (72, 72),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': 'None'},
 'closed_b1_twosided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '4.997440000000018e-05',
                        'n_events': 497,
                        'sim': (156, 14048, 0),
                        'tasks': (72, 72),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': '0.0009030856000000025'},
 'closed_b4_onesided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '5.32856e-05',
                        'n_events': 219,
                        'sim': (34, 13248, 72),
                        'tasks': (72, 22),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': 'None'},
 'closed_b4_twosided': {'answer': 'af18f7c6b134b47a',
                        'total_seconds': '3.284000000000002e-05',
                        'n_events': 247,
                        'sim': (56, 12448, 0),
                        'tasks': (72, 22),
                        'faults': (0, 0, 0, 0),
                        'serving': (0, 0, 0, 0),
                        'filter': (0, 0, 0, 0, 0),
                        'latency_sum': '0.0005133220000000003'},
 'closed_b1_onesided_filter': {'answer': 'd0476ac6c1db2241',
                               'total_seconds': '5.449060000000001e-05',
                               'n_events': 369,
                               'sim': (84, 19376, 72),
                               'tasks': (72, 72),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (0, 72, 0, 6516, 0),
                               'latency_sum': 'None'},
 'closed_b1_twosided_filter': {'answer': '3841d55ca1d91697',
                               'total_seconds': '4.985440000000008e-05',
                               'n_events': 497,
                               'sim': (156, 16952, 0),
                               'tasks': (72, 72),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (72, 0, 258, 0, 0),
                               'latency_sum': '0.0008836396000000013'},
 'closed_b4_onesided_filter': {'answer': '3841d55ca1d91697',
                               'total_seconds': '4.8033200000000006e-05',
                               'n_events': 263,
                               'sim': (56, 13730, 72),
                               'tasks': (72, 22),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (72, 0, 258, 0, 0),
                               'latency_sum': 'None'},
 'closed_b4_twosided_filter': {'answer': 'd0476ac6c1db2241',
                               'total_seconds': '3.296740000000001e-05',
                               'n_events': 247,
                               'sim': (56, 14076, 0),
                               'tasks': (72, 22),
                               'faults': (0, 0, 0, 0),
                               'serving': (0, 0, 0, 0),
                               'filter': (0, 72, 0, 6516, 0),
                               'latency_sum': '0.0005146244000000003'},
 'modeled_ft': {'answer': 'f44c04f46383cfac',
                'total_seconds': '0.009045475599999997',
                'n_events': 608,
                'sim': (179, 14536, 0),
                'tasks': (76, 76),
                'faults': (0, 4, 0, 0),
                'serving': (0, 0, 0, 0),
                'filter': (0, 0, 0, 0, 0),
                'latency_sum': '0.0142824932'},
 'modeled_serve_filter': {'answer': 'a8154a3b5fd17d13',
                          'total_seconds': '0.0006198753198874192',
                          'n_events': 662,
                          'sim': (180, 19952, 0),
                          'tasks': (72, 72),
                          'faults': (0, 0, 0, 0),
                          'serving': (24, 0, 0, 0),
                          'filter': (0, 72, 0, 5400, 0),
                          'latency_sum': '0.006660473584563094',
                          'timeline': '30af6971050d0639'},
 'kd_baseline': {'answer': '4aa0604122e9c870',
                 'total_seconds': '0.00012302319999999808',
                 'n_events': 1241,
                 'sim': (396, 37088, 0),
                 'tasks': (192, 192),
                 'faults': (0, 0, 0, 0),
                 'serving': (0, 0, 0, 0),
                 'filter': (0, 0, 0, 0, 0),
                 'latency_sum': '0.002213199999999977'}}


@pytest.mark.parametrize("name", list(CASES))
def test_mode_repeats_the_parent(runs, name):
    assert runs[name][0] == GOLDEN[name]


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
    sent = runs[name][1]
    assert sent
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
