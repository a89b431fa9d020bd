"""A task's compiled search on a host thread repeats the inline search.

Inside a query call, ``RealHnswSearcher`` stages every compiled HNSW
search when the coordinator sends the task (``prefetch``) and one host
thread runs it; the worker's ``search_batch`` collects it.  Without the
thread — under a one-CPU affinity mask, say — the same staged search runs
inline.  Either way a call must give the same answers, distance
evaluations, report, event count and per-proc clocks; these tests run each
mode both ways (the affinity mask is monkeypatched, so they need no second
CPU) and compare.  Without the compiled library (``make test-nonative``)
no thread ever starts and both runs take the python path.

They also pin the thread's hygiene: at most one per call, none for the
modeled searcher or a one-CPU mask, none left after a call — normal,
failed or on a session that is then closed — and a ring that is full of
searches nobody has collected yet never holds up the sender.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro import ClusterRuntime, DistributedANN, SystemConfig
from repro.core import searcher as searcher_mod
from repro.core.searcher import RealHnswSearcher
from repro.faults import FaultSpec, LinkFault
from repro.hnsw import native
from repro.runtime import strategy_for
from repro.simmpi.engine import Simulation
from repro.simmpi.errors import ProcError
from tests.test_query_path_identity import (
    BASE,
    CASES,
    MODELED,
    Q,
    Q_HOT,
    TIERS,
    X,
    _observe,
    _sim_facts,
)

COMPILED = native.native_search_layer_for("l2", X.shape[1]) is not None

#: name -> (config, query keywords, hot queries?, whether the thread serves)
MODES = {
    "closed_onesided": (CASES["closed_b1_onesided"][0], {}, False, True),
    "closed_twosided": (CASES["closed_b1_twosided"][0], {}, False, True),
    "batch4": (CASES["closed_b4_twosided"][0], {}, False, True),
    "window2": (dict(BASE, dispatch_window=2), {}, False, True),
    "wide_post": CASES["closed_b1_onesided_filter"][:3] + (True,),
    "narrow_pre": CASES["closed_b1_twosided_filter"][:3] + (False,),
    "owner": CASES["owner"][:3] + (False,),
    "ft_lossy": CASES["ft_lossy"][:3] + (True,),
    # the master's node (8) sends every task twice: the second copy finds
    # no prefetched search and stages its own
    "ft_dup_tasks": (
        dict(CASES["ft_free"][0], fault_policy=None,
             fault_spec=FaultSpec(links=(LinkFault(src=8, dup_prob=1.0),))),
        {}, False, True,
    ),
    "serve_cache": CASES["serve_w2_cache"][:3] + (True,),
}


class _Spy:
    """Counts search threads started and searches submitted to them."""

    def __init__(self, monkeypatch) -> None:
        self.threads = self.submits = 0
        init, submit = searcher_mod._SearchThread.__init__, searcher_mod._SearchThread.submit

        def spy_init(thread, *args):
            self.threads += 1
            init(thread, *args)

        def spy_submit(thread, search):
            self.submits += 1
            submit(thread, search)

        monkeypatch.setattr(searcher_mod._SearchThread, "__init__", spy_init)
        monkeypatch.setattr(searcher_mod._SearchThread, "submit", spy_submit)


def _cpus(monkeypatch, threaded: bool) -> None:
    """Two CPUs to spare a thread, or one; a named CPU that does not
    exist only makes the thread's placement fail, which it ignores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if threaded else {0})


def _evals(ann) -> int:
    return sum(p.index.n_dist_evals for p in ann._build.partitions.values() if p.index is not None)


def _call(ann, queries, query_kw, monkeypatch, threaded: bool):
    """One query of ``ann``: (observation, its SimulationResult facts,
    distance evaluations it made, the spy)."""
    sims = []
    real_run = Simulation.run

    def run_spy(sim):
        sims.append(real_run(sim))
        return sims[-1]

    with monkeypatch.context() as mp:
        mp.setattr(Simulation, "run", run_spy)
        _cpus(mp, threaded)
        spy = _Spy(mp)
        before = _evals(ann)
        D, I, rep = ann.query(queries, **query_kw)
    return (_observe(D, I, rep), _sim_facts(sims[-1]), _evals(ann) - before), rep, spy


@pytest.fixture(scope="module")
def systems():
    out = {}
    for name, (config, query_kw, hot, _) in MODES.items():
        ann = DistributedANN(SystemConfig(**config))
        ann.fit(X, metadata=TIERS)
        out[name] = (ann, Q_HOT if hot else Q, query_kw)
    return out


@pytest.mark.parametrize("name", list(MODES))
def test_threaded_call_repeats_the_inline_call(systems, name, monkeypatch):
    ann, queries, query_kw = systems[name]
    inline, _, off = _call(ann, queries, query_kw, monkeypatch, threaded=False)
    threaded, rep, on = _call(ann, queries, query_kw, monkeypatch, threaded=True)
    assert threaded == inline
    assert off.threads == off.submits == 0
    serves = MODES[name][3] and COMPILED
    assert on.threads == (1 if serves else 0)
    assert (on.submits > 0) == serves
    if name == "ft_dup_tasks" and serves:
        assert on.submits > rep.tasks  # duplicates staged their own search


def test_kept_session_repeats_across_calls(monkeypatch):
    """Three calls on one kept session, a new seed each, threaded and
    inline: every call of one equals the same call of the other."""
    config = SystemConfig(**CASES["closed_b1_twosided"][0])
    runs = {}
    for threaded in (False, True):
        ann = DistributedANN(config)
        ann.fit(X, metadata=TIERS)
        runs[threaded] = []
        for seed in (11, 12, 13):
            ann.config = SystemConfig(**dict(CASES["closed_b1_twosided"][0], seed=seed))
            runs[threaded].append(_call(ann, Q, {}, monkeypatch, threaded)[0])
    assert runs[True] == runs[False]


class _NaNBlindRouter:
    """The system's router, routing a row with a NaN like the zero row,
    so the row reaches the workers' compiled search."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def route_approx(self, q, *args, **kwargs):
        return self._inner.route_approx(np.nan_to_num(q), *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _run_search(config, build, Q, runtime=None):
    runtime = runtime or ClusterRuntime(config)
    searcher = RealHnswSearcher(config.cost, config.effective_ef_search)
    return runtime.run_search(
        strategy_for(config), _NaNBlindRouter(build.router), build.workgroups,
        build.node_stores, searcher, Q, config.k,
    )


@pytest.mark.parametrize("threaded", [False, True])
def test_nan_row_is_refused_alike_and_the_thread_joined(monkeypatch, threaded):
    config = SystemConfig(**CASES["closed_b1_twosided"][0])
    ann = DistributedANN(config)
    ann.fit(X, metadata=TIERS)
    build = ann._build
    bad = Q.copy()
    bad[5, 2] = np.nan
    _cpus(monkeypatch, threaded)
    spy = _Spy(monkeypatch)
    before = threading.active_count()
    with pytest.raises(ProcError) as err:
        _run_search(config, build, bad)
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__) == "Q contains non-finite values"
    assert threading.active_count() == before
    assert spy.threads == (1 if threaded and COMPILED else 0)


def test_no_thread_outlives_a_call_or_a_closed_session(monkeypatch):
    config = SystemConfig(**CASES["closed_b1_onesided"][0])
    ann = DistributedANN(config)
    ann.fit(X, metadata=TIERS)
    build = ann._build
    _cpus(monkeypatch, True)
    spy = _Spy(monkeypatch)
    before = threading.active_count()
    ann.query(Q)
    assert threading.active_count() == before
    session = ClusterRuntime(config, keep_threads=True)
    for _ in range(2):
        _run_search(config, build, Q, runtime=session)
        assert threading.active_count() == before
        session.rearm(config)
    session.close()
    assert threading.active_count() == before
    assert spy.threads == (3 if COMPILED else 0)  # one per call, at most


def test_no_thread_for_the_modeled_searcher(monkeypatch):
    ann = DistributedANN(SystemConfig(**dict(BASE, **MODELED)))
    ann.fit(X)
    _cpus(monkeypatch, True)
    spy = _Spy(monkeypatch)
    ann.query(Q)
    assert spy.threads == spy.submits == 0


def test_no_thread_under_a_one_cpu_mask(systems, monkeypatch):
    ann, queries, query_kw = systems["closed_onesided"]
    _cpus(monkeypatch, False)
    spy = _Spy(monkeypatch)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
    ann.query(queries, **query_kw)
    assert spy.threads == spy.submits == 0 and not started


@pytest.mark.parametrize("slots", [2, searcher_mod._RING_SLOTS])
def test_a_full_ring_never_waits_for_collection(monkeypatch, slots):
    """At W = 0 two workers fall far behind a coordinator routing 600
    queries: it sends more than 1,000 tasks before they are collected,
    far more than the ring holds.  A full ring waits for a search to
    run, never for its collection, so the call completes, equal to the
    inline call."""
    config = SystemConfig(**dict(BASE, one_sided=False, n_cores=2, cores_per_node=1, n_probe=2))
    queries = np.ascontiguousarray(X[:600] + np.float32(0.01))
    ann = DistributedANN(config)
    ann.fit(X, metadata=TIERS)
    monkeypatch.setattr(searcher_mod, "_RING_SLOTS", slots)
    peak = [0]
    prefetch = RealHnswSearcher.prefetch

    def spy_prefetch(searcher, *args):
        prefetch(searcher, *args)
        peak[0] = max(peak[0], len(searcher._tickets))

    monkeypatch.setattr(RealHnswSearcher, "prefetch", spy_prefetch)
    inline = _call(ann, queries, {}, monkeypatch, threaded=False)[0]
    assert peak[0] == 0
    threaded = _call(ann, queries, {}, monkeypatch, threaded=True)[0]
    assert threaded == inline
    if COMPILED:
        assert peak[0] > max(1000, slots)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled search")
def test_ring_searches_equal_inline_under_a_short_switch_interval(systems, monkeypatch):
    """Searches staged on eight indexes through a three-slot ring, with
    the interpreter switching threads every microsecond, collected in a
    shuffled order: each answer and evaluation count is the inline one,
    and the thread is gone after ``close``."""
    ann = systems["closed_twosided"][0]
    indexes = [p.index for p in ann._build.partitions.values()]
    rng = np.random.default_rng(7)
    jobs = [(indexes[i % len(indexes)], Q[rng.integers(0, len(Q), 1 + i % 3)]) for i in range(240)]
    want = []
    for index, rows in jobs:
        search = index.stage_search(rows, 5)
        search.run()
        want.append((search.finish(), index._row_evals.tolist()))
    monkeypatch.setattr(searcher_mod, "_RING_SLOTS", 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = searcher_mod._SearchThread(indexes[0]._native, -1)
    try:
        got = [None] * len(jobs)
        pending = []
        for j, (index, rows) in enumerate(jobs):
            search = index.stage_search(rows, 5)
            thread.submit(search)
            pending.append((j, search))
            if len(pending) > 6:
                rng.shuffle(pending)
                for jj, done in pending[:4]:
                    thread.wait(done)
                    got[jj] = (done.finish(), jobs[jj][0]._row_evals.tolist())
                pending = pending[4:]
        for jj, done in pending:
            thread.wait(done)
            got[jj] = (done.finish(), jobs[jj][0]._row_evals.tolist())
    finally:
        thread.close()
        sys.setswitchinterval(switch)
    assert not thread._thread.is_alive()
    for (rows_got, evals_got), (rows_want, evals_want) in zip(got, want):
        assert evals_got == evals_want
        for a, b in zip(rows_got, rows_want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
