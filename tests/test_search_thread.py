"""A task's compiled search on a host thread repeats the inline search.

Inside a query call, ``RealHnswSearcher`` stages every compiled HNSW
search on the call's ``SearchRing`` when the coordinator sends the task
(``prefetch``), reading the task's row in place, and one host thread
runs it; the worker's ``search_batch`` collects it, its rows views of the
call's answer arena.  Without the thread — under a one-CPU affinity mask,
say — the same staged search runs when it is collected.  Either way a
call must give the same answers, distance evaluations, report, event
count and per-proc clocks, and stage the same searches; these tests run
each mode both ways (the affinity mask is monkeypatched, so they need no
second CPU) and compare.  Without the compiled library (``make
test-nonative``) nothing is staged and both runs take the python path.

They also pin the thread's hygiene: at most one per call, none for the
modeled searcher or a one-CPU mask, none left after a call — normal,
failed or on a session that is then closed — and a ring that is full of
searches nobody has collected yet never holds up the sender; and the
arena's: answers that outlive their call, blocks that die with the system.
"""

from __future__ import annotations

import ctypes
import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import ClusterRuntime, DistributedANN, SystemConfig
from repro.core import searcher as searcher_mod
from repro.core.searcher import RealHnswSearcher
from repro.faults import FaultSpec, LinkFault
from repro.hnsw import native
from repro.hnsw.index import SearchRing
from repro.runtime import strategy_for
from repro.simmpi.engine import Simulation
from repro.simmpi.errors import ProcError
from tests.test_hnsw_search_rows import search_rows
from tests.test_query_path_identity import (
    BASE,
    CASES,
    MODELED,
    Q,
    Q_HOT,
    TIERS,
    WIDE,
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
    """Counts search threads started, searches staged (with their row
    counts and masks) and arena blocks taken."""

    def __init__(self, monkeypatch) -> None:
        self.threads = self.blocks = 0
        self.staged: list[tuple[int, bool]] = []
        serve, stage, take = SearchRing.serve, SearchRing.stage, SearchRing._take_block

        def spy_serve(ring, cpu):
            self.threads += 1
            serve(ring, cpu)

        def spy_stage(ring, index, address, nq, mask=0):
            self.staged.append((nq, mask != 0))
            return stage(ring, index, address, nq, mask)

        def spy_take(ring, nq):
            self.blocks += 1
            take(ring, nq)

        monkeypatch.setattr(SearchRing, "serve", spy_serve)
        monkeypatch.setattr(SearchRing, "stage", spy_stage)
        monkeypatch.setattr(SearchRing, "_take_block", spy_take)


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
    assert off.threads == 0
    serves = MODES[name][3] and COMPILED
    assert on.threads == (1 if serves else 0)
    # one staging path: the same searches are staged, thread or not
    assert on.staged == off.staged
    assert bool(on.staged) == (COMPILED and name != "narrow_pre")
    if name == "ft_dup_tasks" and serves:
        assert len(on.staged) > rep.tasks  # duplicates staged their own search
    if name == "batch4" and serves:
        assert max(nq for nq, _ in on.staged) == 4  # a batch task is one search
    if name == "wide_post" and serves:
        assert all(masked for _, masked in on.staged)


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
    if COMPILED:
        # the refused row stages nothing, on the coordinator or the worker
        assert spy.staged


@pytest.mark.skipif(not COMPILED, reason="needs the compiled search")
def test_a_failed_filtered_call_keeps_its_masks_until_the_ring_is_closed(monkeypatch):
    """A post-filtered threaded call that fails partway leaves searches
    staged and never collected, which read the filter plan's mask until
    the thread is joined: the call's memo, the mask's one owner, is still
    set when the ring closes and dropped only after."""
    config = SystemConfig(**CASES["closed_b1_onesided_filter"][0])
    ann = DistributedANN(config)
    ann.fit(X, metadata=TIERS)
    build = ann._build
    bad = Q.copy()
    bad[5, 2] = np.nan
    searcher = RealHnswSearcher(config.cost, config.effective_ef_search)
    plans_at_close = []
    close = SearchRing.close

    def spy_close(ring):
        memo = searcher._memo
        plans_at_close.append(None if memo is None else [plan[0] for plan in memo.values()])
        close(ring)

    _cpus(monkeypatch, True)
    spy = _Spy(monkeypatch)
    monkeypatch.setattr(SearchRing, "close", spy_close)
    with pytest.raises(ProcError):
        ClusterRuntime(config).run_search(
            strategy_for(config), _NaNBlindRouter(build.router), build.workgroups,
            build.node_stores, searcher, bad, config.k, fpayload=ann._resolve_filter(WIDE, None),
        )
    assert spy.threads == 1 and any(masked for _, masked in spy.staged)
    assert len(plans_at_close) == 1 and plans_at_close[0] is not None
    assert "post" in plans_at_close[0]
    assert searcher._memo is None


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
    assert spy.threads == spy.blocks == 0 and not spy.staged


def test_no_thread_under_a_one_cpu_mask(systems, monkeypatch):
    ann, queries, query_kw = systems["closed_onesided"]
    _cpus(monkeypatch, False)
    spy = _Spy(monkeypatch)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
    ann.query(queries, **query_kw)
    assert spy.threads == 0 and not started
    assert bool(spy.staged) == COMPILED  # staged alike, run when collected


@pytest.mark.parametrize("slots", [2, searcher_mod._RING_SLOTS])
def test_a_full_ring_never_waits_for_collection(monkeypatch, slots):
    """At W = 0 two workers fall far behind a coordinator routing 600
    queries: it sends more than 1,000 tasks before they are collected,
    far more than the ring holds and more than an arena block's rows.  A
    full ring waits for a search to run, never for its collection, and a
    full block gives way to the next, so the call completes, equal to the
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
    inline, _, off = _call(ann, queries, {}, monkeypatch, threaded=False)
    threaded, _, on = _call(ann, queries, {}, monkeypatch, threaded=True)
    assert threaded == inline
    if COMPILED:
        assert peak[0] > max(searcher_mod._ARENA_ROWS, slots)
        assert len(on.staged) > searcher_mod._ARENA_ROWS
        assert on.blocks == off.blocks > 1


def _inline_answers(jobs, k):
    """Each job's padded answer and per-row evaluations from the index's
    own ``knn_search_batch``."""
    out = []
    for index, rows in jobs:
        D, I, stats = search_rows(index, rows, k)
        out.append((D, I, stats[:, 0].tolist()))
    return out


@pytest.mark.skipif(not COMPILED, reason="needs the compiled search")
def test_ring_searches_equal_inline_under_a_short_switch_interval(systems, monkeypatch):
    """Searches staged on eight indexes through a three-slot ring and
    16-row arena blocks, with the interpreter switching threads every
    microsecond, collected in a shuffled order: each answer and
    evaluation count is the inline one, and the thread is gone after
    ``close``."""
    ann = systems["closed_twosided"][0]
    indexes = [p.index for p in ann._build.partitions.values()]
    rng = np.random.default_rng(7)
    jobs = [(indexes[i % len(indexes)], Q[rng.integers(0, len(Q), 1 + i % 3)]) for i in range(240)]
    want = _inline_answers(jobs, 5)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    ring = SearchRing(indexes[0]._native, 5, max(indexes[0].params.ef_search, 5), 16, slots=3)
    ring.serve(-1)
    got: list = [None] * len(jobs)
    try:
        pending = []
        for j, (index, rows) in enumerate(jobs):
            pending.append((j, ring.stage(index, rows.ctypes.data, len(rows))))
            if len(pending) > 6:
                rng.shuffle(pending)
                for jj, ticket in pending[:4]:
                    got[jj] = (ticket, ring.collect(jobs[jj][0], ticket))
                pending = pending[4:]
        for jj, ticket in pending:
            got[jj] = (ticket, ring.collect(jobs[jj][0], ticket))
    finally:
        ring.close()
        sys.setswitchinterval(switch)
    assert not ring._thread.is_alive()
    for ((_, row, nq, (D, I, _)), stats), (D0, I0, evals0) in zip(got, want):
        assert [e for e, _ in stats] == evals0
        assert np.array_equal(D[row : row + nq], D0) and np.array_equal(I[row : row + nq], I0)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled search")
def test_answers_outlive_their_call(systems, monkeypatch):
    """A call's answers are views of its arena, which no later call
    reuses: call N's rows are intact after call N + 1 searched."""
    ann = systems["closed_twosided"][0]
    part = next(p for p in ann._build.partitions.values() if len(p.index))
    searcher = RealHnswSearcher(ann.config.cost, ann.config.effective_ef_search)
    _cpus(monkeypatch, True)
    kept = []
    for call in range(2):
        with searcher.call_scope():
            for i in range(call, len(Q), 2):
                rows = Q[i : i + 1]
                searcher.prefetch(part, rows, 5, None, Q, i)
                ds, idss, _ = searcher.search_batch(part, rows, 5)
                if call == 0:
                    assert ds[0].base is not None  # a view, not a copy
                    kept.append((ds[0], idss[0], ds[0].copy(), idss[0].copy()))
    for d, ids, d0, ids0 in kept:
        assert np.array_equal(d, d0) and np.array_equal(ids, ids0)


@pytest.mark.parametrize("threaded", [False, True])
def test_float64_noncontiguous_queries_are_converted_once(monkeypatch, threaded):
    """A float64 query matrix that is not contiguous answers as its
    float32 rows do through ``ClusterRuntime.run_search``, at the same
    virtual times and with the same bytes on the wire; one-row tasks read
    the one float32 copy the call makes of it."""
    config = SystemConfig(**CASES["closed_b1_onesided"][0])
    ann = DistributedANN(config)
    ann.fit(X, metadata=TIERS)
    wide = np.zeros((len(Q), 2 * Q.shape[1]))
    wide[:, ::2] = Q
    Q64 = wide[:, ::2]
    assert Q64.dtype == np.float64 and not Q64.flags.c_contiguous
    _cpus(monkeypatch, threaded)
    want = ClusterRuntime(config).run_search(
        strategy_for(config), ann._build.router, ann._build.workgroups, ann._build.node_stores,
        RealHnswSearcher(config.cost, config.effective_ef_search), Q, config.k,
    )
    conversions = []
    convert = searcher_mod._float32_rows

    def spy_convert(rows):
        conversions.append(rows)
        return convert(rows)

    monkeypatch.setattr(searcher_mod, "_float32_rows", spy_convert)
    spy = _Spy(monkeypatch)
    got = ClusterRuntime(config).run_search(
        strategy_for(config), ann._build.router, ann._build.workgroups, ann._build.node_stores,
        RealHnswSearcher(config.cost, config.effective_ef_search), Q64, config.k,
    )
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2].total_seconds == want[2].total_seconds
    counters, want_counters = got[2].metrics["counters"], want[2].metrics["counters"]
    assert counters["sim.bytes_sent"] == want_counters["sim.bytes_sent"]
    assert counters["sim.events"] == want_counters["sim.events"]
    if COMPILED:
        assert spy.staged and all(nq == 1 for nq, _ in spy.staged)
        (rows,) = conversions
        assert rows.dtype == np.float32 and rows.flags.c_contiguous and np.array_equal(rows, Q)


def test_ring_entries_declare_their_types():
    """Every ring entry declares its argument and return types: an
    undeclared one would pass each integer as a 32-bit C int and cut a
    64-bit address short."""
    lib = native._load()
    if lib is None:
        pytest.skip("no compiled library")
    names = (
        "search_ring_new", "search_ring_arena", "search_ring_stage", "search_ring_collect",
        "search_ring_serve", "search_ring_close", "search_ring_free", "host_cpu",
    )
    for name in names:
        fn = getattr(lib, name)
        assert fn.argtypes is not None, name
        assert all(ctypes.sizeof(t) == 8 for t in fn.argtypes), name
        assert fn.restype is None or ctypes.sizeof(fn.restype) == 8, name


@pytest.mark.parametrize("mode", ["closed_onesided", "serve_cache"])
def test_a_dropped_system_leaves_no_cyclic_garbage(monkeypatch, mode):
    """After two calls in which the search thread ran, dropping the
    system frees its kept session, arena blocks included, by reference
    counting alone: the cyclic collector then finds nothing of it."""
    config, query_kw, hot, _ = MODES[mode]
    _cpus(monkeypatch, True)
    spy = _Spy(monkeypatch)
    blocks = []
    take = SearchRing._take_block

    def keep_block(ring, nq):
        take(ring, nq)
        blocks.append(weakref.ref(ring._block[0].base))

    monkeypatch.setattr(SearchRing, "_take_block", keep_block)
    ann = DistributedANN(SystemConfig(**config))
    ann.fit(X, metadata=TIERS)
    for _ in range(2):
        ann.query(Q_HOT if hot else Q, **query_kw)
    assert spy.threads == (2 if COMPILED else 0)
    assert bool(blocks) == COMPILED
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del ann
        assert all(block() is None for block in blocks)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert garbage == 0
