"""One rank per query: ``GlobalResults`` appends answers and ranks a slot
once, when it is read.

The oracle is the incremental combiner ``GlobalResults`` used before the
rank was deferred (kept verbatim below as ``_IncrementalResults``): it
merged every answer into the slot's top k as it arrived.  Deferred or
incremental, a slot read back must hold the same bytes — across update
orders, ``(distance, id)`` ties at the k-th place, short and empty
answers, infinities, float32 input, cache-hit slot writes, and the
answers real one- and two-sided runs produce.  The oracle's first-update
path kept duplicate ids of one answer (the bug ``test_first_update_
collapses_duplicate_ids`` pins as fixed), so oracle comparisons use
answers with distinct ids, as one local search returns them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.core import results as results_mod
from repro.core.results import GlobalResults
from repro.hnsw import HnswParams
from repro.simmpi import Simulation, Window
from repro.utils.heaps import merge_knn


class _IncrementalResults:
    """The previous ``GlobalResults``: every update merged on arrival."""

    def __init__(self, n_queries: int, k: int) -> None:
        self.n_queries = n_queries
        self.k = k
        self._slots = [None] * n_queries

    def combine(self, old, update):
        k = self.k
        if old is None:
            d, i = update
            order = np.lexsort((i, d))[:k]
            return np.asarray(d)[order], np.asarray(i)[order]
        (d0, i0), (d1, i1) = old, update
        best: dict[int, float] = {}
        for d, i in sorted([*zip(d0.tolist(), i0.tolist()), *zip(d1.tolist(), i1.tolist())]):
            if i not in best:
                best[i] = d
                if len(best) == k:
                    break
        n = len(best)
        return np.fromiter(best.values(), np.float64, n), np.fromiter(best, np.int64, n)

    def update(self, qid, d, ids):
        self._slots[qid] = self.combine(self._slots[qid], (d, ids))

    def result_arrays(self):
        D = np.full((self.n_queries, self.k), np.inf, dtype=np.float64)
        I = np.full((self.n_queries, self.k), -1, dtype=np.int64)
        for q, slot in enumerate(self._slots):
            if slot is None:
                continue
            d, i = slot
            n = min(len(d), self.k)
            D[q, :n] = d[:n]
            I[q, :n] = i[:n]
        return D, I


def _same_slot(got, want) -> bool:
    """Equal bytes once widened to float64 / int64 (the oracle's first
    update kept a float32 answer's dtype)."""
    if got is None or want is None:
        return got is None and want is None
    return all(
        np.asarray(a, dtype=t).tobytes() == np.asarray(b, dtype=t).tobytes()
        for a, b, t in zip(got, want, (np.float64, np.int64))
    )


def _same_arrays(a, b) -> bool:
    return a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def _answer(rng, k: int, pool):
    """One local answer: distinct ids, (distance, id) order, 0 to k long."""
    n = int(rng.integers(0, k + 1))
    d = rng.choice(pool, n).astype(rng.choice([np.float64, np.float32]))
    i = rng.choice(40, n, replace=False).astype(np.int64)
    order = np.lexsort((i, d))
    return d[order], i[order]


class TestAgainstIncrementalOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_updates_orders_and_reads(self, seed):
        """Random answers in random orders to a few queries, some slots
        read (and so ranked) midway and then updated again, some written
        as a cache hit would: every read and the final matrices equal the
        oracle's bytes."""
        rng = np.random.default_rng([0x5107, seed])
        # a few distances only: ties at the k-th place, inf and -inf included
        pools = ([0.0, -0.0, 0.25, 0.5, 0.5, 1.0, np.inf, -np.inf], rng.random(6), rng.random(50))
        for _ in range(60):
            k = int(rng.integers(1, 9))
            nq = int(rng.integers(1, 6))
            pool = pools[int(rng.integers(0, 3))]
            got, want = GlobalResults(nq, k), _IncrementalResults(nq, k)
            for _ in range(int(rng.integers(0, 25))):
                q = int(rng.integers(0, nq))
                event = rng.random()
                if event < 0.1:
                    assert _same_slot(got[q], want._slots[q])
                elif event < 0.13:
                    row = merge_knn([_answer(rng, k, pool)], k)  # a cached, ranked row
                    got[q] = row
                    want._slots[q] = row
                else:
                    d, i = _answer(rng, k, pool)
                    got.update(q, d, i)
                    want.update(q, d, i)
            assert _same_arrays(got.result_arrays(), want.result_arrays())
            for q in range(nq):
                assert _same_slot(got[q], want._slots[q])

    def test_ties_at_the_kth_place(self):
        """Equal distances across the cut: the id decides, as it did."""
        k = 3
        parts = [
            (np.array([0.5, 0.5, 0.5]), np.array([9, 11, 12])),
            (np.array([0.1, 0.5, 0.5]), np.array([3, 10, 13])),
            (np.array([0.5, 0.5]), np.array([8, 14])),
        ]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            got, want = GlobalResults(1, k), _IncrementalResults(1, k)
            for j in order:
                got.update(0, *parts[j])
                want.update(0, *parts[j])
            assert _same_arrays(got.result_arrays(), want.result_arrays())
            assert got[0][1].tolist() == [3, 8, 9]

    def test_empty_and_short_answers(self):
        got, want = GlobalResults(3, 4), _IncrementalResults(3, 4)
        empty = (np.empty(0), np.empty(0, dtype=np.int64))
        for g in (got, want):
            g.update(0, *empty)
            g.update(1, *empty)
            g.update(1, np.array([2.0]), np.array([5]))
        assert _same_arrays(got.result_arrays(), want.result_arrays())
        D, I = got.result_arrays()
        assert I[0].tolist() == [-1] * 4 and I[1].tolist() == [5, -1, -1, -1]
        assert I[2].tolist() == [-1] * 4
        assert got[0][0].dtype == np.float64 and len(got[0][0]) == 0
        assert got[2] is None


class TestRankRule:
    def test_first_update_collapses_duplicate_ids(self):
        """A query answered once with a duplicated id keeps the id once,
        as a second answer would have made it; the distances are float64."""
        for dtype in (np.float64, np.float32):
            answer = np.array([0.5, 0.5, 0.7, 0.9], dtype=dtype), np.array([4, 4, 2, 8])
            g = GlobalResults(2, 3)
            for q in range(2):
                g.update(q, *answer)
            D, I = g.result_arrays()
            assert I[0].tolist() == [4, 2, 8]
            assert D[0].tolist() == answer[0][[0, 2, 3]].astype(np.float64).tolist()
            d, i = g[1]
            assert i.tolist() == [4, 2, 8] and d.dtype == np.float64
            assert _same_slot(g[1], merge_knn([answer], 3))

    def test_result_arrays_is_merge_knn(self):
        """``result_arrays`` over many slots against ``merge_knn`` of each
        slot's parts: duplicate ids within and across answers, signed
        zeros, infinities, float32, ids beyond 2**40."""
        rng = np.random.default_rng(0x7A)
        for _ in range(40):
            k = int(rng.integers(1, 10))
            nq = int(rng.integers(1, 30))
            g = GlobalResults(nq, k)
            parts: list[list] = [[] for _ in range(nq)]
            for _ in range(int(rng.integers(0, 80))):
                q = int(rng.integers(0, nq))
                n = int(rng.integers(0, 2 * k + 2))
                pool = [0.0, -0.0, 0.5, 1.0, np.inf] if rng.random() < 0.5 else rng.random(12)
                d = rng.choice(pool, n).astype(rng.choice([np.float64, np.float32]))
                i = rng.integers(0, 20, n) * (1 << int(rng.choice([0, 41])))
                parts[q].append((d, i))
                g.update(q, d, i)
            D, I = g.result_arrays()
            for q in range(nq):
                if not parts[q]:
                    assert I[q].tolist() == [-1] * k
                    continue
                wd, wi = merge_knn(parts[q], k)
                n = len(wd)
                assert D[q, :n].tobytes() == wd.tobytes() and I[q, :n].tobytes() == wi.tobytes()
                assert np.all(I[q, n:] == -1) and np.all(D[q, n:] == np.inf)
                assert _same_slot(g[q], (wd, wi))

    def test_slot_holds_o_k_entries(self):
        """A query answered a thousand times holds at most 8k entries at
        any time, an over-long answer is cut to its best k on arrival, and
        the answer is the rank of them all."""
        k = 5
        rng = np.random.default_rng(9)
        g = GlobalResults(1, k)
        parts = []
        for t in range(1000):
            n = 3 * k if t % 97 == 0 else k
            d, i = rng.random(n), rng.integers(0, 500, n)
            parts.append((d, i))
            g.update(0, d, i)
            slot = g.store[0]
            assert sum(len(p[0]) for p in slot) <= 8 * k
            assert all(len(p[0]) <= k for p in slot)
        assert _same_slot(g[0], merge_knn(parts, k))

    def test_accumulate_leaves_the_slot_alone(self):
        """The window's combine returns a new raw slot; the previous value
        a ``get_accumulate`` hands back is unchanged."""
        g = GlobalResults(1, 2)
        first = g.accumulate(None, (np.array([1.0]), np.array([1])))
        second = g.accumulate(first, (np.array([0.5]), np.array([2])))
        assert len(first) == 1 and len(second) == 2 and g.update_count == 2

    def test_answers_may_be_lists(self):
        """An answer given as lists ranks as the same answer in arrays,
        alone in its slot or beside others."""
        g = GlobalResults(2, 3)
        g.update(0, np.array([0.3, 0.1]), np.array([7, 5]))
        g.update(0, [0.2, 0.1, 0.4], [1, 5, 2])
        g.update(1, [0.2, 0.4], [1, 2])
        want = merge_knn([(np.array([0.3, 0.1]), np.array([7, 5])), (np.array([0.2, 0.1, 0.4]), np.array([1, 5, 2]))], 3)
        assert _same_slot(g[0], want)
        assert _same_slot(g[1], (np.array([0.2, 0.4]), np.array([1, 2])))


class TestWindow:
    def test_get_accumulate_returns_the_previous_value(self):
        """Over a generic store the window still hands back the value the
        slot held before each accumulate."""
        sim = Simulation()
        store = {0: (), 1: ()}
        win = Window(0, 0, store, combine=lambda old, new: (*old, new))

        def origin(ctx):
            yield from win.lock_shared(ctx)
            seen = []
            for j in range(3):
                seen.append((yield from win.get_accumulate(ctx, j % 2, j)))
            yield from win.unlock(ctx)
            return seen

        pid = sim.add_proc(origin, node=1)
        out = sim.run()
        assert out.results[pid] == [(), (), (0,)]
        assert store == {0: (0, 2), 1: (1,)}

    def test_results_window_ranks_nothing_during_the_run(self, monkeypatch):
        """One-sided accumulates only append: no slot is ranked until the
        answer matrices are built, and the answer equals the two-sided one."""
        calls = []
        reading = [False]
        rank, result_arrays = results_mod._rank, GlobalResults.result_arrays

        def reads(self):
            reading[0] = True
            try:
                return result_arrays(self)
            finally:
                reading[0] = False

        monkeypatch.setattr(results_mod, "_rank", lambda *a: calls.append(reading[0]) or rank(*a))
        monkeypatch.setattr(GlobalResults, "result_arrays", reads)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 8)).astype(np.float32)
        Q = rng.normal(size=(12, 8)).astype(np.float32)
        out = {}
        for one_sided in (True, False):
            cfg = SystemConfig(
                n_cores=4, cores_per_node=2, k=5, seed=1, n_probe=3,
                hnsw=HnswParams(M=8, ef_construction=40), one_sided=one_sided,
            )
            ann = DistributedANN(cfg)
            ann.fit(X)
            out[one_sided] = ann.query(Q)[:2]
        assert calls and all(calls)
        assert _same_arrays(out[True], out[False])


def _recorded_run(monkeypatch, corpus, **kw):
    """One query call with every slot event recorded: ``(D, I, events)``.
    Events are ``("new", n, k)``, ``("add", q, answer)``, ``("write", q,
    row)`` (a cache hit) and ``("read", q, slot)``."""
    events = []

    class Store(list):
        def __setitem__(self, q, v):
            if type(v) is list:  # a raw slot: its last part is the new answer
                events.append(("add", q, v[-1]))
            super().__setitem__(q, v)

    init, setitem, getitem = GlobalResults.__init__, GlobalResults.__setitem__, GlobalResults.__getitem__

    def new_init(self, n, k):
        init(self, n, k)
        self.store = Store(self.store)
        events.append(("new", n, k))

    def new_setitem(self, q, v):
        events.append(("write", q, v))
        setitem(self, q, v)

    def new_getitem(self, q):
        v = getitem(self, q)
        events.append(("read", q, v))
        return v

    monkeypatch.setattr(GlobalResults, "__init__", new_init)
    monkeypatch.setattr(GlobalResults, "__setitem__", new_setitem)
    monkeypatch.setattr(GlobalResults, "__getitem__", new_getitem)
    X, Q = corpus
    cfg = SystemConfig(n_cores=8, cores_per_node=4, k=5, hnsw=HnswParams(M=8, ef_construction=40), n_probe=3, seed=0, **kw)
    ann = DistributedANN(cfg)
    ann.fit(X)
    D, I, rep = ann.query(Q)
    return D, I, rep, events


@pytest.fixture(scope="module")
def hot_corpus():
    """Byte-identical repeats, so a serving cache hits."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 16)).astype(np.float32)
    pool = rng.normal(size=(10, 16)).astype(np.float32)
    return X, np.ascontiguousarray(pool[rng.integers(0, 10, 40)])


@pytest.mark.parametrize(
    "mode",
    [
        dict(one_sided=False),
        dict(one_sided=True),
        dict(one_sided=True, dispatch_window=2),
        dict(owner_strategy="multiple"),
        dict(one_sided=False, arrival="poisson:5000", cache_size=16),
    ],
    ids=["two_sided", "one_sided", "one_sided_windowed", "multiple_owner", "serving_cache"],
)
def test_runs_equal_the_incremental_oracle(monkeypatch, hot_corpus, mode):
    """Every answer a run merged, replayed in its arrival order through the
    incremental oracle, gives the run's matrices and every slot the run
    read, byte for byte."""
    D, I, rep, events = _recorded_run(monkeypatch, hot_corpus, **mode)
    oracle = None
    adds = reads = 0
    for kind, a, b in events:
        if kind == "new":
            oracle = _IncrementalResults(a, b)
        elif kind == "add":
            oracle.update(a, *b)
            adds += 1
        elif kind == "write":
            oracle._slots[a] = b
        else:
            assert _same_slot(b, oracle._slots[a])
            reads += 1
    assert adds > 0
    assert _same_arrays((D, I), oracle.result_arrays())
    if "cache_size" in mode:
        assert rep.cache_hits > 0 and reads > 0
