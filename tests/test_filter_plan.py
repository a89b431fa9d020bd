"""The per-call filter plan of the built-in searchers.

Inside one ``run_search`` call a searcher evaluates each (partition,
clauses) mask, match count, strategy and ``pre`` row set once; the plan
is dropped when the call ends, so a searcher serving several calls never
answers from a stale one.  With or without the plan, answers, filter
counts and charged seconds are those of per-task evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.searcher as searcher_mod
from repro.core import DistributedANN, SystemConfig
from repro.core.partition import Partition
from repro.core.searcher import ModeledSearcher, RealHnswSearcher
from repro.datasets import sample_queries, sift_like
from repro.filtering import FilterSpec
from repro.hnsw import HnswIndex, HnswParams
from repro.simmpi.costmodel import CostModel

K = 5
#: ~50 % of rows (auto -> post), 5 % (auto -> pre), none
CLAUSES = {
    "post": (FilterSpec("tier", "range", (0, 9)),),
    "pre": (FilterSpec("tier", "eq", 0),),
    "empty": (FilterSpec("tier", "eq", 99),),
}


@pytest.fixture(scope="module")
def part():
    X = sift_like(400, dim=24, seed=51)
    ids = np.arange(2000, 2400, dtype=np.int64)
    index = HnswIndex(dim=24, params=HnswParams(M=8, ef_construction=40, seed=5))
    index.add_items(X, ids)
    rows = np.sort(np.random.default_rng(6).choice(400, size=60, replace=False))
    return Partition(
        4, X, ids, index=index, attrs={"tier": np.arange(400) % 20},
        sample=(X[rows], ids[rows]), sample_rows=rows,
    )


def _pair(kind):
    cost = CostModel()
    if kind == "real":
        return RealHnswSearcher(cost, 32), RealHnswSearcher(cost, 32)
    return (
        ModeledSearcher(cost, 32, 8, 24, virtual_points=10**6),
        ModeledSearcher(cost, 32, 8, 24, virtual_points=10**6),
    )


@pytest.mark.parametrize("kind", ["real", "modeled"])
@pytest.mark.parametrize("case", ["post", "pre", "empty"])
@pytest.mark.parametrize("strategy", ["auto", "pre", "post"])
def test_planned_tasks_equal_per_task_evaluation(part, kind, case, strategy):
    """Six tasks of one call, the plan made by the first: every answer,
    every filter count and the seconds equal six unplanned calls."""
    Q = sample_queries(part.points, 9, noise_scale=0.05, seed=7)
    tasks = [Q[0:1], Q[1:4], Q[4:5], Q[5:8], Q[8:9], Q[0:2]]
    planned, fresh = _pair(kind)
    fil = (CLAUSES[case], strategy)
    with planned.call_scope():
        got = [planned.search_batch(part, Qt, K, filter=fil) for Qt in tasks]
        assert len(planned._memo) >= 1
    assert planned._memo is None
    want = [fresh.search_batch(part, Qt, K, filter=fil) for Qt in tasks]
    for (gd, gi, gs), (wd, wi, ws) in zip(got, want):
        assert gs == ws  # bit for bit: it drives the virtual clock
        for a, b in zip(gd, wd):
            assert a.dtype == b.dtype == np.float64
            np.testing.assert_array_equal(a, b)
        for a, b in zip(gi, wi):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)
    assert planned.filter_stats == fresh.filter_stats


def test_modeled_row_charge_once_per_call(part, monkeypatch):
    s = ModeledSearcher(CostModel(), 32, 8, 24, virtual_points=10**6)
    calls = []
    inner = s.row_seconds
    monkeypatch.setattr(s, "row_seconds", lambda: calls.append(1) or inner())
    Q = sample_queries(part.points, 4, noise_scale=0.05, seed=8)
    with s.call_scope():
        for i in range(4):
            s.search_batch(part, Q[i : i + 1], K)
    assert len(calls) == 1


def _filtered_system(strategy="auto", **kw):
    X = sift_like(600, dim=16, seed=61)
    rows = np.arange(len(X))
    cfg = SystemConfig(n_cores=4, cores_per_node=2, k=K, seed=3, filter_strategy=strategy, **kw)
    ann = DistributedANN(cfg)
    ann.fit(X, metadata={"tier": rows % 5})
    return ann, sample_queries(X, 24, noise_scale=0.05, seed=62)


@pytest.mark.parametrize("searcher", ["real", "modeled"])
def test_mask_once_per_partition_per_call(monkeypatch, searcher):
    """``mask_for`` runs once per (partition, clauses) in a call — fewer
    times than there are tasks — and again in the next call."""
    kw = {} if searcher == "real" else {"searcher": "modeled", "modeled_sample_points": 40}
    ann, Q = _filtered_system(**kw)
    seen = []
    real_mask_for = searcher_mod.mask_for

    def counting(attrs, clauses, n_rows):
        seen.append((id(attrs), tuple(clauses)))
        return real_mask_for(attrs, clauses, n_rows)

    monkeypatch.setattr(searcher_mod, "mask_for", counting)
    per_call = []
    for _ in range(2):
        seen.clear()
        _, I, rep = ann.query(Q, filter="tier=1,2")
        assert len(seen) == len(set(seen)) > 0
        assert rep.tasks > len(seen)
        per_call.append(len(seen))
    assert per_call[0] == per_call[1]
    assert np.all(np.isin(I[I >= 0] % 5, (1, 2)))


def test_reused_searcher_answers_from_added_rows():
    """One searcher over two calls with ``add_points`` between them: the
    second call's ``pre`` scans must see the new rows, which a plan kept
    from the first call would not hold."""
    ann, Q = _filtered_system(strategy="pre")
    s = RealHnswSearcher(ann.config.cost, ann.config.effective_ef_search)
    _, I1, rep1 = ann.query_with_searcher(Q, K, s, filter="tier=2")
    assert s._memo is None and rep1.filter_tasks_pre > 0
    new = Q[:6] + np.float32(1e-3)
    new_ids = ann.add_points(new)
    for p in ann.partitions.values():  # the new rows' metadata: tier 2
        grown = p.n_points - len(p.attrs["tier"])
        p.attrs = {"tier": np.concatenate([p.attrs["tier"], np.full(grown, 2)])}
    _, I2, _ = ann.query_with_searcher(Q, K, s, filter="tier=2")
    assert not np.isin(new_ids, I1).any()
    assert I2[:6, 0].tolist() == new_ids.tolist()
    # and the second call answered as a fresh searcher would
    _, I3, _ = ann.query(Q, filter="tier=2")
    np.testing.assert_array_equal(I2, I3)
