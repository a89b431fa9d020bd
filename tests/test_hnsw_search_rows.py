"""The one-row search call and its batch form: fresh results, unchanged rows.

``knn_search`` / ``knn_search_batch`` stage the compiled K-NN-SEARCH on
the ring the index keeps and copy the answer out of its one arena block;
``hnsw_knn_search`` pads short rows itself.  These tests hold
the returned arrays to being the caller's own, the rows to the digest the
pre-scratch implementation produced (for every batch size from 1 to 70,
for ``k`` larger than the index and under filter masks), the compiled rows
to the python ones, and ``RealHnswSearcher`` to cutting each row at the
count the search found.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.partition import Partition
from repro.core.searcher import RealHnswSearcher
from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw.index import SearchRing
from repro.simmpi.costmodel import CostModel

PARAMS = HnswParams(M=8, ef_construction=40, seed=3)
DIM = 16

#: sha256 of every answer below, as the implementation that allocated and
#: pre-padded fresh arrays per call wrote them
ROWS_SHA256 = "19adc069348525413a16e2ed403b84d862ca98ddaf97a3960ef77d756e7546c6"


def _build(n: int, native: bool) -> HnswIndex:
    X = np.random.default_rng([7, n]).normal(size=(n, DIM)).astype(np.float32)
    index = HnswIndex(DIM, PARAMS, capacity=n)
    if not native:
        index._native = index._native_build = None
    index.add_items(X, ids=list(range(1000, 1000 + n)))
    return index


@pytest.fixture(scope="module")
def pair():
    return _build(300, native=True), _build(300, native=False)


QUERIES = np.random.default_rng(8).normal(size=(70, DIM)).astype(np.float32)


def search_rows(index: HnswIndex, Q, k: int, ef=None, filter=None):  # noqa: A002
    """``index.knn_search_batch(Q, k, ef, filter=filter)``'s padded D and I,
    and the (nq, 2) evaluations and results of each row."""
    return index._search_rows(index._query_rows(Q), k, ef, filter)


def _answers(index: HnswIndex):
    """Every (D, I, per-row evals) the digest covers, in a fixed order."""
    out = []
    for nq in range(1, 71):
        D, I, stats = search_rows(index, QUERIES[:nq], 12, ef=24)
        out.append((D, I, stats[:, 0].copy()))
    small = _build(5, native=index._native is not None)
    D, I, stats = search_rows(small, QUERIES[:9], 8)
    out.append((D, I, stats[:, 0].copy()))
    for mask in (np.arange(300) % 3 == 0, np.arange(300) < 4, np.zeros(300, bool)):
        D, I, stats = search_rows(index, QUERIES[:20], 10, ef=30, filter=mask)
        out.append((D, I, stats[:, 0].copy()))
    return out


def test_rows_are_the_parents(pair):
    for index in pair:
        digest = hashlib.sha256()
        for D, I, evals in _answers(index):
            assert D.dtype == np.float64 and I.dtype == np.int64 and evals.dtype == np.int64
            for a in (D, I, evals):
                digest.update(a.tobytes())
        assert digest.hexdigest() == ROWS_SHA256


def test_compiled_rows_are_python_rows(pair):
    fast, slow = pair
    if not fast.native_search_active:
        pytest.skip("compiled search unavailable on this machine")
    for a, b in zip(_answers(fast), _answers(slow)):
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()


def test_short_rows_are_padded(pair):
    small = _build(5, native=pair[0].native_search_active)
    D, I = small.knn_search_batch(QUERIES[:3], 8)
    assert (I[:, 5:] == -1).all() and np.isinf(D[:, 5:]).all()
    assert search_rows(small, QUERIES[:3], 8)[2][:, 1].tolist() == [5, 5, 5]
    d, ids = small.knn_search(QUERIES[0], 8)
    assert len(d) == len(ids) == 5 and (ids >= 1000).all()
    index = pair[0]
    few = np.arange(300) < 4
    D, I = index.knn_search_batch(QUERIES[:4], 10, filter=few)
    assert search_rows(index, QUERIES[:4], 10, filter=few)[2][:, 1].tolist() == [4] * 4
    assert (I[:, 4:] == -1).all() and np.isinf(D[:, 4:]).all()


@pytest.mark.parametrize("batch", [False, True])
def test_results_are_fresh(pair, batch):
    """A later call, or the caller writing into an answer, changes no
    earlier answer."""
    index = pair[0]

    def call(q):
        if batch:
            return index.knn_search_batch(q[np.newaxis, :], 10)
        return index.knn_search(q, 10)

    d1, i1 = call(QUERIES[0])
    kept = d1.copy(), i1.copy()
    d2, i2 = call(QUERIES[1])
    assert not np.shares_memory(d1, d2) and not np.shares_memory(i1, i2)
    assert d1.tobytes() == kept[0].tobytes() and i1.tobytes() == kept[1].tobytes()
    d2[...] = -7
    i2[...] = -7
    d3, i3 = call(QUERIES[0])
    assert d3.tobytes() == kept[0].tobytes() and i3.tobytes() == kept[1].tobytes()
    d3[...] = 0
    assert d1.tobytes() == kept[0].tobytes()


def test_calls_reuse_the_index_ring_and_its_block(monkeypatch):
    """The index's own calls stage on one ring it keeps and answer into
    one arena block, taking a new block only for a larger ``nq`` or
    another ``k`` or ``ef``."""
    index = _build(300, native=True)
    if not index.native_search_active:
        pytest.skip("compiled search unavailable on this machine")
    taken = []
    take = SearchRing._take_block

    def spy_take(ring, nq):
        taken.append(nq)
        take(ring, nq)

    monkeypatch.setattr(SearchRing, "_take_block", spy_take)
    index.knn_search_batch(QUERIES[:5], 10)
    ring = index._search_ring
    for nq in (5, 1, 3):
        index.knn_search_batch(QUERIES[:nq], 10)
    index.knn_search(QUERIES[0], 10)
    assert index._search_ring is ring and taken == [5]
    index.knn_search_batch(QUERIES[:6], 10)
    index.knn_search_batch(QUERIES[:2], 10, ef=80)
    index.knn_search_batch(QUERIES[:2], 9, ef=80)
    assert index._search_ring is ring and taken == [5, 6, 2, 2]


def test_row_evals_are_per_row(pair):
    index = pair[0]
    one = []
    for q in QUERIES[:9]:
        before = index.n_dist_evals
        index.knn_search(q, 10)
        one.append(index.n_dist_evals - before)
        assert search_rows(index, q[np.newaxis, :], 10)[2][:, 0].tolist() == [one[-1]]
    before = index.n_dist_evals
    index.knn_search_batch(QUERIES[:9], 10)
    assert index.n_dist_evals - before == sum(one)
    assert search_rows(index, QUERIES[:9], 10)[2][:, 0].tolist() == one


def test_searcher_rows_have_found_length(pair):
    index = pair[0]
    ids = np.arange(1000, 1300)
    part = Partition(0, index.points.copy(), ids, index)
    searcher = RealHnswSearcher(CostModel(), ef_search=30)
    ds, idss, seconds = searcher.search_batch(part, QUERIES[:6], 10)
    assert [len(d) for d in ds] == [len(i) for i in idss] == [10] * 6
    small = _build(5, native=index.native_search_active)
    part = Partition(1, small.points.copy(), np.arange(1000, 1005), small)
    ds, idss, _ = searcher.search_batch(part, QUERIES[:3], 8)
    found = search_rows(small, QUERIES[:3], 8)[2][:, 1].tolist()
    assert [len(d) for d in ds] == found == [5, 5, 5]
    for d, i in zip(ds, idss):
        assert np.isfinite(d).all() and (i >= 1000).all()
    assert seconds > 0
