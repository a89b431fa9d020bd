"""The exact top-k scan: compiled path against the numpy reference, bit
for bit, and every caller against the inline code it replaced.

The compiled tests run whenever the HNSW library loads (they skip under
``REPRO_HNSW_NO_NATIVE=1``); the caller tests run on either path.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core.localindex import BruteForceSearcher
from repro.core.partition import Partition
from repro.core.searcher import ModeledSearcher, RealHnswSearcher
from repro.filtering import FilterSpec, mask_for
from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw import native
from repro.metrics import get_metric
from repro.metrics.topk import ExactTopk, ScanRows, exact_topk, reference_topk
from repro.simmpi.costmodel import CostModel

METRICS = ("l2", "sqeuclidean")
WIDTHS = list(range(1, 131)) + [960]


@pytest.fixture(scope="module")
def lib():
    lib = native._load()
    if lib is None:
        pytest.skip("compiled HNSW library unavailable")
    return lib


def _grid(rng, n, dim, signed_zero=True):
    """Points on a {0,1,2} grid — tied distances and duplicate rows — with
    some zero coordinates negated."""
    X = rng.integers(0, 3, size=(n, dim)).astype(np.float32)
    if signed_zero:
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
    return X


def _compiled(lib, metric, Q, X, ids, k):
    """One direct ``exact_topk`` call, bypassing the per-width gate."""
    nq, dim = Q.shape
    D = np.full((nq, k), np.nan)
    I = np.full((nq, k), -7, dtype=np.int64)
    Qd = np.ascontiguousarray(Q, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float32)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    rows = native.TopkRows(X.ctypes.data, ids.ctypes.data, len(X), dim)
    call = native.TopkCall(Qd.ctypes.data, D.ctypes.data, I.ctypes.data, nq, k, 1 if metric == "l2" else 0)
    lib.exact_topk(ctypes.addressof(rows), ctypes.addressof(call))
    m = min(len(X), k)
    return D[:, :m], I[:, :m]


def _assert_bits(got, want):
    gd, gi = got
    wd, wi = want
    assert len(gd) == len(wd) == len(gi) == len(wi)
    for a, b, ia, ib in zip(gd, wd, gi, wi):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype == np.float64 and np.asarray(ia).dtype == np.int64
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), (a, b)
        np.testing.assert_array_equal(ia, ib)


class TestCompiledScan:
    @pytest.mark.parametrize("metric", METRICS)
    def test_every_width(self, lib, metric):
        """Widths 1-130 and 960: normal rows, then grid rows, shuffled ids."""
        m = get_metric(metric)
        for dim in WIDTHS:
            rng = np.random.default_rng([11, dim])
            n = int(rng.integers(1, 41))
            k = int(rng.integers(1, 13))
            ids = rng.permutation(10 * n)[:n].astype(np.int64)
            for X, Q in (
                (
                    rng.normal(0, 5, size=(n, dim)).astype(np.float32),
                    rng.normal(0, 5, size=(3, dim)).astype(np.float32),
                ),
                (_grid(rng, n, dim), _grid(rng, 3, dim)),
            ):
                got = _compiled(lib, metric, Q, X, ids, k)
                _assert_bits((list(got[0]), list(got[1])), reference_topk(m, Q, X, ids, k))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dim", [1, 3, 8, 17, 128])
    def test_every_n_and_k(self, lib, metric, dim):
        """n from 0 to 40 against k from 1 to 12, k > n included, on the
        grid where most distances tie and the id breaks them."""
        m = get_metric(metric)
        rng = np.random.default_rng([12, dim])
        X = _grid(rng, 40, dim)
        ids = rng.permutation(1000)[:40].astype(np.int64)
        Q = _grid(rng, 2, dim)
        for n in range(41):
            want_all = reference_topk(m, Q, X[:n], ids[:n], 12)
            for k in range(1, 13):
                got = _compiled(lib, metric, Q, X[:n], ids[:n], k)
                want = ([d[:k] for d in want_all[0]], [i[:k] for i in want_all[1]])
                _assert_bits((list(got[0]), list(got[1])), want)

    def test_duplicate_ids_keep_row_order(self, lib):
        """Equal (d, id) pairs stay in row order, as lexsort's stability does."""
        X = np.zeros((6, 4), dtype=np.float32)
        ids = np.array([5, 3, 5, 3, 1, 5], dtype=np.int64)
        Q = np.zeros((1, 4), dtype=np.float32)
        got = _compiled(lib, "l2", Q, X, ids, 6)
        np.testing.assert_array_equal(got[1][0], [1, 3, 3, 5, 5, 5])

    def test_non_finite_order(self, lib):
        """inf and NaN distances sort as numpy sorts them: NaN after every
        number, NaNs among themselves by id."""
        X = np.array([[1, 0], [np.inf, 0], [0, 0], [np.inf, 1], [2, 2], [-np.inf, 0]], np.float32)
        ids = np.array([9, 4, 7, 2, 5, 1], dtype=np.int64)
        Q = np.array([[0, 0], [np.inf, 0]], dtype=np.float32)
        for metric in METRICS:
            got = _compiled(lib, metric, Q, X, ids, 6)
            with np.errstate(invalid="ignore"):  # inf - inf
                want = reference_topk(get_metric(metric), Q, X, ids, 6)
            _assert_bits((list(got[0]), list(got[1])), want)

    def test_gate_opens_at_every_width(self, lib):
        """The self-check passes wherever the kernel is right, so the
        compiled scan really serves these widths."""
        for dim in WIDTHS:
            assert native.native_topk_for(dim) is lib, dim

    @pytest.mark.parametrize("metric", METRICS)
    def test_scan_rows_and_kept_buffers(self, lib, metric):
        """Through the public objects: one ExactTopk reused over scans of
        different sizes, query counts, widths and k."""
        m = get_metric(metric)
        topk = ExactTopk()
        rng = np.random.default_rng(13)
        shapes = [(8, 30, 1, 5), (8, 30, 4, 5), (8, 3, 2, 5), (16, 9, 1, 12), (8, 30, 1, 2)]
        for dim, n, nq, k in shapes:
            X = _grid(rng, n, dim)
            ids = rng.permutation(n).astype(np.int64)
            Q = _grid(rng, nq, dim)
            rows = ScanRows(X, ids)
            assert rows.native is not None
            _assert_bits(topk(m, Q, rows, k), reference_topk(m, Q, X, ids, k))


class TestReferencePath:
    def test_other_metrics_and_dtypes_take_the_reference(self):
        rng = np.random.default_rng(14)
        X64 = rng.normal(size=(20, 6))
        ids = np.arange(20)
        Q = rng.normal(size=(2, 6)).astype(np.float32)
        assert ScanRows(X64, ids).native is None
        for metric in ("l2", "l1", "cosine"):
            _assert_bits(
                exact_topk(metric, Q, X64, ids, 4),
                reference_topk(get_metric(metric), Q, X64, ids, 4),
            )
        X32 = X64.astype(np.float32)
        _assert_bits(
            exact_topk("l1", Q, X32, ids, 4), reference_topk(get_metric("l1"), Q, X32, ids, 4)
        )

    def test_empty_rows(self):
        ds, idss = exact_topk("l2", np.zeros((3, 5), np.float32), np.empty((0, 5), np.float32),
                              np.empty(0, np.int64), 4)
        assert [len(d) for d in ds] == [0, 0, 0] and [len(i) for i in idss] == [0, 0, 0]
        assert all(d.dtype == np.float64 for d in ds) and all(i.dtype == np.int64 for i in idss)


# ---------------------------------------------------------------------------
# every caller returns what its inline one_to_many + lexsort code returned
# ---------------------------------------------------------------------------


def _inline(metric, q, pts, ids, k):
    """The code each caller carried before the scan was one routine."""
    d = metric.one_to_many(q, pts)
    order = np.lexsort((ids, d))[:k]
    return np.asarray(d[order], dtype=np.float64), np.asarray(ids[order], dtype=np.int64)


def _assert_row(d, ids, want):
    _assert_bits(([d], [ids]), ([want[0]], [want[1]]))


@pytest.fixture(scope="module")
def grid_partition():
    rng = np.random.default_rng(21)
    X = _grid(rng, 120, 12)
    ids = rng.permutation(5000)[:120].astype(np.int64)
    index = HnswIndex(dim=12, params=HnswParams(M=8, ef_construction=40, seed=2))
    index.add_items(X, ids)
    rows = np.sort(rng.choice(120, size=50, replace=False))
    return Partition(
        3, X, ids, index=index, attrs={"tier": np.arange(120) % 6},
        sample=(X[rows], ids[rows]), sample_rows=rows,
    )


def _queries(part, nq=6):
    return _grid(np.random.default_rng(22), nq, part.points.shape[1])


def test_real_searcher_pre_branch(grid_partition):
    part, Q = grid_partition, _queries(grid_partition)
    clauses = [FilterSpec("tier", "eq", 4)]
    s = RealHnswSearcher(CostModel(), 32)
    ds, idss, _ = s.search_batch(part, Q, 7, filter=(clauses, "pre"))
    rows = np.flatnonzero(mask_for(part.attrs, clauses, part.n_points))
    for i, q in enumerate(Q):
        want = _inline(part.index.metric, q, part.points[rows], part.ids[rows], 7)
        _assert_row(ds[i], idss[i], want)


@pytest.mark.parametrize("filtered", [False, True])
def test_modeled_sample_scan(grid_partition, filtered):
    part, Q = grid_partition, _queries(grid_partition)
    s = ModeledSearcher(CostModel(), 32, 8, 12, virtual_points=10**6)
    pts, ids = part.sample
    fil = None
    if filtered:
        clauses = [FilterSpec("tier", "range", (1, 3))]
        fil = (clauses, "auto")
        smask = mask_for(part.attrs, clauses, part.n_points)[part.sample_rows]
        pts, ids = pts[smask], ids[smask]
    ds, idss, _ = s.search_batch(part, Q, 9, filter=fil)
    for i, q in enumerate(Q):
        _assert_row(ds[i], idss[i], _inline(s.metric, q, pts, ids, 9))


def test_brute_force_searcher(grid_partition):
    part, Q = grid_partition, _queries(grid_partition)
    s = BruteForceSearcher(CostModel())
    for q in Q:
        d, ids, _ = s.search(part, q, 11)
        _assert_row(d, ids, _inline(s.metric, q, part.points, part.ids, 11))

