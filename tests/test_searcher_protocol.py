"""The k-NN search contract of the in-memory indexes.

Every backend — production HNSW, the reference HNSW oracle, and the
KD-tree / VP-tree comparators — answers
``knn_search(q, k)`` with ``(distances, ids)`` closest first, as float64 /
int64.  Only :class:`~repro.hnsw.HnswIndex` also takes a whole query
matrix (``knn_search_batch``, rows padded with ``inf`` / ``-1``) and a
``filter=`` mask over its insertion-order rows; those cases run against
the ``BATCHED`` backends alone.
"""

import numpy as np
import pytest

from repro.datasets import sample_queries, sift_like
from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw.reference import ReferenceHnswIndex
from repro.kdtree import KDTree
from repro.vptree import VPTree

DIM = 24


def _build_hnsw(X):
    idx = HnswIndex(dim=DIM, params=HnswParams(M=8, ef_construction=40, seed=11))
    idx.add_items(X)
    return idx


def _build_reference(X):
    idx = ReferenceHnswIndex(dim=DIM, params=HnswParams(M=8, ef_construction=40, seed=11))
    idx.add_items(X)
    return idx


BACKENDS = {
    "hnsw": _build_hnsw,
    "reference_hnsw": _build_reference,
    "kdtree": lambda X: KDTree(X, leaf_size=16),
    "vptree": lambda X: VPTree(X, leaf_size=16, seed=11),
}

#: the backends with ``knn_search_batch`` and a ``filter=`` mask
BATCHED = ["hnsw"]


@pytest.fixture(scope="module")
def data():
    X = sift_like(400, dim=DIM, seed=21)
    Q = sample_queries(X, 8, noise_scale=0.05, seed=22)
    return X, Q


@pytest.fixture(scope="module", params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request, data):
    X, _ = data
    return BACKENDS[request.param](X)


@pytest.fixture(scope="module", params=BATCHED, ids=BATCHED)
def batched(request, data):
    X, _ = data
    return BACKENDS[request.param](X)


class TestSearcherConformance:
    def test_single_query_shape(self, backend, data):
        _, Q = data
        d, ids = backend.knn_search(Q[0], 5)
        assert len(d) == len(ids) <= 5
        assert np.all(np.diff(d) >= 0)  # closest first

    def test_batch_shape_and_padding(self, batched, data):
        _, Q = data
        D, ids = batched.knn_search_batch(Q, 5)
        assert D.shape == ids.shape == (len(Q), 5)
        # padding (if any) is inf/-1 and trails the real results
        for row in range(len(Q)):
            pad = ids[row] == -1
            assert np.all(np.isinf(D[row][pad]))
            if pad.any():
                first = int(np.argmax(pad))
                assert pad[first:].all()

    def test_batch_rows_agree_with_single(self, batched, data):
        _, Q = data
        D, ids = batched.knn_search_batch(Q, 5)
        for row in range(len(Q)):
            d1, i1 = batched.knn_search(Q[row], 5)
            np.testing.assert_array_equal(ids[row, : len(i1)], i1)
            np.testing.assert_allclose(D[row, : len(d1)], d1)


class TestFilteredConformance:
    """The keyword-only ``filter=`` mask of the batched backends."""

    def test_filter_none_identical_single(self, batched, data):
        _, Q = data
        for q in Q:
            d0, i0 = batched.knn_search(q, 5)
            d1, i1 = batched.knn_search(q, 5, filter=None)
            np.testing.assert_array_equal(i0, i1)
            np.testing.assert_array_equal(d0, d1)

    def test_filter_none_identical_batch(self, batched, data):
        _, Q = data
        D0, I0 = batched.knn_search_batch(Q, 5)
        D1, I1 = batched.knn_search_batch(Q, 5, filter=None)
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)

    def test_filter_restricts_results(self, batched, data):
        X, Q = data
        mask = np.arange(len(X)) % 3 == 0
        d, ids = batched.knn_search(Q[0], 5, filter=mask)
        assert len(ids) > 0
        assert np.all(ids % 3 == 0)
        assert np.all(np.diff(d) >= 0)

    def test_filter_restricts_batch(self, batched, data):
        X, Q = data
        mask = np.arange(len(X)) % 3 == 0
        _, I = batched.knn_search_batch(Q, 5, filter=mask)
        real = I[I >= 0]
        assert real.size > 0
        assert np.all(real % 3 == 0)

    def test_all_false_filter_is_empty(self, batched, data):
        X, Q = data
        mask = np.zeros(len(X), dtype=bool)
        d, ids = batched.knn_search(Q[0], 5, filter=mask)
        assert len(d) == len(ids) == 0
        D, I = batched.knn_search_batch(Q[:2], 5, filter=mask)
        assert np.all(I == -1) and np.all(np.isinf(D))

    def test_singleton_filter_exact(self, batched, data):
        X, Q = data
        mask = np.zeros(len(X), dtype=bool)
        mask[137] = True
        _, ids = batched.knn_search(Q[0], 3, filter=mask)
        # a graph walk may miss an unreachable row, but whatever it
        # returns must satisfy the predicate
        assert np.all(ids == 137)

    def test_bad_mask_dtype_rejected(self, batched, data):
        X, Q = data
        with pytest.raises(TypeError):
            batched.knn_search(Q[0], 5, filter=np.zeros(len(X), dtype=np.int64))

    def test_bad_mask_shape_rejected(self, batched, data):
        X, Q = data
        with pytest.raises(ValueError):
            batched.knn_search(Q[0], 5, filter=np.zeros(len(X) + 1, dtype=bool))

    def test_empty_index_checks_mask(self, data):
        """An index with no rows still refuses a mask that is not a
        boolean vector of its (zero) length."""
        _, Q = data
        empty = HnswIndex(dim=DIM)
        with pytest.raises(TypeError):
            empty.knn_search(Q[0], 5, filter=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            empty.knn_search_batch(Q, 5, filter=np.zeros(3, dtype=bool))
        D, I = empty.knn_search_batch(Q, 5, filter=np.zeros(0, dtype=bool))
        assert np.all(I == -1) and np.all(np.isinf(D))


class TestDtypeContract:
    """Distances float64, ids int64 — single, batch, padding, filtered."""

    def test_single_query_dtypes(self, backend, data):
        _, Q = data
        d, ids = backend.knn_search(Q[0], 5)
        assert d.dtype == np.float64
        assert ids.dtype == np.int64

    def test_batch_dtypes(self, batched, data):
        _, Q = data
        D, I = batched.knn_search_batch(Q, 5)
        assert D.dtype == np.float64
        assert I.dtype == np.int64

    def test_filtered_dtypes(self, batched, data):
        X, Q = data
        mask = np.arange(len(X)) % 3 == 0
        d, ids = batched.knn_search(Q[0], 5, filter=mask)
        assert d.dtype == np.float64
        assert ids.dtype == np.int64
        D, I = batched.knn_search_batch(Q[:3], 5, filter=mask)
        assert D.dtype == np.float64
        assert I.dtype == np.int64

    def test_padding_dtypes_when_short(self, batched, data):
        # a filter tighter than k forces padding on the batch surface
        X, Q = data
        mask = np.zeros(len(X), dtype=bool)
        mask[::100] = True  # 4 allowed rows, k=8
        D, I = batched.knn_search_batch(Q[:2], 8, filter=mask)
        assert D.shape == I.shape == (2, 8)
        assert D.dtype == np.float64
        assert I.dtype == np.int64
        assert np.all(np.isinf(D[I == -1]))
