"""Unit tests for the local-searcher strategies."""

import numpy as np
import pytest

from repro.core.partition import NodeStore, Partition
from repro.core.searcher import ModeledSearcher, RealHnswSearcher
from repro.hnsw import HnswIndex, HnswParams
from repro.simmpi import CostModel


def search_one(searcher, partition, q, k):
    """(distances, ids, seconds) of one query: the one-row batch."""
    ds, idss, seconds = searcher.search_batch(partition, q[np.newaxis, :], k)
    return ds[0], idss[0], seconds


@pytest.fixture(scope="module")
def partition():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 16)).astype(np.float32)
    ids = np.arange(1000, 1300)
    idx = HnswIndex(dim=16, params=HnswParams(M=6, ef_construction=30, seed=4))
    idx.add_items(X, ids=ids)
    return Partition(0, X, ids, index=idx)


class TestRealHnswSearcher:
    def test_returns_global_ids(self, partition):
        s = RealHnswSearcher(CostModel(), ef_search=40)
        d, ids, secs = search_one(s, partition, partition.points[5], 3)
        assert ids[0] == 1005
        assert secs > 0

    def test_seconds_proportional_to_evals(self, partition):
        cheap = RealHnswSearcher(CostModel(), ef_search=5)
        pricey = RealHnswSearcher(CostModel(), ef_search=200)
        q = partition.points[0]
        _, _, s1 = search_one(cheap, partition, q, 3)
        _, _, s2 = search_one(pricey, partition, q, 3)
        assert s2 > s1

    def test_missing_index_raises(self):
        p = Partition(1, np.zeros((4, 2), np.float32), np.arange(4))
        s = RealHnswSearcher(CostModel(), ef_search=10)
        with pytest.raises(ValueError, match="no HNSW index"):
            search_one(s, p, np.zeros(2, np.float32), 1)

    def test_build_seconds_positive(self, partition):
        s = RealHnswSearcher(CostModel(), ef_search=10)
        assert s.build_seconds(partition) > 0


class TestModeledSearcher:
    def _searcher(self, **kw):
        defaults = dict(
            cost=CostModel(), ef_search=50, m=16, dim=128, virtual_points=10**6
        )
        defaults.update(kw)
        return ModeledSearcher(**defaults)

    def test_charges_virtual_scale_cost(self):
        s_small = self._searcher(virtual_points=10**4)
        s_big = self._searcher(virtual_points=10**9)
        pts = np.random.default_rng(0).normal(size=(8, 128)).astype(np.float32)
        p = Partition(0, pts, np.arange(8), sample=(pts, np.arange(8)))
        _, _, sec_small = search_one(s_small, p, pts[0], 3)
        _, _, sec_big = search_one(s_big, p, pts[0], 3)
        assert sec_big > sec_small

    def test_explicit_search_seconds_override(self):
        s = self._searcher(search_seconds=0.5)
        pts = np.random.default_rng(0).normal(size=(4, 128)).astype(np.float32)
        p = Partition(0, pts, np.arange(4), sample=(pts, np.arange(4)))
        _, _, sec = search_one(s, p, pts[0], 2)
        assert sec == 0.5

    def test_answers_from_sample(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(32, 128)).astype(np.float32)
        ids = np.arange(500, 532)
        p = Partition(0, pts, ids, sample=(pts, ids))
        s = self._searcher()
        d, res_ids, _ = search_one(s, p, pts[7], 3)
        assert res_ids[0] == 507
        assert np.all(np.diff(d) >= -1e-12)

    def test_no_sample_returns_empty(self):
        p = Partition(0, np.zeros((2, 128), np.float32), np.arange(2))
        d, ids, sec = search_one(self._searcher(), p, np.zeros(128, np.float32), 3)
        assert len(d) == 0 and len(ids) == 0 and sec > 0

    def test_build_seconds_scales_with_virtual_points(self):
        p = Partition(0, np.zeros((2, 128), np.float32), np.arange(2))
        assert self._searcher(virtual_points=10**8).build_seconds(p) > self._searcher(
            virtual_points=10**5
        ).build_seconds(p)


class TestNodeStore:
    def test_add_get_contains(self, partition):
        ns = NodeStore(0)
        ns.add(partition)
        assert partition.partition_id in ns
        assert ns.get(0) is partition

    def test_missing_partition_message_lists_resident(self, partition):
        ns = NodeStore(3)
        ns.add(partition)
        with pytest.raises(KeyError, match="resident"):
            ns.get(42)

    def test_total_bytes(self, partition):
        ns = NodeStore(0)
        ns.add(partition)
        assert ns.total_bytes() == partition.nbytes > 0
