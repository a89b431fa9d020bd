"""Unit tests for GlobalResults: the one slot store both result paths share."""

import numpy as np
import pytest

from repro.core.results import GlobalResults
from repro.utils.heaps import merge_knn


class TestGlobalResults:
    def test_single_update(self):
        g = GlobalResults(2, 3)
        g.update(0, np.array([1.0, 2.0]), np.array([10, 20]))
        D, I = g.result_arrays()
        assert list(I[0]) == [10, 20, -1]
        assert D[0, 2] == np.inf
        assert list(I[1]) == [-1, -1, -1]

    def test_merge_keeps_global_topk(self):
        g = GlobalResults(1, 2)
        g.update(0, np.array([5.0, 6.0]), np.array([50, 60]))
        g.update(0, np.array([1.0, 7.0]), np.array([10, 70]))
        D, I = g.result_arrays()
        assert list(I[0]) == [10, 50]

    def test_duplicate_ids_across_replicas_collapse(self):
        """Replicated partitions answer the same query with the same ids;
        the merge must not double-count them."""
        g = GlobalResults(1, 3)
        g.update(0, np.array([1.0, 2.0]), np.array([7, 8]))
        g.update(0, np.array([1.0, 2.0]), np.array([7, 8]))
        D, I = g.result_arrays()
        assert list(I[0]) == [7, 8, -1]

    def test_combine_order_independent(self):
        rng = np.random.default_rng(0)
        updates = [
            (rng.random(4), rng.integers(0, 100, 4).astype(np.int64)) for _ in range(5)
        ]
        a = GlobalResults(1, 4)
        for d, i in updates:
            a.update(0, d, i)
        b = GlobalResults(1, 4)
        for d, i in reversed(updates):
            b.update(0, d, i)
        assert np.array_equal(a.result_arrays()[1], b.result_arrays()[1])

    def test_combine_equals_merge_knn(self):
        """The RMA combiner and the master-side merge must agree."""
        rng = np.random.default_rng(1)
        parts = [
            (np.sort(rng.random(5)), rng.integers(0, 30, 5).astype(np.int64))
            for _ in range(3)
        ]
        g = GlobalResults(1, 5)
        for d, i in parts:
            g.update(0, d, i)
        ref_d, ref_i = merge_knn(parts, 5)
        d, i = g[0]
        assert np.array_equal(i, ref_i)
        assert np.allclose(d, ref_d)

    def test_combine_is_merge_knn_bit_for_bit(self):
        """A slot read back after two updates holds merge_knn's bytes and
        dtypes, through duplicate ids, tied and signed-zero distances,
        infinities, float32 input, short and empty results — read one slot
        at a time or all of them through ``result_arrays``."""
        rng = np.random.default_rng(2)
        for _ in range(2000):
            k = int(rng.integers(1, 12))

            def result(n):
                pool = [0.0, -0.0, 0.5, 1.0, np.inf] if rng.random() < 0.5 else rng.random(8)
                d = rng.choice(pool, n).astype(rng.choice([np.float64, np.float32]))
                i = rng.integers(0, 15, n)
                order = np.lexsort((i, d))
                return d[order], i[order]

            old = merge_knn([result(int(rng.integers(0, k + 1)))], k)
            update = result(int(rng.integers(0, 13)))
            want = merge_knn([old, update], k)
            g = GlobalResults(2, k)
            for q in range(2):
                g.update(q, *old)
                g.update(q, *update)
            D, I = g.result_arrays()
            n = len(want[0])
            assert D[0, :n].tobytes() == want[0].tobytes() and I[0, :n].tobytes() == want[1].tobytes()
            assert np.all(D[0, n:] == np.inf) and np.all(I[0, n:] == -1)
            for a, b in zip(g[1], want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_update_count_tracks(self):
        g = GlobalResults(1, 2)
        g.update(0, np.array([1.0]), np.array([1]))
        g.update(0, np.array([2.0]), np.array([2]))
        assert g.update_count == 2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            GlobalResults(0, 3)
        with pytest.raises(ValueError):
            GlobalResults(3, 0)
        g = GlobalResults(2, 2)
        with pytest.raises(IndexError):
            g.update(5, np.array([1.0]), np.array([1]))
