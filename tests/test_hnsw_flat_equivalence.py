"""Bit-equivalence of the flattened HNSW hot path.

Every optimisation in ``repro.hnsw.index`` — flat adjacency, epoch-stamped
visited sets, fast kernels, the compiled C search and insert with its
incremental shrink — is required to be behaviour-preserving down to the bit (see
docs/performance.md).  These tests pin that contract three ways:

1. the flat backend against :class:`ReferenceHnswIndex` on every metric,
   including the logical ``n_dist_evals`` charge,
2. the native (C) search layer against the pure-python traversal on the
   very same index,
3. embedded golden eval counts + result hashes for a fixed seeded build,
   so a silent behaviour change anywhere in the stack fails loudly,

plus the save -> load -> search round-trip, which must preserve both the
non-default params and the exact search results.
"""

import hashlib

import numpy as np
import pytest

from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw.reference import ReferenceHnswIndex


def _make_data(n=300, dim=16, nq=12, seed=11):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 8, size=(4, dim))
    X = np.concatenate(
        [c + rng.normal(0, 1, size=(n // 4, dim)) for c in centers]
    ).astype(np.float32)
    Q = (X[rng.choice(len(X), nq, replace=False)] + rng.normal(0, 0.3, (nq, dim))).astype(
        np.float32
    )
    return X, Q


def _results_digest(index, Q, k, ef):
    """sha256 over every query's (distances, ids) byte representation."""
    h = hashlib.sha256()
    for q in Q:
        d, i = index.knn_search(q, k, ef=ef)
        h.update(d.tobytes())
        h.update(i.tobytes())
    return h.hexdigest()


class TestFlatMatchesReference:
    """Flat backend == dict-of-lists reference, results and eval counts."""

    @pytest.mark.parametrize("metric", ["l2", "sqeuclidean", "ip", "cosine"])
    @pytest.mark.parametrize("flat_graph", [False, True])
    def test_bit_identical_to_reference(self, metric, flat_graph):
        X, Q = _make_data()
        params = HnswParams(M=6, ef_construction=40, seed=3, flat=flat_graph)
        ref = ReferenceHnswIndex(dim=X.shape[1], params=params, metric=metric)
        idx = HnswIndex(dim=X.shape[1], params=params, metric=metric)
        ref.add_items(X)
        idx.add_items(X)

        assert idx.n_dist_evals == ref.n_dist_evals, "construction charge drifted"
        for q in Q:
            rd, ri = ref.knn_search(q, 5, ef=24)
            fd, fi = idx.knn_search(q, 5, ef=24)
            np.testing.assert_array_equal(fi, ri)
            np.testing.assert_array_equal(fd, rd)  # exact, not allclose
        assert idx.n_dist_evals == ref.n_dist_evals, "search charge drifted"

    def test_batch_rows_equal_single_queries(self):
        X, Q = _make_data()
        idx = HnswIndex(dim=X.shape[1], params=HnswParams(M=6, ef_construction=40, seed=3))
        idx.add_items(X)

        evals0 = idx.n_dist_evals
        D, I = idx.knn_search_batch(Q, 5, ef=24)
        batch_evals = idx.n_dist_evals - evals0

        single_evals = 0
        for row, q in enumerate(Q):
            before = idx.n_dist_evals
            d, i = idx.knn_search(q, 5, ef=24)
            single_evals += idx.n_dist_evals - before
            np.testing.assert_array_equal(D[row, : len(d)], d)
            np.testing.assert_array_equal(I[row, : len(i)], i)
        assert batch_evals == single_evals


class TestNativeMatchesPython:
    """The compiled search layer is a drop-in for the python traversal."""

    def test_search_identical_with_native_disabled(self):
        X, Q = _make_data(dim=32)  # 32 is the only natively-accelerated dim
        idx = HnswIndex(dim=32, params=HnswParams(M=6, ef_construction=40, seed=3))
        idx.add_items(X)
        if idx._native is None:
            pytest.skip("native search layer unavailable on this machine")

        def sweep():
            out, charges = [], []
            for q in Q:
                before = idx.n_dist_evals
                out.append(idx.knn_search(q, 5, ef=24))
                charges.append(idx.n_dist_evals - before)
            return out, charges

        native, native_charges = sweep()
        idx._native = None
        python, python_charges = sweep()

        for (nd, ni), (pd, pi) in zip(native, python):
            np.testing.assert_array_equal(ni, pi)
            np.testing.assert_array_equal(nd, pd)
        # the logical eval charge per query is path-independent
        assert native_charges == python_charges

    def test_build_identical_with_native_disabled(self):
        X, Q = _make_data(dim=32)
        params = HnswParams(M=6, ef_construction=40, seed=3)
        fast = HnswIndex(dim=32, params=params)
        slow = HnswIndex(dim=32, params=params)
        if fast._native is None:
            pytest.skip("native search layer unavailable on this machine")
        slow._native = slow._native_build = None
        fast.add_items(X)
        slow.add_items(X)

        assert fast.n_dist_evals == slow.n_dist_evals
        for lv in range(len(fast._nbrs)):
            np.testing.assert_array_equal(fast._cnts[lv], slow._cnts[lv])
            for node in range(fast._n):
                c = fast._cnts[lv][node]
                np.testing.assert_array_equal(
                    fast._nbrs[lv][node, :c], slow._nbrs[lv][node, :c]
                )


class TestGoldenBuild:
    """Frozen eval counts + result digests for one seeded 2000-point build.

    These values were produced by the reference implementation and are
    identical on the python and native paths; any change means a behaviour
    change somewhere in the hot path, not a perf regression.
    """

    GOLDEN = {
        # (metric, flat): (build_evals, total_evals_after_search, digest16)
        ("l2", False): (8520441, 8544459, "c42d0a87321b0bd7"),
        ("l2", True): (8058264, 8081304, "c42d0a87321b0bd7"),
        ("ip", False): (8563013, 8588087, "3910920a5fc1a41e"),
        ("ip", True): (8102110, 8126424, "3ea648f7b907848c"),
    }

    @pytest.mark.parametrize("metric,flat_graph", sorted(GOLDEN))
    def test_golden(self, metric, flat_graph):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(2000, 32)).astype(np.float32)
        Q = rng.normal(size=(50, 32)).astype(np.float32)
        idx = HnswIndex(
            dim=32,
            params=HnswParams(M=8, ef_construction=50, seed=5, flat=flat_graph),
            metric=metric,
        )
        idx.add_items(X)
        build_evals, total_evals, digest16 = self.GOLDEN[(metric, flat_graph)]
        assert idx.n_dist_evals == build_evals
        assert _results_digest(idx, Q, 10, ef=40)[:16] == digest16
        assert idx.n_dist_evals == total_evals


class TestSaveLoadRoundTrip:
    """save -> load preserves params and exact search behaviour."""

    @pytest.mark.parametrize(
        "params",
        [
            HnswParams(M=6, ef_construction=40, seed=3),
            HnswParams(M=6, ef_construction=40, seed=3, M0=9),
            HnswParams(M=6, ef_construction=40, seed=3, flat=True),
        ],
        ids=["default", "M0", "flat-graph"],
    )
    def test_round_trip(self, params, tmp_path):
        X, Q = _make_data()
        idx = HnswIndex(dim=X.shape[1], params=params)
        idx.add_items(X)
        path = str(tmp_path / "index.npz")
        idx.save(path)
        loaded = HnswIndex.load(path)

        assert loaded.params == params
        for q in Q:
            d0, i0 = idx.knn_search(q, 5, ef=24)
            d1, i1 = loaded.knn_search(q, 5, ef=24)
            np.testing.assert_array_equal(i1, i0)
            np.testing.assert_array_equal(d1, d0)
