"""Tests for repro.filtering: predicates, metadata, strategies, tenants.

Covers the filtered-search stack bottom-up — :class:`FilterSpec` parsing
and wire round-trips, the :class:`MetadataStore` attribute columns, the
pre/post selectivity crossover, the adversarial filtered-HNSW
connectivity property (a predicate selecting a far-away cluster must
stay reachable because non-matching nodes remain in the traversal
frontier), tenant cache-key namespacing, and the end-to-end engine
surface (``fit(metadata=...)`` + ``query(filter=..., tenant=...)``)
including the bit-identity guarantee for unfiltered queries.
"""

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.core.partition import Partition
from repro.core.searcher import ModeledSearcher, RealHnswSearcher
from repro.datasets import sample_queries, sift_like
from repro.filtering import (
    CROSSOVER_SELECTIVITY,
    FilterSpec,
    FilterSpecError,
    MetadataStore,
    choose_strategy,
    clauses_from_wire,
    clauses_to_wire,
    mask_for,
    selectivity,
)
from repro.hnsw import HnswIndex, HnswParams
from repro.runtime.report import SearchReport
from repro.serving import ResultCache, cache_namespace
from repro.simmpi.costmodel import CostModel


class TestFilterSpec:
    def test_eq_matches(self):
        spec = FilterSpec("tier", "eq", 3)
        np.testing.assert_array_equal(
            spec.matches(np.array([1, 3, 3, 7])), [False, True, True, False]
        )

    def test_in_matches_and_sorts(self):
        spec = FilterSpec("tier", "in", (5, 1, 2))
        assert spec.value == (1, 2, 5)
        np.testing.assert_array_equal(
            spec.matches(np.array([0, 1, 2, 3, 5])), [False, True, True, False, True]
        )

    def test_range_matches_inclusive(self):
        spec = FilterSpec("tier", "range", (2, 4))
        np.testing.assert_array_equal(
            spec.matches(np.array([1, 2, 3, 4, 5])), [False, True, True, True, False]
        )

    def test_frozen_and_hashable(self):
        spec = FilterSpec("tier", "eq", 3)
        assert hash(spec) == hash(FilterSpec("tier", "eq", 3))
        with pytest.raises(AttributeError):
            spec.attr = "other"

    def test_json_round_trip(self):
        for spec in (
            FilterSpec("tier", "eq", 3),
            FilterSpec("tier", "in", (1, 2, 5)),
            FilterSpec("tier", "range", (10, 20)),
        ):
            assert FilterSpec.from_json(spec.to_json()) == spec

    def test_wire_round_trip(self):
        clauses = (FilterSpec("tier", "eq", 3), FilterSpec("tenant", "in", (0, 2)))
        assert clauses_from_wire(clauses_to_wire(clauses)) == clauses

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("tier=3", FilterSpec("tier", "eq", 3)),
            ("tier=1,2,5", FilterSpec("tier", "in", (1, 2, 5))),
            ("tier=10..20", FilterSpec("tier", "range", (10, 20))),
            ('{"attr": "tier", "op": "eq", "value": 7}', FilterSpec("tier", "eq", 7)),
        ],
    )
    def test_parse(self, text, expected):
        assert FilterSpec.parse(text) == expected

    @pytest.mark.parametrize(
        "bad",
        ["tier", "tier=x", "tier=5..1", "tier=", "=3", '{"attr": "tier"}', "{not json"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(FilterSpecError):
            FilterSpec.parse(bad)

    def test_bad_op_rejected(self):
        with pytest.raises(FilterSpecError):
            FilterSpec("tier", "neq", 3)

    def test_empty_in_rejected(self):
        with pytest.raises(FilterSpecError):
            FilterSpec("tier", "in", ())


class TestMetadataStore:
    def test_columns_cast_to_int64(self):
        store = MetadataStore({"tier": np.array([1.0, 2.0, 3.0])})
        assert store.column("tier").dtype == np.int64
        assert len(store) == 3

    def test_length_mismatch_rejected(self):
        store = MetadataStore({"tier": np.arange(4)})
        with pytest.raises(ValueError):
            store.add_column("tenant", np.arange(5))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError):
            MetadataStore({"name": np.array(["a", "b"])})

    def test_slice_rows(self):
        store = MetadataStore({"tier": np.arange(10) % 3})
        sliced = store.slice_rows(np.array([0, 3, 7]))
        np.testing.assert_array_equal(sliced["tier"], [0, 0, 1])

    def test_mask_and_selectivity(self):
        store = MetadataStore({"tier": np.arange(10) % 5})
        clauses = (FilterSpec("tier", "eq", 2),)
        mask = store.mask(clauses)
        assert np.count_nonzero(mask) == 2
        assert store.selectivity(clauses) == pytest.approx(0.2)

    def test_unknown_attr_matches_nothing(self):
        # stale predicates must select the empty set, never crash a worker
        mask = mask_for({"tier": np.arange(5)}, (FilterSpec("ghost", "eq", 1),), 5)
        assert not mask.any()

    def test_conjunction(self):
        attrs = {"tier": np.arange(10) % 5, "tenant": np.arange(10) % 2}
        clauses = (FilterSpec("tier", "in", (2, 4)), FilterSpec("tenant", "eq", 0))
        mask = mask_for(attrs, clauses, 10)
        np.testing.assert_array_equal(np.flatnonzero(mask), [2, 4])

    def test_selectivity_empty_store(self):
        assert selectivity(np.zeros(0, dtype=bool)) == 0.0


class TestChooseStrategy:
    def test_forced_strategies_pass_through(self):
        assert choose_strategy("pre", 1000, 1000, 10) == "pre"
        assert choose_strategy("post", 1, 1000, 10) == "post"

    def test_auto_below_crossover_is_pre(self):
        n_rows = 1000
        n_match = int(n_rows * CROSSOVER_SELECTIVITY) - 1
        assert choose_strategy("auto", n_match, n_rows, 5) == "pre"

    def test_auto_at_crossover_is_post(self):
        n_rows = 1000
        n_match = int(n_rows * CROSSOVER_SELECTIVITY)
        assert choose_strategy("auto", n_match, n_rows, 5) == "post"

    def test_auto_small_match_is_pre_even_above_crossover(self):
        # n_match <= k: the scan is exact and cheaper than any traversal
        assert choose_strategy("auto", 5, 10, 5) == "pre"

    def test_auto_empty_partition_is_pre(self):
        assert choose_strategy("auto", 0, 0, 5) == "pre"


class TestCacheNamespace:
    def test_unfiltered_is_empty_prefix(self):
        assert cache_namespace(None, None) == b""

    def test_tenants_get_distinct_namespaces(self):
        ns = {cache_namespace(t, None) for t in (None, 0, 1, 2)}
        assert len(ns) == 4

    def test_filters_get_distinct_namespaces(self):
        fp1 = {"clauses": [{"attr": "tier", "op": "eq", "value": 1}], "strategy": "auto"}
        fp2 = {"clauses": [{"attr": "tier", "op": "eq", "value": 2}], "strategy": "auto"}
        assert cache_namespace(None, fp1) != cache_namespace(None, fp2)

    def test_namespace_is_deterministic(self):
        fp = {"clauses": [{"attr": "tier", "op": "eq", "value": 1}], "strategy": "auto"}
        assert cache_namespace(3, fp) == cache_namespace(3, dict(fp))

    def test_result_cache_isolation(self):
        # the same query vector under two tenants must not share entries
        q = np.ones(8, dtype=np.float32)
        row = (np.zeros(3), np.arange(3))
        c1 = ResultCache(8, namespace=cache_namespace(1, None))
        c2 = ResultCache(8, namespace=cache_namespace(2, None))
        c1.put(c1.key(q), row)
        assert c1.get(c1.key(q)) is not None
        assert c2.get(c2.key(q)) is None

    def test_legacy_keys_unchanged(self):
        # namespace-less cache keys stay byte-identical to the old scheme
        q = np.ones(8, dtype=np.float32)
        assert ResultCache(8).key(q) == np.ascontiguousarray(q, dtype=np.float32).tobytes()


class TestFilteredHnswConnectivity:
    """The adversarial case: the predicate selects a far-away cluster.

    360 points sit near the origin; 40 matching points sit in a distant
    cluster.  A graph walk that pruned non-matching nodes from the
    frontier would strand queries in the origin cluster (every near
    neighbor of the entry point is masked out); keeping them in the
    frontier — the post-strategy contract — must recover the exact
    answer set that brute force over the matches produces.
    """

    K = 10

    @pytest.fixture(scope="class")
    def island(self):
        rng = np.random.default_rng(7)
        main = rng.normal(size=(360, 16)).astype(np.float32)
        far = rng.normal(size=(40, 16)).astype(np.float32) + 60.0
        X = np.concatenate([main, far])
        perm = rng.permutation(len(X))  # interleave insertion order
        X = X[perm]
        mask = perm >= 360  # the island rows, in insertion order
        idx = HnswIndex(dim=16, params=HnswParams(M=8, ef_construction=60, seed=5))
        idx.add_items(X)
        Q = far[:8] + rng.normal(scale=0.05, size=(8, 16)).astype(np.float32)
        return X, mask, idx, Q

    def _exact_over_matches(self, X, mask, q, k):
        rows = np.flatnonzero(mask)
        d = np.linalg.norm(X[rows] - q, axis=1) ** 2
        return rows[np.argsort(d, kind="stable")][:k]

    def test_filtered_traversal_reaches_island(self, island):
        X, mask, idx, Q = island
        # selectivity 0.10 = exactly the auto crossover boundary, so this
        # is the regime where the post strategy starts being chosen
        assert np.count_nonzero(mask) / len(X) == pytest.approx(
            CROSSOVER_SELECTIVITY
        )
        recalls, evals_post = [], []
        for q in Q:
            gt = self._exact_over_matches(X, mask, q, self.K)
            before = idx.n_dist_evals
            _, ids = idx.knn_search(q, self.K, filter=mask)
            evals_post.append(idx.n_dist_evals - before)
            assert np.all(mask[ids])  # predicate always honored
            recalls.append(len(np.intersect1d(ids, gt)) / self.K)
        # brute force over the matches is exact (recall 1.0); the filtered
        # traversal must match it despite the disconnected-looking mask
        assert np.mean(recalls) == pytest.approx(1.0), (
            f"filtered-HNSW recall {np.mean(recalls):.3f} < brute-force 1.0 "
            f"(n_dist_evals/query: post={np.mean(evals_post):.0f})"
        )
        assert all(e > 0 for e in evals_post)

    def test_pre_strategy_eval_count(self, island):
        # the pre strategy is a scan of exactly the matching rows: its
        # eval count is the match count, the yardstick the crossover
        # compares the traversal against
        X, mask, idx, Q = island
        n_match = int(np.count_nonzero(mask))
        rows = np.flatnonzero(mask)
        for q in Q[:2]:
            gt = self._exact_over_matches(X, mask, q, self.K)
            d = np.linalg.norm(X[rows] - q, axis=1) ** 2
            pre_ids = rows[np.argsort(d, kind="stable")][: self.K]
            np.testing.assert_array_equal(np.sort(pre_ids), np.sort(gt))
        assert n_match == 40  # evals_pre per query == n_match by construction

    def test_naive_postfilter_baseline_is_worse(self, island):
        # the baseline the ISSUE compares against: unfiltered search at
        # the same k, then drop non-matching rows.  With a 10%-selective
        # far-away island it finds (almost) nothing.
        X, mask, idx, Q = island
        naive, filtered = [], []
        for q in Q:
            gt = self._exact_over_matches(X, mask, q, self.K)
            _, raw = idx.knn_search(q, self.K)
            kept = raw[mask[raw]]
            naive.append(len(np.intersect1d(kept, gt)) / self.K)
            _, ids = idx.knn_search(q, self.K, filter=mask)
            filtered.append(len(np.intersect1d(ids, gt)) / self.K)
        assert np.mean(filtered) >= np.mean(naive)


class TestFilteredBatchOncePerCall:
    """``search_batch(filter=)`` evaluates the mask and the strategy once
    per call and sends ``post`` rows through one ``knn_search_batch``.
    Each row's answer, the summed virtual seconds and every
    ``filter_stats`` increment must equal what one mask + strategy +
    search per row gives — the oracles below are that per-row code."""

    K = 5
    #: ~50 % of rows (auto -> post), 5 % (auto -> pre), none
    CLAUSES = {
        "post": [FilterSpec("tier", "range", (0, 9))],
        "pre": [FilterSpec("tier", "eq", 0)],
        "empty": [FilterSpec("tier", "eq", 99)],
    }

    @pytest.fixture(scope="class")
    def part(self):
        X = sift_like(400, dim=24, seed=41)
        ids = np.arange(1000, 1400, dtype=np.int64)
        index = HnswIndex(dim=24, params=HnswParams(M=8, ef_construction=40, seed=4))
        index.add_items(X, ids)
        rows = np.sort(np.random.default_rng(3).choice(400, size=60, replace=False))
        return Partition(
            7, X, ids, index=index, attrs={"tier": np.arange(400) % 20},
            sample=(X[rows], ids[rows]), sample_rows=rows,
        )

    @staticmethod
    def _real_row(s, part, q, k, clauses, strategy):
        index = part.index
        mask = mask_for(part.attrs, clauses, part.n_points)
        n_match = int(np.count_nonzero(mask))
        if n_match == 0:
            s.filter_stats["filter_empty_tasks"] += 1
            return np.empty(0), np.empty(0, dtype=np.int64), 0.0
        if choose_strategy(strategy, n_match, part.n_points, k) == "pre":
            rows = np.flatnonzero(mask)
            d = index.metric.one_to_many(q, part.points[rows])
            order = np.lexsort((part.ids[rows], d))[:k]
            d, ids, evals, kind = d[order], part.ids[rows][order], n_match, "pre"
        else:
            before = index.n_dist_evals
            d, ids = index.knn_search(q, k, ef=s.ef_search, filter=mask)
            evals, kind = index.n_dist_evals - before, "post"
        s.filter_stats[f"filter_tasks_{kind}"] += 1
        s.filter_stats[f"filter_evals_{kind}"] += evals
        return d, ids, s.cost.distance_cost(evals, index.dim)

    @staticmethod
    def _modeled_row(s, part, q, k, clauses, strategy):
        mask = mask_for(part.attrs, clauses, part.n_points)
        n_match = int(np.count_nonzero(mask))
        if n_match == 0:
            s.filter_stats["filter_empty_tasks"] += 1
            return np.empty(0), np.empty(0, dtype=np.int64), 0.0
        pre = choose_strategy(strategy, n_match, part.n_points, k) == "pre"
        s.filter_stats[f"filter_tasks_{'pre' if pre else 'post'}"] += 1
        s.filter_stats[f"filter_evals_{'pre' if pre else 'post'}"] += (
            n_match if pre else min(part.n_points, s.ef_search * s.m)
        )
        seconds = s.search_batch(part, q[np.newaxis, :], 1)[2]  # the unfiltered charge
        smask = mask[part.sample_rows]
        pts, ids = part.sample[0][smask], part.sample[1][smask]
        if not len(ids):
            return np.empty(0), np.empty(0, dtype=np.int64), seconds
        d = s.metric.one_to_many(q, pts)
        order = np.lexsort((ids, d))[:k]
        return d[order], ids[order], seconds

    def _searchers(self, kind):
        cost = CostModel()
        if kind == "real":
            return RealHnswSearcher(cost, 32), RealHnswSearcher(cost, 32), self._real_row
        make = lambda: ModeledSearcher(cost, 32, 8, 24, virtual_points=10**6)  # noqa: E731
        return make(), make(), self._modeled_row

    @pytest.mark.parametrize("kind", ["real", "modeled"])
    @pytest.mark.parametrize("nq", [1, 8])
    @pytest.mark.parametrize("case", ["post", "pre", "empty"])
    @pytest.mark.parametrize("strategy", ["auto", "pre", "post"])
    def test_batch_equals_rows(self, part, kind, nq, case, strategy):
        Q = sample_queries(part.points, nq, noise_scale=0.05, seed=nq)
        batch, rows, row_fn = self._searchers(kind)
        clauses = self.CLAUSES[case]
        ds, idss, seconds = batch.search_batch(part, Q, self.K, filter=(clauses, strategy))
        want_seconds = 0.0
        for i, q in enumerate(Q):
            d, ids, s = row_fn(rows, part, q, self.K, clauses, strategy)
            want_seconds += s
            assert ds[i].dtype == np.float64 and idss[i].dtype == np.int64
            np.testing.assert_array_equal(ds[i], d)
            np.testing.assert_array_equal(idss[i], ids)
        assert seconds == want_seconds  # bit for bit: it drives the virtual clock
        assert batch.filter_stats == rows.filter_stats
        # every row is also its own one-row batch
        one_seconds = 0.0
        for i in range(nq):
            one = rows.search_batch(part, Q[i : i + 1], self.K, filter=(clauses, strategy))
            np.testing.assert_array_equal(one[0][0], ds[i])
            np.testing.assert_array_equal(one[1][0], idss[i])
            one_seconds += one[2]
        assert one_seconds == seconds

    def test_auto_takes_both_strategies(self, part):
        """The two non-empty cases really exercise both branches."""
        s = RealHnswSearcher(CostModel(), 32)
        Q = sample_queries(part.points, 8, noise_scale=0.05, seed=8)
        s.search_batch(part, Q, self.K, filter=(self.CLAUSES["post"], "auto"))
        s.search_batch(part, Q, self.K, filter=(self.CLAUSES["pre"], "auto"))
        assert s.filter_stats["filter_tasks_post"] == 8
        assert s.filter_stats["filter_tasks_pre"] == 8


class TestEngineFiltered:
    DIM = 16

    @pytest.fixture(scope="class")
    def corpus(self):
        X = sift_like(320, dim=self.DIM, seed=31)
        Q = sample_queries(X, 10, noise_scale=0.05, seed=32)
        rows = np.arange(len(X))
        metadata = {"tier": rows % 5, "tenant": rows % 4}
        return X, Q, metadata

    def _config(self, **kw):
        return SystemConfig(n_cores=4, cores_per_node=2, k=5, seed=3, **kw)

    def test_unfiltered_bit_identical_with_metadata(self, corpus):
        X, Q, metadata = corpus
        plain = DistributedANN(self._config())
        plain.fit(X)
        tagged = DistributedANN(self._config())
        tagged.fit(X, metadata=metadata)
        D0, I0, r0 = plain.query(Q)
        D1, I1, r1 = tagged.query(Q)
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)
        assert r0.total_seconds == r1.total_seconds
        assert r1.filtered_queries == 0 and r1.tenant_id == -1

    def test_filtered_query_restricts_ids(self, corpus):
        X, Q, metadata = corpus
        ann = DistributedANN(self._config())
        ann.fit(X, metadata=metadata)
        _, I, rep = ann.query(Q, filter="tier=2")
        real = I[I >= 0]
        assert real.size > 0
        assert np.all(real % 5 == 2)
        assert rep.filtered_queries == len(Q)
        assert rep.filter_tasks_pre + rep.filter_tasks_post > 0

    def test_filter_spec_and_conjunction(self, corpus):
        X, Q, metadata = corpus
        ann = DistributedANN(self._config())
        ann.fit(X, metadata=metadata)
        _, I, _ = ann.query(Q, filter=[FilterSpec("tier", "in", (1, 3)), "tenant=1"])
        real = I[I >= 0]
        assert real.size > 0
        assert np.all(np.isin(real % 5, (1, 3)))
        assert np.all(real % 4 == 1)

    def test_tenant_scoping_and_accounting(self, corpus):
        X, Q, metadata = corpus
        ann = DistributedANN(self._config())
        ann.fit(X, metadata=metadata)
        _, I, rep = ann.query(Q, tenant=2)
        real = I[I >= 0]
        assert real.size > 0
        assert np.all(real % 4 == 2)
        assert rep.tenant_id == 2
        assert rep.tenant_queries == len(Q)
        assert rep.metrics["counters"].get("tenant.queries") == len(Q)

    def test_forced_pre_matches_auto_results(self, corpus):
        # strategy changes cost, never the answer: pre is exact, and at
        # k <= matches-per-partition the traversal recovers the same set
        X, Q, metadata = corpus
        pre = DistributedANN(self._config(filter_strategy="pre"))
        pre.fit(X, metadata=metadata)
        _, I_pre, r_pre = pre.query(Q, filter="tier=2")
        auto = DistributedANN(self._config())
        auto.fit(X, metadata=metadata)
        _, I_auto, _ = auto.query(Q, filter="tier=2")
        np.testing.assert_array_equal(I_pre, I_auto)
        assert r_pre.filter_tasks_post == 0
        assert r_pre.filter_evals_pre > 0

    def test_config_filter_default(self, corpus):
        # the config-level --filter default applies when no per-call
        # filter is given, and a per-call filter overrides it
        X, Q, metadata = corpus
        ann = DistributedANN(self._config(filter="tier=0"))
        ann.fit(X, metadata=metadata)
        _, I, _ = ann.query(Q)
        real = I[I >= 0]
        assert np.all(real % 5 == 0)
        _, I2, _ = ann.query(Q, filter="tier=1")
        real2 = I2[I2 >= 0]
        assert np.all(real2 % 5 == 1)

    def test_unknown_attribute_filter_is_empty(self, corpus):
        X, Q, metadata = corpus
        ann = DistributedANN(self._config())
        ann.fit(X, metadata=metadata)
        _, I, rep = ann.query(Q, filter="ghost=1")
        assert np.all(I == -1)
        assert rep.filter_empty_tasks > 0

    def test_selectivity_sweep_floors(self):
        """The filtered-search headlines as floors, on 8 cores probing every
        partition (recall is about filtering here, not routing) over 4,000
        24-d rows whose ``pct`` column is ``row % 100``, so ``pct=0..S-1``
        selects exactly S %.  At 1 / 5 / 10 / 25 / 50 / 90 %, ``auto``'s
        recall against the exact answer over the matching rows must reach
        the naive post-filter's (unfiltered search, then drop non-matching
        rows) at two or more points; it does at all six.  The measured
        crossover, the lowest point where most tasks take the traversal,
        must lie above every swept point below ``CROSSOVER_SELECTIVITY``.
        That rule cannot see the constant move, since ``auto`` moves with
        it, so the recorded crossover (0.25 against 0.10) is pinned too."""
        k, sweep = 10, (1, 5, 10, 25, 50, 90)
        X = sift_like(4000, dim=24, seed=0)
        Q = sample_queries(X, 50, noise_scale=0.05, seed=1)
        pct = np.arange(len(X)) % 100
        ann = DistributedANN(
            SystemConfig(n_cores=8, cores_per_node=4, k=k, n_probe=8, seed=0,
                         hnsw=HnswParams(M=8, ef_construction=60, seed=0))
        )
        ann.fit(X, metadata={"pct": pct})
        _, I_plain, _ = ann.query(Q)

        def recall(ids, gt):
            return np.mean([len(np.intersect1d(r[r >= 0], g)) for r, g in zip(ids, gt)]) / k

        beating, measured = 0, None
        for s in sweep:
            rows = np.flatnonzero(pct < s)
            diff = X[rows] - Q[:, None]
            d = np.einsum("qij,qij->qi", diff, diff)
            gt = rows[np.argsort(d, axis=1, kind="stable")[:, :k]]
            _, I, rep = ann.query(Q, filter=f"pct=0..{s - 1}")
            assert np.all(np.isin(I[I >= 0], rows)), s  # the predicate always holds
            beating += recall(I, gt) >= recall(np.where(np.isin(I_plain, rows), I_plain, -1), gt)
            if measured is None and rep.filter_tasks_post > rep.filter_tasks_pre:
                measured = s / 100
        assert beating >= 2, beating
        assert measured is not None and all(
            s / 100 < measured for s in sweep if s / 100 < CROSSOVER_SELECTIVITY
        ), measured
        assert measured == 0.25

    def test_report_filter_fields_round_trip(self, corpus):
        X, Q, metadata = corpus
        ann = DistributedANN(self._config())
        ann.fit(X, metadata=metadata)
        _, _, rep = ann.query(Q, filter="tier=2", tenant=1)
        again = SearchReport.from_dict(rep.to_dict())
        for name in (
            "filtered_queries",
            "filter_tasks_pre",
            "filter_tasks_post",
            "filter_evals_pre",
            "filter_evals_post",
            "filter_empty_tasks",
            "tenant_id",
            "tenant_queries",
        ):
            assert getattr(again, name) == getattr(rep, name), name
