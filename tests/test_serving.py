"""Open-loop serving (``repro.serving``): arrivals, admission, cache, SLO.

The serving contract (docs/serving.md): arrivals reorder *when* queries
are served, never what they answer — every serving run returns (D, I)
bit-identical to the same batch run closed-loop, and a cache hit replays
bit-identical rows.  Drops are never silent: every offered query lands in
exactly one admission ledger column (``admitted + shed + rejected ==
offered``).  These tests pin that contract, the unit behaviour of each
serving component, the config guard rails, and serving's composition with
flow control and the fault harness.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.core.coordinator.merger import ResultMerger
from repro.datasets import zipf_queries, zipf_query_targets
from repro.eval import latency_stats
from repro.faults import FaultPolicy, FaultSpec, RankCrash
from repro.hnsw import HnswParams
from repro.serving import AdmissionQueue, ResultCache, ServingTimeline
from repro.serving.arrivals import arrival_schedule, parse_arrival_spec
from repro.serving.state import ServingState
from repro.simmpi.engine import Simulation
from repro.simmpi.errors import SimConfigError
from tests.test_loadbalance import partition_anchors, skewed_corpus, skewed_system

HNSW = HnswParams(M=8, ef_construction=40)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(600, 16)).astype(np.float32)
    Q = rng.normal(size=(24, 16)).astype(np.float32)
    return X, Q


@pytest.fixture(scope="module")
def hot_corpus():
    """A batch with byte-identical repeats: 60 draws over a 12-query pool."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 16)).astype(np.float32)
    pool = rng.normal(size=(12, 16)).astype(np.float32)
    ranks = zipf_query_targets(60, len(pool), skew=1.3, seed=4)
    return X, np.ascontiguousarray(pool[ranks])


def _run(corpus, **kw):
    X, Q = corpus
    cfg = SystemConfig(
        n_cores=8, cores_per_node=4, k=5, hnsw=HNSW, n_probe=3, seed=0, **kw
    )
    ann = DistributedANN(cfg)
    ann.fit(X)
    return ann.query(Q)


def _digest(D, I):
    return hashlib.sha256(D.tobytes() + I.tobytes()).hexdigest()[:16]


class TestArrivalSpecs:
    def test_parse_poisson(self):
        assert parse_arrival_spec("poisson:250.5") == ("poisson", 250.5)

    def test_parse_trace(self):
        kind, times = parse_arrival_spec("trace:0.0,0.1,0.25")
        assert kind == "trace"
        np.testing.assert_array_equal(times, [0.0, 0.1, 0.25])

    @pytest.mark.parametrize(
        "bad",
        [
            "poisson",  # no colon
            "uniform:10",  # unknown kind
            "poisson:fast",  # non-numeric rate
            "poisson:0",  # rate must be positive
            "poisson:-5",
            "poisson:nan",  # non-finite rates and times
            "poisson:inf",
            "trace:0,nan",
            "trace:0,inf",
            "burst:10:100:0.5",  # not an arrival kind
            "trace:",  # empty
            "trace:0.2,0.1",  # decreasing
            "trace:-1,0",  # negative
            "trace:a,b",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_arrival_spec(bad)

    @pytest.mark.parametrize(
        "spec", ["poisson:500", "trace:" + ",".join(str(i * 0.001) for i in range(40))]
    )
    def test_schedule_deterministic_and_monotone(self, spec):
        a = arrival_schedule(spec, 40, seed=11)
        b = arrival_schedule(spec, 40, seed=11)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (40,)
        assert np.all(np.diff(a) >= 0) and np.all(a >= 0)

    def test_different_seeds_differ(self):
        a = arrival_schedule("poisson:500", 40, seed=11)
        c = arrival_schedule("poisson:500", 40, seed=12)
        assert not np.array_equal(a, c)

    def test_trace_is_seed_independent_replay(self):
        spec = "trace:0.0,0.5,0.5,1.25"
        np.testing.assert_array_equal(
            arrival_schedule(spec, 4, seed=1), [0.0, 0.5, 0.5, 1.25]
        )
        np.testing.assert_array_equal(
            arrival_schedule(spec, 4, seed=99), [0.0, 0.5, 0.5, 1.25]
        )

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="cover every query"):
            arrival_schedule("trace:0.1,0.2", 3)


class TestAdmissionQueue:
    def test_unbounded_never_overloads(self):
        q = AdmissionQueue(0, "block")
        for i in range(1000):
            assert q.accepting()
            assert q.offer(i) == ("queued", None)
        assert q.max_depth_seen == 1000 and q.shed == q.rejected == 0

    def test_block_stops_accepting_when_full(self):
        q = AdmissionQueue(2, "block")
        q.offer(0), q.offer(1)
        assert not q.accepting()
        with pytest.raises(RuntimeError, match="accepting"):
            q.offer(2)
        q.begin_service()
        assert q.accepting()

    def test_shed_oldest_evicts_head(self):
        q = AdmissionQueue(2, "shed_oldest")
        q.offer(0), q.offer(1)
        assert q.accepting()  # shedding policies always look at arrivals
        assert q.offer(2) == ("shed", 0)
        assert list(q.queue) == [1, 2]
        assert q.shed == 1

    def test_reject_refuses_newcomer(self):
        q = AdmissionQueue(2, "reject")
        q.offer(0), q.offer(1)
        assert q.offer(2) == ("rejected", 2)
        assert list(q.queue) == [0, 1]
        assert q.rejected == 1

    def test_ledger_balances(self):
        q = AdmissionQueue(3, "shed_oldest")
        offered = 10
        for i in range(offered):
            q.offer(i)
        while q.queue:
            q.begin_service()
        assert q.admitted + q.shed + q.rejected == offered

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AdmissionQueue(-1, "block")
        with pytest.raises(ValueError):
            AdmissionQueue(4, "drop_newest")


class TestResultCache:
    def _row(self, i):
        return (np.full(5, float(i)), np.arange(5) + i)

    def test_exact_hit_and_miss(self):
        c = ResultCache(4)
        q = np.ones(8, dtype=np.float32)
        assert c.get(c.key(q)) is None
        c.put(c.key(q), self._row(1))
        D, ids = c.get(c.key(q))
        np.testing.assert_array_equal(ids, self._row(1)[1])
        # a single changed byte is a different exact key
        q2 = q.copy()
        q2[0] += 1e-6
        assert c.get(c.key(q2)) is None
        assert c.hits == 1 and c.misses == 2

    def test_lru_eviction(self):
        c = ResultCache(2)
        keys = [c.key(np.full(4, i, dtype=np.float32)) for i in range(3)]
        c.put(keys[0], self._row(0))
        c.put(keys[1], self._row(1))
        c.get(keys[0])  # refresh 0: 1 becomes LRU
        c.put(keys[2], self._row(2))
        assert c.get(keys[1]) is None  # evicted
        assert c.get(keys[0]) is not None
        assert c.evictions == 1 and len(c) == 2

    def test_invalidate_marks_stale(self):
        c = ResultCache(4)
        k = c.key(np.zeros(4, dtype=np.float32))
        c.put(k, self._row(7))
        c.invalidate()
        assert c.get(k) is None
        assert c.stale == 1 and c.hits == 0 and len(c) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ResultCache(0)


class TestServingTimeline:
    def test_latency_decomposition(self):
        t = ServingTimeline(3)
        t.arrival[:] = [0.0, 1.0, 2.0]
        t.note_dispatch(0, 0.5)
        t.note_complete(0, 2.0)
        lat = t.latencies()
        assert lat[0] == 2.0
        assert np.isnan(lat[1]) and np.isnan(lat[2])


class TestServingEquivalence:
    """Serving returns bit-identical answers to the closed-loop batch."""

    MODES = {
        "two_sided": dict(one_sided=False),
        "one_sided_windowed": dict(one_sided=True, dispatch_window=4),
        "two_sided_windowed": dict(one_sided=False, dispatch_window=2),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:5000",
            # two clumps of 12 simultaneous arrivals: a queue forms twice
            pytest.param("trace:" + ",".join(["0"] * 12 + ["1e-3"] * 12), id="trace-clumps"),
        ],
    )
    def test_matches_closed_loop(self, corpus, mode, spec):
        kw = self.MODES[mode]
        D0, I0, rep0 = _run(corpus, **kw)
        D1, I1, rep1 = _run(corpus, **kw, arrival=spec)
        np.testing.assert_array_equal(D0, D1)
        np.testing.assert_array_equal(I0, I1)
        assert rep1.offered_queries == rep1.admitted_queries == len(I1)
        assert rep1.shed_queries == rep1.rejected_queries == 0

    def test_closed_loop_reports_no_serving_activity(self, corpus):
        _, _, rep = _run(corpus, one_sided=False)
        assert rep.offered_queries == 0 and rep.arrival_times is None

    def test_serving_records_full_timeline(self, corpus):
        _, _, rep = _run(corpus, one_sided=False, arrival="poisson:5000")
        lat = rep.query_latencies
        assert lat is not None and np.all(np.isfinite(lat)) and np.all(lat > 0)
        # arrival <= dispatch <= complete, per query
        assert np.all(rep.arrival_times <= rep.dispatch_times + 1e-15)
        assert np.all(rep.dispatch_times <= rep.complete_times + 1e-15)
        np.testing.assert_allclose(
            lat, rep.complete_times - rep.arrival_times, rtol=0, atol=1e-15
        )

    def test_one_sided_serving_latencies_via_credits(self, corpus):
        _, _, rep = _run(
            corpus, one_sided=True, dispatch_window=4, arrival="poisson:5000"
        )
        assert np.all(np.isfinite(rep.query_latencies))

    def test_serving_deterministic(self, corpus):
        a = _run(corpus, one_sided=False, arrival="poisson:5000")
        b = _run(corpus, one_sided=False, arrival="poisson:5000")
        assert _digest(a[0], a[1]) == _digest(b[0], b[1])
        assert a[2].total_seconds == b[2].total_seconds
        np.testing.assert_array_equal(a[2].query_latencies, b[2].query_latencies)


class TestCreditsWithSharedReplicas:
    """A query whose routed partitions share a replica core under credits.

    The serving gate checks each routed partition's workgroup alone, so
    the query's first task may take the last credit of a replica that a
    later partition of the same query also lives on.  That later task
    over-commits the replica by one credit (docs/serving.md); without
    that, it finds no replica at all and the run crashes.
    """

    @pytest.fixture(scope="class")
    def system(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 8)).astype(np.float32)
        Q = (X[:40] + 0.01).astype(np.float32)
        return X, Q

    @staticmethod
    def _query(system, **kw):
        X, Q = system
        cfg = SystemConfig(
            n_cores=4, cores_per_node=2, k=5, n_probe=2, replication_factor=2, seed=1,
            hnsw=HNSW, arrival="poisson:400000", **kw,
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        return ann.query(Q)

    @pytest.mark.parametrize("one_sided", [False, True], ids=["two_sided", "one_sided"])
    @pytest.mark.parametrize("selector", ["primary", "least_loaded"])
    def test_answers_and_ledgers(self, system, selector, one_sided):
        D0, I0, _ = self._query(system, replica_selector=selector, one_sided=False)
        D, I, rep = self._query(
            system, replica_selector=selector, one_sided=one_sided, dispatch_window=2
        )
        np.testing.assert_array_equal(D0, D)
        np.testing.assert_array_equal(I0, I)
        assert rep.credits_leaked == 0
        assert rep.offered_queries == len(I) == (
            rep.admitted_queries + rep.shed_queries + rep.rejected_queries
        )


class TestResultCacheServing:
    def test_hits_are_bit_identical(self, hot_corpus):
        D0, I0, rep0 = _run(hot_corpus, one_sided=False, arrival="poisson:5000")
        D1, I1, rep1 = _run(
            hot_corpus, one_sided=False, arrival="poisson:5000", cache_size=32
        )
        assert rep0.cache_hits == 0
        assert rep1.cache_hits > 0  # the hot pool repeats must hit
        np.testing.assert_array_equal(D0, D1)
        np.testing.assert_array_equal(I0, I1)
        # every admitted query was either a hit or a miss
        assert rep1.cache_hits + rep1.cache_misses == rep1.admitted_queries
        # hits skip dispatch entirely, so the run can only get faster
        assert rep1.total_seconds <= rep0.total_seconds

    def test_cache_capacity_evicts(self, hot_corpus):
        _, _, rep = _run(
            hot_corpus, one_sided=False, arrival="poisson:5000", cache_size=2
        )
        assert rep.cache_evictions > 0
        assert rep.cache_hits + rep.cache_misses == rep.admitted_queries


class TestSkewedServingFloors:
    """The serving headlines as floors, on 16 cores with a modeled 5 ms
    search: 600 open-loop queries drawn Zipf(1.2) from a pool of 64
    distinct vectors, so hot queries repeat byte for byte."""

    @pytest.fixture(scope="class")
    def hot_pool(self):
        X = skewed_corpus(4000, 16, 16)
        ann = skewed_system(16)
        ann.fit(X)
        pool = zipf_queries(partition_anchors(ann), 64, skew=0.0, compactness=0.02, seed=0)
        return X, np.ascontiguousarray(pool[zipf_query_targets(600, 64, 1.2, seed=0)])

    @staticmethod
    def _serve(hot_pool, rate, **kw):
        X, Q = hot_pool
        ann = skewed_system(16, one_sided=False, arrival=f"poisson:{rate}", **kw)
        ann.fit(X)
        return ann.query(Q)[2]

    def test_p99_knee(self, hot_pool):
        """Past capacity the queue grows and the tail with it: p99 at
        12,800 q/s is at least 2x p99 at 200 q/s (1569.7 vs 21.2 ms, 74x)."""
        low, high = (latency_stats(self._serve(hot_pool, r).query_latencies).p99
                     for r in (200, 12800))
        assert high / low >= 2.0, (low, high)

    def test_cache_cuts_p99(self, hot_pool):
        """A cache holding the whole hot pool cuts p99 at 3,200 q/s by at
        least 1.1x (1433.0 vs 166.3 ms, 8.618x)."""
        off, on = (latency_stats(self._serve(hot_pool, 3200, cache_size=c).query_latencies).p99
                   for c in (0, 64))
        assert off / on >= 1.1, (off, on)

    def test_shed_ledger_balances(self, hot_pool):
        """A 16-deep ingress under ``shed_oldest``, with window 1 so the
        head of line credit-blocks: shedding engages and every offered
        query lands in exactly one ledger column (90 admitted, 510 shed)."""
        rep = self._serve(
            hot_pool, 12800, queue_depth=16, overload_policy="shed_oldest", dispatch_window=1
        )
        assert rep.shed_queries > 0
        assert (
            rep.admitted_queries + rep.shed_queries + rep.rejected_queries
            == rep.offered_queries
            == 600
        )


class TestOverloadPolicies:
    """The admission ledger balances under genuine overload.

    ``dispatch_window=1`` makes the head of the ingress queue credit-block
    so the queue actually backs up (with eager dispatch the master routes
    faster than any arrival process can offer).
    """

    # all 24 queries arrive at t=0 while dispatch_window=1 credit-blocks
    # the queue head, so the ingress bound is genuinely exceeded
    PRESSURE = dict(
        one_sided=False,
        arrival="trace:" + ",".join(["0"] * 24),
        dispatch_window=1,
        queue_depth=3,
    )

    def test_block_admits_everything(self, corpus):
        _, _, rep = _run(corpus, **{**self.PRESSURE, "overload_policy": "block"})
        assert rep.admitted_queries == rep.offered_queries == 24
        assert rep.shed_queries == rep.rejected_queries == 0
        assert rep.max_ingress_depth <= 3

    @pytest.mark.parametrize("policy", ["shed_oldest", "reject"])
    def test_dropping_policies_account(self, corpus, policy):
        _, Q = corpus
        D, I, rep = _run(corpus, **{**self.PRESSURE, "overload_policy": policy})
        dropped = rep.shed_queries if policy == "shed_oldest" else rep.rejected_queries
        assert dropped > 0
        assert (
            rep.admitted_queries + rep.shed_queries + rep.rejected_queries
            == rep.offered_queries
            == len(Q)
        )
        assert rep.max_ingress_depth <= 3
        # dropped queries have NaN latencies, answered ones finite
        finite = np.isfinite(rep.query_latencies)
        assert finite.sum() == rep.admitted_queries

    def test_shed_answers_match_closed_loop_where_served(self, corpus):
        D0, I0, _ = _run(corpus, one_sided=False)
        D1, I1, rep = _run(
            corpus, **{**self.PRESSURE, "overload_policy": "shed_oldest"}
        )
        served = np.isfinite(rep.query_latencies)
        np.testing.assert_array_equal(D0[served], D1[served])
        np.testing.assert_array_equal(I0[served], I1[served])


class TestServingWithFaults:
    def test_crash_mid_serving_terminates_and_accounts(self, corpus):
        spec = FaultSpec(crashes=(RankCrash(node=1, at=0.001),))
        D, I, rep = _run(
            corpus,
            one_sided=False,
            replication_factor=2,
            arrival="poisson:2000",  # spreads arrivals across the crash time
            fault_spec=spec,
        )
        assert (
            rep.admitted_queries + rep.shed_queries + rep.rejected_queries
            == rep.offered_queries
            == 24
        )
        # every admitted query completed (possibly degraded), none hung
        assert np.isfinite(rep.query_latencies).sum() == rep.admitted_queries

    def test_crash_invalidates_cache(self, hot_corpus):
        spec = FaultSpec(crashes=(RankCrash(node=1, at=0.0005),))
        _, _, rep = _run(
            hot_corpus,
            one_sided=False,
            replication_factor=2,
            arrival="poisson:5000",
            cache_size=32,
            fault_spec=spec,
        )
        assert (
            rep.admitted_queries + rep.shed_queries + rep.rejected_queries
            == rep.offered_queries
        )


class TestSettleOrder:
    """Both open-loop coordinators take arrivals and results through one
    receive over the two tags, so they settle messages in the order the
    fabric delivered them: earliest wire arrival first.  (A loop that
    posts one receive per tag and orders by completion — the later of
    post and arrival — settles an arrival before a result that landed
    earlier whenever it re-posted the result receive after that result
    landed.)"""

    @staticmethod
    def _settled(corpus, monkeypatch, **kw):
        """(kind, wire arrival) of every message the coordinator settles."""
        arrival_of, settled = {}, []
        deliver, on_arrival, merge = (
            Simulation._deliver, ServingState.on_arrival, ResultMerger.merge_payload
        )

        def spy_deliver(self, mailbox, msg):
            # keep the payload alive so its id names it for the whole run
            arrival_of[id(msg.payload)] = (msg.payload, msg.arrival)
            return deliver(self, mailbox, msg)

        def spy_arrival(self, ctx, payload):
            settled.append(("arrive", arrival_of[id(payload)][1]))
            return on_arrival(self, ctx, payload)

        def spy_merge(self, ctx, payload):
            settled.append(("result", arrival_of[id(payload)][1]))
            return (yield from merge(self, ctx, payload))

        monkeypatch.setattr(Simulation, "_deliver", spy_deliver)
        monkeypatch.setattr(ServingState, "on_arrival", spy_arrival)
        monkeypatch.setattr(ResultMerger, "merge_payload", spy_merge)
        _run(corpus, one_sided=False, arrival="poisson:400000", **kw)
        return settled

    @pytest.mark.parametrize(
        "kw",
        [{}, {"dispatch_window": 2}, {"replication_factor": 2, "fault_policy": FaultPolicy()}],
        ids=["serving", "serving_w2", "fault_harness"],
    )
    def test_messages_settle_in_arrival_order(self, corpus, monkeypatch, kw):
        settled = self._settled(corpus, monkeypatch, **kw)
        kinds = [kind for kind, _ in settled]
        assert kinds.count("arrive") == 24 and kinds.count("result") == 72
        arrivals = [at for _, at in settled]
        assert arrivals == sorted(arrivals)


class TestSloAccounting:
    def test_impossible_slo_all_violations(self, corpus):
        _, _, rep = _run(
            corpus, one_sided=False, arrival="poisson:5000", slo_ms=1e-9
        )
        assert rep.slo_violation_fraction == 1.0

    def test_generous_slo_no_violations(self, corpus):
        _, _, rep = _run(
            corpus, one_sided=False, arrival="poisson:5000", slo_ms=1e6
        )
        assert rep.slo_violation_fraction == 0.0

    def test_drops_count_against_slo(self, corpus):
        _, _, rep = _run(
            corpus,
            one_sided=False,
            arrival="trace:" + ",".join(["0"] * 24),
            dispatch_window=1,
            queue_depth=3,
            overload_policy="shed_oldest",
            slo_ms=1e6,
        )
        assert rep.shed_queries > 0
        # generous target: only the drops violate
        assert rep.slo_violation_fraction == pytest.approx(
            rep.shed_queries / rep.offered_queries
        )

    def test_queue_service_decomposition(self, corpus):
        _, _, rep = _run(corpus, one_sided=False, arrival="poisson:5000")
        np.testing.assert_allclose(
            rep.queue_seconds + rep.service_seconds,
            rep.query_latencies,
            rtol=0,
            atol=1e-15,
        )
        assert np.all(rep.queue_seconds >= 0) and np.all(rep.service_seconds > 0)

    def test_closed_loop_violation_fraction_is_zero(self, corpus):
        _, _, rep = _run(corpus, one_sided=False)
        assert rep.slo_violation_fraction == 0.0


class TestServingConfigGuards:
    def _cfg(self, **kw):
        return SystemConfig(n_cores=8, cores_per_node=4, k=5, hnsw=HNSW, **kw)

    def test_one_sided_eager_serving_rejected(self):
        with pytest.raises(SimConfigError, match="one_sided=False.*dispatch_window > 0"):
            self._cfg(arrival="poisson:100", one_sided=True, dispatch_window=0)

    def test_guard_is_a_value_error(self):
        # callers that only know ValueError still catch config mistakes
        with pytest.raises(ValueError):
            self._cfg(arrival="poisson:100", one_sided=True)

    def test_bad_arrival_spec_rejected(self):
        with pytest.raises(SimConfigError, match="invalid arrival spec"):
            self._cfg(arrival="poisson:sometimes")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(queue_depth=4),
            dict(overload_policy="reject", queue_depth=4),
            dict(cache_size=8),
            dict(slo_ms=5.0),
        ],
    )
    def test_serving_knobs_need_arrival(self, kw):
        with pytest.raises(SimConfigError, match="needs an open-loop arrival"):
            self._cfg(**kw)

    def test_dropping_policy_needs_bound(self):
        with pytest.raises(SimConfigError, match="queue_depth > 0"):
            self._cfg(arrival="poisson:100", one_sided=False, overload_policy="reject")

    def test_serving_requires_approx_routing(self):
        with pytest.raises(SimConfigError, match="routing='approx'"):
            self._cfg(arrival="poisson:100", one_sided=False, routing="adaptive")

    def test_serving_requires_master_strategy(self):
        with pytest.raises(SimConfigError, match="owner_strategy='master'"):
            self._cfg(
                arrival="poisson:100", one_sided=False, owner_strategy="multiple"
            )

    def test_serving_requires_unit_batches(self):
        with pytest.raises(SimConfigError, match="batch_size=1"):
            self._cfg(
                arrival="poisson:100",
                one_sided=False,
                batch_size=4,
                dispatch_window=4,
            )

    def test_bad_policy_name(self):
        with pytest.raises(SimConfigError, match="overload_policy"):
            self._cfg(overload_policy="drop_newest", queue_depth=4)
