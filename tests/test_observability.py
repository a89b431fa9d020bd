"""The observability layer: metrics registry, traces, exporters.

The load-bearing contract is *zero perturbation*: enabling tracing and
metrics must not change a single bit of the search results nor a single
tick of the virtual clock, in any execution mode — two-sided, one-sided,
windowed, multiple-owner, adaptive, fault-injected, and open-loop
serving.  The rest is the export surface: Chrome trace events Perfetto
can load (per-proc tracks, flow arrows, counter tracks), schema-versioned
JSONL, the metrics dump, the explain drill-down, and the SearchReport
JSON round-trip.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.faults import FaultSpec, RankCrash
from repro.obs import (
    EVENTS_SCHEMA,
    INSTANT_NAMES,
    SPAN_NAMES,
    MetricsRegistry,
    chrome_trace,
    events_lines,
    render_explain,
    validate_chrome_trace,
    validate_events,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
)
from repro.runtime.report import REPORT_SCHEMA, SearchReport
from repro.serving.admission import AdmissionQueue
from repro.serving.cache import ResultCache


def make_data(n=360, dim=12, n_queries=24, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 8, size=(6, dim))
    X = np.concatenate(
        [c + rng.normal(0, 0.6, size=(60, dim)) for c in centers]
    ).astype(np.float32)
    Q = (X[rng.choice(n, n_queries, replace=False)] + 0.05).astype(np.float32)
    return X, Q


def run(X, Q, traced: bool, **overrides):
    cfg = SystemConfig(
        n_cores=4,
        cores_per_node=1,
        k=5,
        n_probe=2,
        seed=0,
        # explain_top enables the recorder without writing any files
        explain_top=3 if traced else 0,
        **overrides,
    )
    ann = DistributedANN(cfg)
    ann.fit(X)
    return ann.query(Q)


#: every execution mode the zero-perturbation contract must hold in
MODES = {
    "two_sided": dict(one_sided=False),
    "one_sided": dict(one_sided=True),
    "one_sided_window": dict(one_sided=True, dispatch_window=2),
    "window": dict(one_sided=False, dispatch_window=2),
    "multiple_owner": dict(owner_strategy="multiple", batch_size=1),
    "adaptive": dict(routing="adaptive", one_sided=False),
    "replicated": dict(replication_factor=2, replica_selector="least_loaded"),
    "faults": dict(
        one_sided=False,
        replication_factor=2,
        fault_spec=FaultSpec(crashes=(RankCrash(node=1, at=0.002),)),
    ),
    "serving": dict(
        one_sided=False,
        arrival="poisson:5000",
        cache_size=16,
        queue_depth=4,
        overload_policy="shed_oldest",
    ),
}


def _plain(v):
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    return v.item() if isinstance(v, np.generic) else v


def trace_digest(rep) -> str:
    """What a traced run recorded, as one hash: every span (name, proc,
    virtual start and end, parent link, attributes), every instant and
    every flow arrow the Chrome export pairs from them, in record order."""
    rec = rep.trace
    rows = [
        ["span", s.id, s.name, s.pid, s.start, s.end, s.parent, _plain(s.attrs or {})]
        for s in rec.spans
    ]
    rows += [["instant", i.name, i.pid, i.ts, _plain(i.attrs or {})] for i in rec.instants]
    rows += [
        ["flow", e["ph"], e["id"], e["tid"], e["ts"]]
        for e in chrome_trace(rec, rep)["traceEvents"]
        if e["ph"] in ("s", "f")
    ]
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: ``trace_digest`` of every mode's traced run, computed at the parent
#: commit (4b174df), before any source edit of the change that opened the
#: per-task spans by hand and built trace attributes only when a recorder
#: listens.  The span vocabulary test alone would pass a dropped
#: attribute or a mis-parented ``search`` span.
TRACE_DIGESTS: dict[str, str] = {
    "adaptive": "a1f6ed6291318cd9",
    "faults": "80f8939f4aff3a96",
    "multiple_owner": "6ee91e9d2a26b0d5",
    "one_sided": "bdc69239f82101eb",
    "one_sided_window": "e77c1899df1964d1",
    "replicated": "a7fb815f08360abe",
    "serving": "23a181985b492f26",
    "two_sided": "14cea226567c4f3e",
    "window": "e240d2fed4e47920",
}


class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("x.count")
        c.inc()
        c.inc(2)
        assert reg.counter("x.count") is c
        assert reg.value("x.count") == 3

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("hits", core=0).inc(5)
        reg.counter("hits", core=1).inc(7)
        assert reg.value("hits", core=0) == 5
        assert reg.value("hits", core=1) == 7
        assert reg.value("hits") == 0

    def test_gauge_track_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.track_max(4)
        g.track_max(2)
        assert g.value == 4
        g.set(1)
        assert reg.value("depth") == 1

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.001, 0.002, 5.0, 100.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == 0.001 and s["max"] == 100.0
        assert s["buckets"]["+inf"] == 1  # 100.0 overflows the ladder

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("peak").set(5)
        b.gauge("peak").set(9)
        b.histogram("lat").observe(0.5)
        a.merge(b)
        assert a.value("n") == 5  # counters add
        assert a.value("peak") == 9  # gauges keep the peak
        assert a.histogram("lat").count == 1  # histograms pool

    def test_dump_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("n", core=np.int64(1)).inc(np.int64(4))
        reg.gauge("g").set(np.float64(1.5))
        reg.histogram("h").observe(0.01)
        dump = json.loads(json.dumps(reg.dump()))
        assert dump["counters"]["n{core=1}"] == 4
        assert dump["gauges"]["g"] == 1.5
        assert dump["histograms"]["h"]["count"] == 1


class TestRegistryBackedLedgers:
    def test_admission_ledgers_live_in_registry(self):
        reg = MetricsRegistry()
        adm = AdmissionQueue(2, "shed_oldest", metrics=reg)
        for qid in range(4):
            adm.offer(qid)
        adm.begin_service()
        assert reg.value("admission.admitted") == adm.admitted == 1
        assert reg.value("admission.shed") == adm.shed == 2
        assert reg.value("admission.max_depth") == adm.max_depth_seen == 2

    def test_cache_ledgers_live_in_registry(self):
        reg = MetricsRegistry()
        cache = ResultCache(2, metrics=reg)
        q = np.ones(4, dtype=np.float32)
        key = cache.key(q)
        assert cache.get(key) is None
        cache.put(key, (q, q))
        assert cache.get(key) is not None
        assert reg.value("cache.misses") == cache.misses == 1
        assert reg.value("cache.hits") == cache.hits == 1

    def test_shared_registry_aliases_one_counter(self):
        """Two holders of the same registry read/write the same instrument —
        the property that makes report-side assignments idempotent."""
        reg = MetricsRegistry()
        a = AdmissionQueue(0, "block", metrics=reg)
        b = AdmissionQueue(0, "block", metrics=reg)
        a.admitted += 2
        b.admitted += 3
        assert a.admitted == b.admitted == 5


class TestZeroPerturbation:
    """Tracing on vs off: bit-identical results, identical virtual time."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_data()

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_bit_identity_and_makespan(self, data, mode):
        X, Q = data
        D0, I0, rep0 = run(X, Q, traced=False, **MODES[mode])
        D1, I1, rep1 = run(X, Q, traced=True, **MODES[mode])
        assert np.array_equal(D0, D1, equal_nan=True)
        assert np.array_equal(I0, I1)
        # zero-virtual-time invariant: the recorder never advances clocks,
        # never sends a message, and never touches an instrument
        assert rep0.total_seconds == rep1.total_seconds
        assert rep0.metrics == rep1.metrics
        assert rep0.trace is None
        assert rep1.trace is not None

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_span_vocabulary_is_pinned(self, data, mode):
        X, Q = data
        _, _, rep = run(X, Q, traced=True, **MODES[mode])
        unknown_spans = rep.trace.span_names() - SPAN_NAMES
        unknown_instants = rep.trace.instant_names() - INSTANT_NAMES
        assert not unknown_spans, unknown_spans
        assert not unknown_instants, unknown_instants

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_what_the_recorder_records_is_pinned(self, data, mode):
        X, Q = data
        _, _, rep = run(X, Q, traced=True, **MODES[mode])
        assert trace_digest(rep) == TRACE_DIGESTS[mode]


class TestExporters:
    @pytest.fixture(scope="class")
    def traced(self):
        X, Q = make_data()
        return run(X, Q, traced=True, one_sided=False, dispatch_window=2)

    @pytest.fixture(scope="class")
    def served(self):
        X, Q = make_data()
        return run(X, Q, traced=True, **MODES["serving"])

    def test_chrome_trace_is_schema_valid(self, traced):
        rep = traced[2]
        obj = chrome_trace(rep.trace, rep)
        assert validate_chrome_trace(obj) == []

    def test_chrome_trace_has_tracks_flows_and_counters(self, traced):
        rep = traced[2]
        events = chrome_trace(rep.trace, rep)["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "M" in phases  # per-proc track metadata
        assert "X" in phases  # complete spans
        # flow arrows pair master task_send with worker queue spans
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts and len(starts) == len(finishes)
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "queue_depth" in counters

    def test_events_jsonl_is_schema_valid(self, served):
        rep = served[2]
        lines = events_lines(rep.trace, rep)
        assert validate_events(lines) == []
        header = json.loads(lines[0])
        assert header["schema"] == EVENTS_SCHEMA
        kinds = {json.loads(ln)["type"] for ln in lines[1:]}
        # the serving timeline is folded in as per-query records
        assert "query" in kinds
        assert {"span", "instant", "counter"} <= kinds

    def test_unknown_span_name_is_an_error(self, traced):
        rep = traced[2]
        lines = list(events_lines(rep.trace, rep))
        forged = dict(json.loads(lines[1]), type="span", name="not_a_span")
        errors = validate_events(lines + [json.dumps(forged)])
        assert any("not_a_span" in e for e in errors)

    def test_writers_and_validator_cli(self, traced, tmp_path):
        from repro.obs.validate import main as validate_main

        rep = traced[2]
        trace_p = tmp_path / "trace.json"
        events_p = tmp_path / "events.jsonl"
        metrics_p = tmp_path / "metrics.json"
        write_chrome_trace(trace_p, rep.trace, rep)
        write_events_jsonl(events_p, rep.trace, rep)
        write_metrics_json(metrics_p, rep.metrics)
        assert validate_main([str(trace_p), str(events_p), str(metrics_p)]) == 0
        dump = json.loads(metrics_p.read_text())
        assert dump["counters"]["coordinator.tasks_sent"] > 0

    def test_validator_rejects_metrics_drift(self, traced, tmp_path, capsys):
        """The metrics dump is held to one vocabulary, and to carrying
        every instrument a SearchReport reads."""
        from repro.obs import METRIC_NAMES, validate_metrics
        from repro.obs.validate import main as validate_main
        from repro.runtime.report import REPORT_INSTRUMENTS

        dump = traced[2].metrics
        assert {inst for _, inst in REPORT_INSTRUMENTS.values()} <= METRIC_NAMES
        assert validate_metrics(dump, required=REPORT_INSTRUMENTS.values()) == []
        assert validate_metrics({"counters": {}}) != []  # not a dump at all

        forged = json.loads(json.dumps(dump))
        forged["counters"]["coordinator.tasks_sent{owner=3}"] = 1  # labels are free
        forged["gauges"]["dispatch.in_flight"] = 2
        del forged["counters"]["cache.hits"]
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(forged))
        assert validate_main([str(path)]) == 1
        printed = capsys.readouterr().out
        assert "unknown instrument 'dispatch.in_flight'" in printed
        assert "instrument 'cache.hits' is missing" in printed
        assert "owner=3" not in printed

    def test_every_registered_instrument_is_in_the_vocabulary(self):
        """Source scan: a module cannot register a literal instrument name
        that METRIC_NAMES lacks (the dynamic ``filter.*`` names are covered
        by validating real dumps)."""
        import pathlib
        import re

        from repro.obs import METRIC_NAMES

        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        pattern = re.compile(
            r'(?:\.(?:counter|gauge|histogram)\(|Instrument\("\w+", )"([a-z_]+\.[\w.]+)"'
        )
        found = {m for p in src.rglob("*.py") for m in pattern.findall(p.read_text())}
        assert len(found) > 25
        assert found <= METRIC_NAMES, sorted(found - METRIC_NAMES)

    def test_explain_renders_span_trees(self, traced):
        rep = traced[2]
        text = render_explain(rep, 2)
        assert "slowest 2" in text
        assert "queue" in text and "service" in text
        assert "search" in text

    def test_explain_without_trace_degrades(self, traced):
        X, Q = make_data()
        _, _, rep = run(X, Q, traced=False)
        assert "no trace" in render_explain(rep, 2)


class TestReportRoundTrip:
    @pytest.fixture(scope="class")
    def served(self):
        # every query arrives at t=0 against a depth-3 queue, so shed_oldest
        # must drop some — the NaN latencies the round-trip has to survive
        X, Q = make_data()
        return run(
            X,
            Q,
            traced=True,
            one_sided=False,
            arrival="trace:" + ",".join(["0"] * len(Q)),
            queue_depth=3,
            overload_policy="shed_oldest",
            cache_size=16,
        )

    def test_to_dict_is_json_serializable(self, served):
        rep = served[2]
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["schema"] == REPORT_SCHEMA
        assert "trace" not in data

    def test_round_trip_preserves_fields(self, served):
        rep = served[2]
        back = SearchReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert back.total_seconds == rep.total_seconds
        assert back.n_queries == rep.n_queries
        assert back.offered_queries == rep.offered_queries
        assert back.shed_queries == rep.shed_queries
        assert back.cache_hits == rep.cache_hits
        assert np.array_equal(back.dispatch_counts, rep.dispatch_counts)
        assert np.array_equal(
            back.query_latencies, rep.query_latencies, equal_nan=True
        )
        assert np.array_equal(
            back.queue_depth_timeline, rep.queue_depth_timeline, equal_nan=True
        )
        assert back.metrics == rep.metrics
        # NaN-dropped queries survive the None<->NaN JSON mapping
        assert np.isnan(rep.query_latencies).any()
        # derived properties keep working on the reconstruction
        assert back.throughput == rep.throughput

    def test_round_trip_preserves_fault_events(self):
        X, Q = make_data()
        _, _, rep = run(X, Q, traced=False, **MODES["faults"])
        assert rep.fault_events
        back = SearchReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert len(back.fault_events) == len(rep.fault_events)
        assert back.fault_events[0].kind == rep.fault_events[0].kind
        assert back.crashed_pids == rep.crashed_pids
