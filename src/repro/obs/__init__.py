"""Unified observability layer: metrics registry, per-query distributed
traces, and Perfetto/JSONL exporters.

This package is deliberately dependency-light (stdlib only) and imports no
other ``repro`` module, so every layer of the system — the simulation
engine, the coordinator, serving, load balancing — can depend on it without
cycles.  See ``docs/observability.md``.
"""

from repro.obs.explain import render_explain, slowest_queries
from repro.obs.export import (
    EVENTS_SCHEMA,
    INSTANT_NAMES,
    METRIC_NAMES,
    SPAN_NAMES,
    chrome_trace,
    events_lines,
    validate_chrome_trace,
    validate_events,
    validate_metrics,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import InstantRecord, SpanRecord, TraceRecorder

__all__ = [
    "EVENTS_SCHEMA",
    "INSTANT_NAMES",
    "METRIC_NAMES",
    "SPAN_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "SpanRecord",
    "TraceRecorder",
    "chrome_trace",
    "events_lines",
    "render_explain",
    "slowest_queries",
    "validate_chrome_trace",
    "validate_events",
    "validate_metrics",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_json",
]
