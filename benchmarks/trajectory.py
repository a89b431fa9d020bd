"""Shared BENCH_*.json trajectory plumbing.

Every benchmark harness in this directory writes a JSON report at the
repo root and folds the previous report into it as ``previous`` plus a
rolling ``history`` — the recorded perf trajectory.  The mechanics
(dotted-key lookup, required-key validation, trimming a previous run to
its headline fields, reading and folding the prior file, checksumming a
result matrix, failing on a rate that fell against the previous run)
were copy-pasted between harnesses; they live here once.

A harness keeps its own ``REQUIRED_KEYS`` tuple and (where the trimmed
history entry has bespoke fields, e.g. ``bench_hnsw``) its own trim
mapping; everything mechanical comes from this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

__all__ = [
    "fold_previous",
    "get_path",
    "load_previous",
    "missing_keys",
    "regressions",
    "results_checksum",
    "trim_report",
]


def results_checksum(D: np.ndarray, ids: np.ndarray) -> str:
    """SHA-256 over the (D, I) result matrices — the bit-identity gate."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(D, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
    return h.hexdigest()


def get_path(report: dict, dotted: str):
    """``report["a"]["b"]`` for ``"a.b"``; None when any segment is absent."""
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def missing_keys(report: dict, required_keys) -> list[str]:
    """Names of ``required_keys`` (dotted paths) missing from ``report``."""
    return [key for key in required_keys if get_path(report, key) is None]


def trim_report(report: dict, fields) -> dict:
    """A previous run reduced to the fields the trajectory keeps.

    ``fields`` maps output name -> dotted path into the report (pass a
    plain iterable when the names equal the paths).
    """
    if not isinstance(fields, dict):
        fields = {name: name for name in fields}
    return {name: get_path(report, path) for name, path in fields.items()}


def load_previous(out_path: str) -> dict | None:
    """The previous report at ``out_path``, or None (missing/corrupt)."""
    if not os.path.exists(out_path):
        return None
    try:
        with open(out_path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"NOTE: could not read previous {out_path}: {exc}", file=sys.stderr)
        return None


def fold_previous(report: dict, out_path: str, trim_fields=None, cap: int = 20) -> dict:
    """Record the previous run (and rolling history) in the trajectory.

    ``trim_fields`` is forwarded to :func:`trim_report`; the default keeps
    the fields every harness shares (created/config/headline).
    """
    prev = load_previous(out_path)
    if prev is None:
        return report
    if trim_fields is None:
        trim_fields = ("created", "config", "headline")
    trimmed = trim_report(prev, trim_fields)
    report["history"] = (prev.get("history", []) + [trimmed])[-cap:]
    report["previous"] = trimmed
    return report


def regressions(report: dict, rates: dict[str, str], max_regress: float) -> list[str]:
    """One line per higher-is-better rate that fell more than the fraction
    ``max_regress`` below the folded-in ``previous`` run.

    ``rates`` maps the name a rate has in the trimmed ``previous`` entry to
    its dotted path in ``report``.  Nothing is compared (and nothing
    fails) without a previous run of the same ``config``: rates of
    different corpora say nothing about each other.
    """
    prev = report.get("previous")
    if prev is None or prev.get("config") != report.get("config"):
        return []
    out = []
    for name, path in rates.items():
        was, now = prev.get(name), get_path(report, path)
        if was and now is not None and now < (1.0 - max_regress) * was:
            out.append(f"{path} fell {1.0 - now / was:.0%}: {was:,.1f} -> {now:,.1f}")
    return out
