"""Artifact validator CLI: ``python -m repro.obs.validate FILE [FILE ...]``.

``*.jsonl`` files are checked against the versioned JSONL event schema
(:data:`repro.obs.export.EVENTS_SCHEMA`); a JSON file with a
``counters`` section as a ``--metrics-out`` registry dump, which must also
carry every instrument a :class:`~repro.runtime.report.SearchReport` reads
(:data:`~repro.runtime.report.REPORT_INSTRUMENTS`); any other JSON file
against the Chrome trace-event schema.  Unknown span, instant
or instrument names are errors — this is the CI vocabulary drift guard.
Exits non-zero if any file fails.
"""

from __future__ import annotations

import json
import sys

from repro.obs.export import validate_chrome_trace, validate_events, validate_metrics

__all__ = ["main"]


def _validate_json(obj) -> list[str]:
    if isinstance(obj, dict) and "counters" in obj:
        # deferred: repro.obs itself imports no other repro package
        from repro.runtime.report import REPORT_INSTRUMENTS

        return validate_metrics(obj, required=REPORT_INSTRUMENTS.values())
    return validate_chrome_trace(obj)


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.validate TRACE.json EVENTS.jsonl METRICS.json ...")
        return 2
    failed = False
    for path in paths:
        with open(path) as fh:
            if path.endswith(".jsonl"):
                errors = validate_events(fh.readlines())
            else:
                try:
                    errors = _validate_json(json.load(fh))
                except json.JSONDecodeError as exc:
                    errors = [f"invalid JSON: {exc}"]
        if errors:
            failed = True
            print(f"{path}: INVALID ({len(errors)} error(s))")
            for err in errors[:20]:
                print(f"  - {err}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
