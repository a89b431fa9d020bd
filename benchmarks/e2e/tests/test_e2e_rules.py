"""The percentile support rule, the compare rule, and ``BENCHMARK.json``."""

import json
import re
from pathlib import Path

import pytest

import compare
from stats import percentile, quartiles, spread, windowed_percentile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


def test_p90_is_refused_under_100_samples():
    samples = list(range(1, 100))
    with pytest.raises(ValueError, match="needs 10"):
        percentile(samples, 90)
    assert percentile(samples + [100], 90) == 90
    assert percentile(list(range(1, 21)), 50) == 10  # p50 needs only 20
    assert percentile([3.0, 1.0, 2.0], 90, min_beyond=0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50, min_beyond=0)


def test_windowed_percentile_moves_with_the_share_of_slow_stretches():
    fast, slow = [10.0] * 10, [13.0] * 10
    # a pooled median would read 10 until the slow share passes a half, then 13
    assert windowed_percentile(fast * 3 + slow * 2, 50) == pytest.approx(11.2)
    assert windowed_percentile(fast * 2 + slow * 3, 50) == pytest.approx(11.8)
    # one slow batch in a stretch moves neither percentile of that stretch
    assert windowed_percentile([10.0] * 9 + [50.0], 90) == 10.0
    # a short tail joins the last stretch; fewer than one stretch is one stretch
    assert windowed_percentile(list(range(1, 26)), 50) == 11.5
    assert windowed_percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (10.5, 12.0, 13.5)
    assert spread(values) == pytest.approx(0.25)
    assert spread([7.0]) == 0.0


@pytest.mark.parametrize(
    "a, b, better, exact, status",
    [
        ([100, 101, 99, 100, 100], [104, 105, 103, 104, 104], "lower", False, "ok"),
        ([100, 101, 99, 100, 100], [115, 116, 114, 115, 115], "lower", False, "regressed"),
        ([100, 101, 99, 100, 100], [85, 86, 84, 85, 85], "higher", False, "regressed"),
        ([100, 101, 99, 100, 100], [115, 116, 114, 115, 115], "higher", False, "ok"),
        # B's own quartiles are further apart than the bound: cannot tell
        ([100, 101, 99, 100, 100], [80, 130, 100, 90, 120], "lower", False, "unresolved"),
        ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], "lower", True, "ok"),
        ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5000001], "lower", True, "changed"),
    ],
)
def test_compare_rule(a, b, better, exact, status):
    assert compare.judge(a, b, better, 0.10, exact)["status"] == status


def test_compare_walks_every_metric_and_workload():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    def result(scale):
        rows = {
            m["name"]: {"values": [scale * v for v in (1.0, 1.01, 0.99)]}
            for m in manifest["end_to_end"]
        }
        return {
            "env": {"seed": 1},
            "exact_metrics": ["sim_makespan_s"],
            "workloads": {name: {"end_to_end": rows} for name in WORKLOADS},
        }

    rows = compare.compare(result(1.0), result(2.0), manifest)
    assert len(rows) == len(WORKLOADS) * len(manifest["end_to_end"])
    verdicts = {(metric, row["status"]) for _, metric, row in rows}
    assert ("sim_makespan_s", "changed") in verdicts
    assert ("setup_s", "regressed") in verdicts  # lower is better, B doubled
    assert ("query_qps", "ok") in verdicts  # higher is better, B doubled


def test_manifest_is_valid_and_names_the_workloads():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in manifest[key]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
