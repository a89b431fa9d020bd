"""One smoke-size process per mode prints what the contract asks for."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
BENCH = ROOT / "benchmarks" / "e2e" / "bench.py"


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_process_prints_the_manifest_metrics(trace, key):
    done = subprocess.run(
        [sys.executable, str(BENCH), "--workload", "serve_filtered", "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        assert layers["serving.cache_hit_ratio"] > 0
        assert layers["filtering.tasks_pre"] > 0
        assert layers["serving.offered"] == layers["serving.admitted"] == result["attempted"] / 2
        assert layers["core.credits_leaked"] == 0


def test_a_directory_without_the_program_gives_no_result(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for path in BENCH.parent.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "bench.py"), "--workload", "syn32_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""
