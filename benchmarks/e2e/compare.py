"""Compare two result files of ``bench.py``: ``compare.py A.json B.json``.

A is the parent, B the change.  Every (end-to-end metric, workload) pair is
its own row; each applies the metric's direction and bound from
``BENCHMARK.json`` to the medians across processes:

- ``changed``     a virtual-clock metric differs although both sets used one
                  seed: the modelled system changed, which a PR must declare
- ``unresolved``  the inter-quartile spread of either set, as a share of its
                  median, exceeds the bound: the run cannot tell, which is
                  not the same as unchanged
- ``regressed``   B's median is worse than A's by more than the bound
- ``ok``          none of the above

Exit status 1 if any row is ``changed`` or ``regressed``.  This states no
gain: a gain needs the paired runs of the choosing-metrics guide.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent.parent


def judge(a: list[float], b: list[float], better: str, bound: float, exact: bool) -> dict:
    """One row: medians, quartiles, how much worse B is, and the verdict."""
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse = (bm - am) / abs(am) if better == "lower" else (am - bm) / abs(am)
    noise = max(spread(a), spread(b))
    if exact:
        status = "ok" if set(a) == set(b) else "changed"
    elif noise > bound:
        status = "unresolved"
    elif worse > bound:
        status = "regressed"
    else:
        status = "ok"
    return {
        "a": (a1, am, a3),
        "b": (b1, bm, b3),
        "worse_by": worse,
        "spread": noise,
        "bound": bound,
        "status": status,
    }


def compare(A: dict, B: dict, manifest: dict) -> list[tuple[str, str, dict]]:
    same_seed = A["env"]["seed"] == B["env"]["seed"]
    rows = []
    for name in A["workloads"]:
        if name not in B["workloads"]:
            continue
        for m in manifest["end_to_end"]:
            a = A["workloads"][name]["end_to_end"][m["name"]]["values"]
            b = B["workloads"][name]["end_to_end"][m["name"]]["values"]
            exact = same_seed and m["name"] in A["exact_metrics"]
            rows.append((name, m["name"], judge(a, b, m["better"], m["bound"], exact)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as fa, open(argv[1]) as fb, open(ROOT / "BENCHMARK.json") as fm:
        rows = compare(json.load(fa), json.load(fb), json.load(fm))
    print(
        f"{'workload':16s} {'metric':22s} {'A q1/median/q3':>36s} {'B q1/median/q3':>36s}"
        f" {'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for name, metric, row in rows:
        fa = "/".join(f"{v:.5g}" for v in row["a"])
        fb = "/".join(f"{v:.5g}" for v in row["b"])
        print(
            f"{name:16s} {metric:22s} {fa:>36s} {fb:>36s}"
            f" {row['worse_by']:+9.1%} {row['spread']:7.1%} {row['bound']:6.0%}  {row['status']}"
        )
    counts = {s: sum(r["status"] == s for _, _, r in rows) for s in ("ok", "unresolved", "regressed", "changed")}
    print(", ".join(f"{n} {s}" for s, n in counts.items()))
    return 1 if counts["regressed"] or counts["changed"] else 0


if __name__ == "__main__":
    sys.exit(main())
