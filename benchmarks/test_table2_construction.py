"""Table II — construction times for ANN_SIFT1B vs core count.

Paper (minutes): total 21.5 → 14.7 and HNSW 17.6 → 4.3 as cores go
256 → 8192.  The implied VP-partitioning share *grows* with P (more tree
levels, more at-scale collectives); the HNSW share shrinks (smaller
partitions).  This bench rebuilds the modeled paper-scale index at each
core count on the straggler-calibrated network model and checks those
three shape properties.  The last column is the host's wall-clock seconds
for the same build — the cost of simulating it, printed beside what it
simulates (docs/performance.md, "Construction on the host").
"""

import time

from repro.core import DistributedANN, SystemConfig
from repro.datasets import load_dataset
from repro.eval import format_table
from repro.hnsw import HnswParams
from repro.simmpi import XC40_AT_SCALE

PAPER = {  # cores: (total_min, hnsw_min)
    256: (21.5, 17.6),
    512: (20.1, 14.8),
    1024: (18.3, 12.4),
    2048: (16.5, 9.8),
    4096: (15.2, 7.8),
    8192: (14.7, 4.3),
}


def test_table2_construction_scaling(run_once):
    ds = load_dataset("ANN_SIFT1B", n_points=8192, n_queries=10, k=10, seed=3)

    def experiment():
        rows = []
        for P in sorted(PAPER):
            cfg = SystemConfig(
                n_cores=P,
                cores_per_node=24,
                hnsw=HnswParams(M=16, ef_construction=100),
                searcher="modeled",
                modeled_partition_points=max(10**9 // P, 64),
                modeled_sample_points=16,
                network=XC40_AT_SCALE,
                seed=3,
            )
            ann = DistributedANN(cfg)
            t0 = time.perf_counter()
            br = ann.fit(ds.X)
            host_seconds = time.perf_counter() - t0
            rows.append(
                (
                    P,
                    br.total_seconds / 60,
                    br.hnsw_seconds / 60,
                    br.vptree_seconds / 60,
                    PAPER[P][0],
                    PAPER[P][1],
                    host_seconds,
                )
            )
        return rows

    rows = run_once(experiment)
    print()
    print(
        format_table(
            [
                "cores",
                "total (min)",
                "hnsw (min)",
                "vptree (min)",
                "paper total",
                "paper hnsw",
                "host (s)",
            ],
            rows,
            title="Table II — ANN_SIFT1B construction times",
        )
    )
    totals = [r[1] for r in rows]
    hnsws = [r[2] for r in rows]
    vps = [r[3] for r in rows]
    # HNSW phase must fall monotonically with more cores
    assert all(b < a for a, b in zip(hnsws, hnsws[1:]))
    # the VP phase must grow with P (deeper tree + at-scale collectives)
    assert vps[-1] > vps[0]
    # total construction must still improve from 256 to 8192 overall
    assert totals[-1] < totals[0]
    # magnitudes must be in the paper's regime (minutes, not ms or days)
    assert 1.0 < totals[0] < 120.0
