"""Figure 3 — strong scaling of the total query time.

Fig. 3(a): SYN_1M / SYN_10M analogues, 32 → 1024 cores, speedups
normalized to 32 cores (paper: ≈13x and ≈18x at 1024).
Fig. 3(b): ANN_SIFT1B / DEEP1B analogues, 256 → 8192 cores, normalized to
256 cores (paper: ≈25x at 8192, "almost linear").

Calibration (see EXPERIMENTS.md): the modeled local-search cost per task is
anchored to the paper's *own* aggregate throughput — e.g. ANN_SIFT1B's
6.3 s x 8192 cores / (10^4 queries x n_probe tasks) — because the paper's
measured per-task cost is the quantity that determines where master-side
serialization would bend the curve.  Routing runs for real on the
reduced-scale data; the speedup shape then follows from the architecture.
The last column is the host's wall-clock seconds per configuration, build +
query call — what simulating that point costs, beside what it simulates.
"""

import time

import pytest

from repro.core import DistributedANN, SystemConfig
from repro.datasets import load_dataset
from repro.eval import format_table, speedup_table
from repro.hnsw import HnswParams

N_PROBE = 3


def scaling_run(dataset_name, paper_points, core_counts, n_points, n_queries, task_seconds):
    from repro.datasets import sample_queries

    ds = load_dataset(dataset_name, n_points=n_points, n_queries=10, k=10, seed=5)
    # Diverse held-out queries.  The paper's SYN query sets are skewed into
    # one cluster, but its ball-routing F(q) fans out across partitions and
    # spreads the load anyway; with this bench's fixed n_probe routing the
    # equivalent load spread comes from query diversity (the skewed-load
    # behaviour is Fig. 4's subject, benched separately).
    Q = sample_queries(ds.X, n_queries, noise_scale=0.05, seed=6)
    measurements, host = [], []
    for P in core_counts:
        cfg = SystemConfig(
            n_cores=P,
            cores_per_node=min(24, P),
            k=10,
            hnsw=HnswParams(M=16, ef_construction=100),
            searcher="modeled",
            modeled_partition_points=max(paper_points // P, 64),
            modeled_sample_points=16,
            modeled_search_seconds=task_seconds,
            n_probe=N_PROBE,
            seed=5,
        )
        ann = DistributedANN(cfg)
        t0 = time.perf_counter()
        ann.fit(ds.X)
        t1 = time.perf_counter()
        _, _, rep = ann.query(Q)
        measurements.append((P, rep.total_seconds))
        host.append(f"{t1 - t0:.1f} + {time.perf_counter() - t1:.1f}")
    # core_counts ascend, which is the order speedup_table returns its rows in
    return speedup_table(measurements), host


class TestFig3a:
    """SYN datasets, 32..1024 cores."""

    @pytest.mark.parametrize(
        "name,paper_points,task_seconds,paper_speedup",
        [("SYN_1M", 10**6, 1.0e-3, 13.0), ("SYN_10M", 10**7, 1.9e-3, 18.0)],
    )
    def test_syn_scaling(self, run_once, name, paper_points, task_seconds, paper_speedup):
        cores = [32, 64, 128, 256, 512, 1024]

        rows, host = run_once(
            lambda: scaling_run(
                name, paper_points, cores, n_points=4096, n_queries=10_000,
                task_seconds=task_seconds,
            )
        )
        print()
        print(
            format_table(
                ["cores", "virtual s", "speedup", "efficiency", "host s (fit + query)"],
                [(r.cores, r.seconds, r.speedup, r.efficiency, h) for r, h in zip(rows, host)],
                title=f"Fig. 3(a) — {name} strong scaling "
                f"(paper speedup at 1024: ~{paper_speedup}x)",
            )
        )
        speedups = [r.speedup for r in rows]
        # shape: monotone speedup growth, substantial but sublinear at 1024
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        assert 0.5 * paper_speedup <= speedups[-1] <= 32.0


class TestFig3b:
    """Billion-point datasets, 256..8192 cores, near-linear scaling."""

    @pytest.mark.parametrize(
        "name,paper_seconds_8192",
        [("ANN_SIFT1B", 6.3), ("DEEP1B", 7.1)],
    )
    def test_billion_scaling(self, run_once, name, paper_seconds_8192):
        cores = [256, 512, 1024, 2048, 4096, 8192]
        # the paper's own per-task cost at 8192 cores with 10^4 queries
        task_seconds = paper_seconds_8192 * 8192 / (10_000 * N_PROBE)

        rows, host = run_once(
            lambda: scaling_run(
                name, 10**9, cores, n_points=8192, n_queries=10_000,
                task_seconds=task_seconds,
            )
        )
        print()
        print(
            format_table(
                ["cores", "virtual s", "speedup", "efficiency", "host s (fit + query)"],
                [(r.cores, r.seconds, r.speedup, r.efficiency, h) for r, h in zip(rows, host)],
                title=f"Fig. 3(b) — {name} strong scaling "
                "(paper: ~25x at 8192 cores, almost linear)",
            )
        )
        speedups = [r.speedup for r in rows]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        # "almost linear": >= 15x at 32x the cores (paper: ~25x)
        assert speedups[-1] >= 15.0
        assert rows[-1].efficiency >= 0.45
