"""Figure 5 — search-time breakdown vs core count.

Paper: for 10^4 queries on ANN_SIFT1B, MPI communication is a small
fraction of the total time — "computation-communication times are greater
than 90% in many cases" thanks to non-blocking sends and one-sided result
accumulation.  This bench sweeps cores with the modeled paper-scale
searcher and prints compute vs communication shares.
"""


from repro.core import DistributedANN, SystemConfig
from repro.datasets import load_dataset
from repro.eval import format_table
from repro.hnsw import HnswParams


def test_fig5_breakdown_vs_cores(run_once):
    cores = [256, 512, 1024, 2048]

    def experiment():
        ds = load_dataset("ANN_SIFT1B", n_points=4096, n_queries=200, k=10, seed=23)
        rows = []
        for P in cores:
            cfg = SystemConfig(
                n_cores=P,
                cores_per_node=24,
                k=10,
                hnsw=HnswParams(M=16, ef_construction=100),
                searcher="modeled",
                modeled_partition_points=10**9 // P,
                modeled_sample_points=16,
                n_probe=3,
                seed=23,
            )
            ann = DistributedANN(cfg)
            ann.fit(ds.X)
            _, _, rep = ann.query(ds.Q)
            w = rep.worker_breakdown
            m = rep.master_breakdown
            # CPU-attributable time only; blocked waits are idle cores, which
            # the paper's breakdown likewise does not count as communication
            compute = w["compute"] + m["compute"]
            comm = sum(w[x] + m[x] for x in ("send", "recv", "rma"))
            total_cpu = compute + comm
            rows.append((P, rep.total_seconds, compute, comm, 100 * compute / total_cpu))
        return rows

    rows = run_once(experiment)
    print()
    print(
        format_table(
            ["cores", "total virt s", "compute s", "comm s", "compute %"],
            rows,
            title="Fig. 5 — search-time breakdown (paper: compute > 90%)",
        )
    )
    for P, total, compute, comm, pct in rows:
        # the paper's qualitative claim: communication stays a small share
        assert pct > 75.0, f"communication dominated at {P} cores ({pct:.1f}% compute)"
