"""Ablation — one-sided RMA results vs two-sided sends (§IV-C1).

The paper's motivation: the baseline's master "spends considerable time
receiving responses"; one-sided accumulation removes that serial work.
This bench measures master CPU time and total batch time under both
transports at growing batch sizes; the master-side saving must grow with
the batch.
"""


from repro.core import DistributedANN, SystemConfig
from repro.datasets import load_dataset
from repro.eval import format_table
from repro.hnsw import HnswParams


def master_cpu(report):
    m = report.master_breakdown
    return m["compute"] + m["send"] + m["recv"] + m["rma"]


def test_onesided_removes_master_receive_work(run_once):
    def experiment():
        ds = load_dataset("ANN_SIFT1B", n_points=4096, n_queries=600, k=10, seed=37)
        rows = []
        for n_q in (150, 300, 600):
            Q = ds.Q[:n_q]
            per_mode = {}
            for one_sided in (True, False):
                cfg = SystemConfig(
                    n_cores=32,
                    cores_per_node=8,
                    k=10,
                    hnsw=HnswParams(M=16, ef_construction=100),
                    searcher="modeled",
                    modeled_partition_points=10**9 // 32,
                    modeled_sample_points=16,
                    n_probe=3,
                    one_sided=one_sided,
                    seed=37,
                )
                ann = DistributedANN(cfg)
                ann.fit(ds.X)
                _, _, rep = ann.query(Q)
                per_mode[one_sided] = rep
            rows.append(
                (
                    n_q,
                    master_cpu(per_mode[True]),
                    master_cpu(per_mode[False]),
                    per_mode[True].total_seconds,
                    per_mode[False].total_seconds,
                )
            )
        return rows

    rows = run_once(experiment)
    print()
    print(
        format_table(
            [
                "queries",
                "master CPU 1-sided",
                "master CPU 2-sided",
                "total 1-sided",
                "total 2-sided",
            ],
            rows,
            title="Ablation — one-sided vs two-sided result return",
        )
    )
    for n_q, cpu1, cpu2, t1, t2 in rows:
        assert cpu1 < cpu2, f"one-sided must reduce master CPU at {n_q} queries"
    # the saving grows with batch size (it is per-result work)
    savings = [(r[2] - r[1]) for r in rows]
    assert savings[-1] > savings[0]
