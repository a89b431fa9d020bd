"""Ablation — HNSW's hierarchy vs a flat NSW graph (§III-A).

The hierarchy is what takes greedy search from NSW's O(log^2 n) hops to
O(log n); this bench measures that gap as distance evaluations per search
at matched recall, on the same corpus and links.
"""


from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.eval import format_table
from repro.hnsw import HnswIndex, HnswParams


def test_hierarchy_benefit_over_flat_nsw(run_once):
    """HNSW's hierarchy vs flat NSW (§III-A: O(log n) vs O(log^2 n) —
    measured here as distance evaluations per search at equal recall)."""

    def experiment():
        X = sift_like(4000, seed=73)
        Q = sample_queries(X, 60, noise_scale=0.05, seed=74)
        gt_d, gt_i = brute_force_knn(X, Q, 10)
        out = {}
        for flat in (False, True):
            idx = HnswIndex(
                dim=128,
                params=HnswParams(M=16, ef_construction=80, flat=flat, seed=73),
            )
            idx.add_items(X)
            before = idx.n_dist_evals
            hits = 0
            for i in range(len(Q)):
                _, ids = idx.knn_search(Q[i], 10, ef=50)
                hits += len(set(ids) & set(gt_i[i]))
            out["flat" if flat else "hier"] = (
                (idx.n_dist_evals - before) / len(Q),
                hits / (len(Q) * 10),
                idx.max_level,
            )
        return out

    out = run_once(experiment)
    print()
    print(
        format_table(
            ["graph", "dist evals/query", "recall@10", "levels"],
            [("HNSW", *out["hier"]), ("flat NSW", *out["flat"])],
            title="Ablation — hierarchy benefit (same M, ef)",
        )
    )
    assert out["flat"][2] == 0  # flat really is single-layer
    assert out["hier"][2] >= 1
    # both recall well, but the hierarchy must not cost more evaluations
    assert out["hier"][1] >= 0.9 and out["flat"][1] >= 0.8
    assert out["hier"][0] <= out["flat"][0] * 1.1
