"""Unit tests for HNSW neighbor selection (the Alg. 4 heuristic)."""

import numpy as np
import pytest

from repro.hnsw.select import select_neighbors


def cross_from_points(pts, cand_ids):
    sub = pts[cand_ids]
    diff = sub[:, None, :] - sub[None, :, :]
    return np.sqrt((diff**2).sum(-1))


class TestSelectHeuristic:
    def test_diversity_preferred_over_proximity(self):
        """Two near-duplicate close candidates: only one is kept; a farther
        candidate in another direction is kept instead."""
        pts = np.array(
            [[1.0, 0.0], [1.05, 0.0], [0.0, 3.0]], dtype=np.float64
        )  # two clones to the right, one up
        dq = np.sqrt((pts**2).sum(1))
        cands = sorted((float(dq[i]), i) for i in range(3))
        cross = cross_from_points(pts, np.arange(3))
        kept = select_neighbors(cands, 2, cross)
        kept_ids = {c for _, c in kept}
        assert 0 in kept_ids and 2 in kept_ids and 1 not in kept_ids

    def test_pruned_candidates_backfill(self):
        """Three points in a row: the first dominates the other two, which
        then fill the list up to m in distance order."""
        pts = np.array([[1.0, 0.0], [1.05, 0.0], [1.1, 0.0]], dtype=np.float64)
        dq = np.sqrt((pts**2).sum(1))
        cands = sorted((float(dq[i]), i) for i in range(3))
        cross = cross_from_points(pts, np.arange(3))
        assert select_neighbors(cands, 3, cross) == cands
        assert select_neighbors(cands, 2, cross) == cands[:2]

    def test_first_candidate_always_kept(self):
        pts = np.random.default_rng(0).normal(size=(10, 4))
        dq = np.sqrt((pts**2).sum(1))
        cands = sorted((float(dq[i]), i) for i in range(10))
        cross = cross_from_points(pts, np.arange(10))
        kept = select_neighbors(cands, 4, cross)
        assert kept[0] == cands[0]

    def test_result_bounded_by_m(self):
        pts = np.random.default_rng(1).normal(size=(20, 4))
        dq = np.sqrt((pts**2).sum(1))
        cands = sorted((float(dq[i]), i) for i in range(20))
        cross = cross_from_points(pts, np.arange(20))
        assert len(select_neighbors(cands, 5, cross)) <= 5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cross matrix"):
            select_neighbors([(1.0, 0)], 1, np.zeros((2, 2)))
