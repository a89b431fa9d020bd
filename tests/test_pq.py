"""Unit tests for product quantization and the IVF-PQ index."""

import numpy as np
import pytest

from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.pq import IVFPQIndex, ProductQuantizer


@pytest.fixture(scope="module")
def corpus():
    X = sift_like(1200, dim=32, seed=2)
    Q = sample_queries(X, 25, noise_scale=0.05, seed=3)
    gt_d, gt_i = brute_force_knn(X, Q, 5)
    return X, Q, gt_d, gt_i


class TestProductQuantizer:
    def test_fit_encode_shapes(self, corpus):
        X, *_ = corpus
        pq = ProductQuantizer(n_subspaces=4, n_centroids=32, seed=1).fit(X)
        codes = pq.encode(X)
        assert codes.shape == (len(X), 4) and codes.dtype == np.uint8
        assert codes.max() < 32

    def test_decode_approximates_input(self, corpus):
        X, *_ = corpus
        pq = ProductQuantizer(n_subspaces=8, n_centroids=64, seed=1).fit(X)
        rec = pq.decode(pq.encode(X))
        rel_err = np.linalg.norm(X - rec) / np.linalg.norm(X)
        assert rel_err < 0.5

    def test_more_subspaces_less_error(self, corpus):
        X, *_ = corpus
        e2 = ProductQuantizer(2, 32, seed=1).fit(X).quantization_error(X)
        e8 = ProductQuantizer(8, 32, seed=1).fit(X).quantization_error(X)
        assert e8 < e2

    def test_adc_close_to_true_distance(self, corpus):
        X, Q, *_ = corpus
        pq = ProductQuantizer(8, 64, seed=1).fit(X)
        codes = pq.encode(X)
        est = pq.adc_distances(Q[0], codes)
        true = ((X.astype(np.float64) - Q[0].astype(np.float64)) ** 2).sum(1)
        # correlation must be strong even though values are biased
        corr = np.corrcoef(est, true)[0, 1]
        assert corr > 0.9

    def test_compression_ratio(self, corpus):
        X, *_ = corpus
        pq = ProductQuantizer(4, 64, seed=1).fit(X)
        assert pq.compression_ratio() == (32 * 4) / 4
        assert pq.bits_per_vector == 32

    def test_validation_errors(self, corpus):
        X, *_ = corpus
        with pytest.raises(ValueError, match="divisible"):
            ProductQuantizer(n_subspaces=5).fit(X)
        with pytest.raises(ValueError, match="<= 256"):
            ProductQuantizer(n_centroids=512)
        with pytest.raises(RuntimeError, match="fit"):
            ProductQuantizer().encode(X)


class TestIVFPQ:
    def test_search_recall_reasonable(self, corpus):
        X, Q, gt_d, gt_i = corpus
        idx = IVFPQIndex(n_cells=16, n_subspaces=8, n_centroids=64, seed=4, n_probe=8).fit(X)
        hits = 0
        for qi in range(len(Q)):
            _, ids = idx.knn_search(Q[qi], 5)
            hits += len(set(ids) & set(gt_i[qi]))
        assert hits / (len(Q) * 5) >= 0.5  # compressed: lossy but useful

    def test_recall_plateaus_below_perfect(self, corpus):
        """The paper's §V-F claim: compression caps recall below 1.0 even
        with exhaustive probing — the quantization error floors it."""
        X, Q, gt_d, gt_i = corpus
        # n_probe=8 probes every cell
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=16, seed=4, n_probe=8).fit(X)
        hits = 0
        for qi in range(len(Q)):
            _, ids = idx.knn_search(Q[qi], 5)
            hits += len(set(ids) & set(gt_i[qi]))
        recall_exhaustive = hits / (len(Q) * 5)
        assert recall_exhaustive < 0.999

    def test_rerank_recovers_recall(self, corpus):
        X, Q, gt_d, gt_i = corpus

        def recall(rerank):
            idx = IVFPQIndex(
                n_cells=8, n_subspaces=4, n_centroids=16, keep_vectors=True,
                seed=4, n_probe=8, rerank=rerank,
            ).fit(X)
            hits = 0
            for qi in range(len(Q)):
                _, ids = idx.knn_search(Q[qi], 5)
                hits += len(set(ids) & set(gt_i[qi]))
            return hits / (len(Q) * 5)

        assert recall(rerank=50) > recall(rerank=0)

    def test_more_probes_never_hurt(self, corpus):
        X, Q, gt_d, gt_i = corpus

        def recall(n_probe):
            idx = IVFPQIndex(
                n_cells=16, n_subspaces=8, n_centroids=64, seed=4, n_probe=n_probe
            ).fit(X)
            hits = 0
            for qi in range(len(Q)):
                _, ids = idx.knn_search(Q[qi], 5)
                hits += len(set(ids) & set(gt_i[qi]))
            return hits

        assert recall(16) >= recall(1)

    def test_external_ids(self, corpus):
        X, *_ = corpus
        ids = np.arange(len(X)) + 7000
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=16, seed=4, n_probe=8).fit(X, ids)
        _, res = idx.knn_search(X[0], 3)
        assert all(r >= 7000 for r in res)

    def test_rerank_without_vectors_raises(self, corpus):
        X, *_ = corpus
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=16, seed=4, rerank=10).fit(X)
        with pytest.raises(ValueError, match="keep_vectors"):
            idx.knn_search(X[0], 3)

    def test_per_call_knobs_removed(self, corpus):
        """The deprecated per-call n_probe/rerank shim is gone: the knobs
        are constructor-only (``knn_search(query, k)`` alone), and passing
        them per call is a TypeError."""
        X, *_ = corpus
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=16, seed=4, n_probe=1).fit(X)
        with pytest.raises(TypeError):
            idx.knn_search(X[0], 3, n_probe=8)
        with pytest.raises(TypeError):
            idx.knn_search(X[0], 3, rerank=5)
        wide = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=16, seed=4, n_probe=8).fit(X)
        d_new, i_new = wide.knn_search(X[0], 3)
        assert len(i_new) == 3

    def test_len(self, corpus):
        X, *_ = corpus
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=16, seed=4).fit(X)
        assert len(idx) == len(X)
