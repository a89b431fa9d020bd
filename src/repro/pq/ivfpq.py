"""IVF-PQ: inverted-file index with product-quantized lists.

The canonical single-node compressed billion-scale design (FAISS's
IVFADC; the paper's refs [13][14] are elaborations of it): a coarse
k-means quantizer partitions the space into cells; each vector's PQ code
is stored in its cell's inverted list; a query probes the ``n_probe``
nearest cells and ranks their codes by asymmetric distance.  Optionally a
re-rank step rescoring the top candidates with full-precision vectors
(GRIP's second layer, ref [15]) is supported via ``keep_vectors=True``.

ADC uses the fast-scan layer (:mod:`repro.pq.kernels`): each list's
codes are stored transposed at build time, and the per-query distance
table is built once and reused across every probed list.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import KMeans
from repro.pq.kernels import adc_scan, transpose_codes
from repro.pq.quantizer import ProductQuantizer
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["IVFPQIndex"]


class IVFPQIndex:
    """Compressed approximate k-NN index.

    Parameters
    ----------
    n_cells:
        Coarse quantizer size (inverted lists).
    n_subspaces / n_centroids:
        PQ configuration for the stored codes.
    keep_vectors:
        Keep full-precision vectors for exact re-ranking (GRIP-style
        two-layer search); costs the memory the compression saved, so it
        is off by default.
    n_probe:
        Cells probed per query.
    rerank:
        Top ADC candidates rescored with true distances per query
        (requires ``keep_vectors=True``); 0 disables re-ranking.
    """

    def __init__(
        self,
        n_cells: int = 64,
        n_subspaces: int = 8,
        n_centroids: int = 256,
        keep_vectors: bool = False,
        seed: int = 0,
        n_probe: int = 4,
        rerank: int = 0,
    ):
        check_positive_int(n_cells, "n_cells")
        check_positive_int(n_probe, "n_probe")
        if rerank < 0:
            raise ValueError(f"rerank must be >= 0, got {rerank}")
        self.n_cells = n_cells
        self.pq = ProductQuantizer(n_subspaces, n_centroids, seed=seed)
        self.keep_vectors = keep_vectors
        self.seed = seed
        self.n_probe = n_probe
        self.rerank = rerank
        self._coarse: KMeans | None = None
        self._lists_codes: list[np.ndarray] = []
        self._lists_codes_t: list[np.ndarray] = []
        self._lists_ids: list[np.ndarray] = []
        self._X: np.ndarray | None = None
        self.n_dist_evals = 0

    def __len__(self) -> int:
        return sum(len(ids) for ids in self._lists_ids)

    def fit(self, X: np.ndarray, ids: np.ndarray | None = None) -> "IVFPQIndex":
        """Train coarse quantizer + PQ and build the inverted lists."""
        X = check_matrix(X, "X")
        ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
        if len(ids) != len(X):
            raise ValueError(f"{len(ids)} ids for {len(X)} points")
        self._coarse = KMeans(min(self.n_cells, len(X)), max_iter=25, seed=self.seed).fit(X)
        self.n_cells = self._coarse.k
        self.pq.fit(X)
        assign = self._coarse.predict(X)
        codes = self.pq.encode(X)
        self._lists_codes = [codes[assign == c] for c in range(self.n_cells)]
        # transposed fast-scan layout, built once (see repro.pq.kernels)
        self._lists_codes_t = [transpose_codes(lc) for lc in self._lists_codes]
        self._lists_ids = [ids[assign == c] for c in range(self.n_cells)]
        self._X = X if self.keep_vectors else None
        self._id_to_row = (
            {int(g): r for r, g in enumerate(ids)} if self.keep_vectors else None
        )
        return self

    def knn_search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN by ADC over the probed cells.

        ``rerank > 0`` (constructor knob) rescores that many top ADC
        candidates with true distances (requires ``keep_vectors=True``);
        distances returned are then exact for the reranked prefix.
        """
        if self._coarse is None:
            raise RuntimeError("fit before searching")
        check_positive_int(k, "k")
        q = check_vector(query, "query", dim=self.pq.dim)
        qf = q.astype(np.float64)
        cd = ((self._coarse.centroids - qf) ** 2).sum(axis=1)
        self.n_dist_evals += len(cd)
        probe = np.argsort(cd)[: min(self.n_probe, self.n_cells)]
        # one table build per query, reused across every probed list
        table = self.pq.adc_table(q)
        all_d: list[np.ndarray] = []
        all_i: list[np.ndarray] = []
        for c in probe:
            ct = self._lists_codes_t[c]
            n = ct.shape[1]
            if n == 0:
                continue
            all_d.append(adc_scan(table, ct))
            # ADC cost: one lookup-sum per code (the amortized table build
            # is charged through the coarse routing above)
            self.n_dist_evals += n
            all_i.append(self._lists_ids[c])
        if not all_d:
            return np.empty(0), np.empty(0, dtype=np.int64)
        d = np.concatenate(all_d)
        ids = np.concatenate(all_i)
        order = np.lexsort((ids, d))
        if self.rerank > 0:
            if self._X is None:
                raise ValueError("rerank requires keep_vectors=True")
            top = order[: max(self.rerank, k)]
            rows = np.array([self._id_to_row[int(g)] for g in ids[top]])
            true_d = np.sqrt(((self._X[rows].astype(np.float64) - qf) ** 2).sum(axis=1))
            self.n_dist_evals += len(rows)
            sub = np.lexsort((ids[top], true_d))[:k]
            return true_d[sub], ids[top][sub]
        order = order[:k]
        return np.sqrt(d[order]), ids[order]
