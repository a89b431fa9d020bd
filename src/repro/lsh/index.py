"""Multi-table E2LSH-style index (p-stable projections, Datar et al. 2004).

Each of ``n_tables`` hash tables hashes a vector with ``n_bits`` concatenated
scalar quantizers ``h(x) = floor((a.x + b) / w)`` (a ~ N(0, I), b ~ U[0, w)).
Near points collide in at least one table with high probability; a query
scans the union of its buckets and ranks candidates by true distance.

The classic trade-offs this makes measurable:

- more tables  -> higher recall, more memory, more candidates scanned;
- wider ``w``  -> bigger buckets (recall up, selectivity down);
- LSH needs far more candidates than a proximity graph for the same
  recall on clustered data — the empirical reason the paper's generation
  of systems moved to graphs.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import get_metric
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["LSHIndex"]


class LSHIndex:
    """Random-projection LSH for L2 k-NN.

    Parameters
    ----------
    n_tables:
        Independent hash tables (L).
    n_bits:
        Concatenated hashes per table (K) — selectivity knob.
    bucket_width:
        Quantizer width ``w`` relative to the data's typical scale; fit()
        multiplies it by the mean per-coordinate std of the data so the
        default works across datasets.
    """

    def __init__(
        self,
        n_tables: int = 8,
        n_bits: int = 12,
        bucket_width: float = 4.0,
        seed: int = 0,
    ) -> None:
        check_positive_int(n_tables, "n_tables")
        check_positive_int(n_bits, "n_bits")
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.bucket_width = bucket_width
        self.seed = seed
        self._metric = get_metric("l2")
        self._X: np.ndarray | None = None
        self._ids: np.ndarray | None = None
        self._proj: np.ndarray | None = None  # (L, K, dim)
        self._offsets: np.ndarray | None = None  # (L, K)
        self._w: float = 1.0
        self._tables: list[dict[bytes, list[int]]] = []
        self.n_dist_evals = 0

    def __len__(self) -> int:
        return 0 if self._X is None else len(self._X)

    def _hash(self, X: np.ndarray) -> np.ndarray:
        """(n, L, K) integer hash matrix."""
        # projections: (L*K, dim) @ (dim, n) -> reshape
        flat = self._proj.reshape(-1, self._proj.shape[2])
        h = (X @ flat.T).reshape(len(X), self.n_tables, self.n_bits)
        h = np.floor((h + self._offsets[None, :, :]) / self._w).astype(np.int64)
        return h

    def fit(self, X: np.ndarray, ids: np.ndarray | None = None) -> "LSHIndex":
        X = check_matrix(X, "X")
        self._X = X
        self._ids = (
            np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
        )
        if len(self._ids) != len(X):
            raise ValueError(f"{len(self._ids)} ids for {len(X)} points")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x15A]))
        dim = X.shape[1]
        scale = float(np.mean(X.std(axis=0, dtype=np.float64))) or 1.0
        self._w = self.bucket_width * scale
        self._proj = rng.standard_normal((self.n_tables, self.n_bits, dim)).astype(np.float32)
        self._offsets = rng.uniform(0, self._w, size=(self.n_tables, self.n_bits)).astype(
            np.float32
        )
        hashes = self._hash(X)
        self._tables = []
        for t in range(self.n_tables):
            table: dict[bytes, list[int]] = {}
            keys = np.ascontiguousarray(hashes[:, t, :])
            for row in range(len(X)):
                key = keys[row].tobytes()
                table.setdefault(key, []).append(row)
            self._tables.append(table)
        return self

    def candidates(self, query: np.ndarray) -> np.ndarray:
        """Union of the query's buckets across tables (internal rows)."""
        if self._X is None:
            raise RuntimeError("fit before searching")
        q = check_vector(query, "query", dim=self._X.shape[1])
        h = self._hash(q[np.newaxis, :])[0]
        rows: set[int] = set()
        for t in range(self.n_tables):
            rows.update(self._tables[t].get(h[t].tobytes(), ()))
        return np.fromiter(rows, dtype=np.int64, count=len(rows))

    def knn_search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN: rank the colliding candidates by true L2."""
        check_positive_int(k, "k")
        cand = self.candidates(query)
        if len(cand) == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        q = np.asarray(query, dtype=np.float32).ravel()
        d = self._metric.one_to_many(q, self._X[cand])
        self.n_dist_evals += len(cand)
        order = np.lexsort((self._ids[cand], d))[:k]
        return np.asarray(d[order], dtype=np.float64), self._ids[cand][order]

    def selectivity(self, queries: np.ndarray) -> float:
        """Mean fraction of the dataset scanned per query."""
        queries = check_matrix(queries, "queries")
        fracs = [len(self.candidates(q)) / max(len(self), 1) for q in queries]
        return float(np.mean(fracs))
