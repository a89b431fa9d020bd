"""Reference HNSW implementation: the dict-based pre-refactor backend.

This is the original ``HnswIndex`` hot path — per-level ``dict[int,
list[int]]`` adjacency, a Python ``set`` for the visited set, and the
``MinHeap``/``MaxHeap`` wrappers — kept as a test oracle for the flat
array backend in :mod:`repro.hnsw.index`.  The equivalence tests build the
same dataset into both and assert bit-identical distances, ids and
``n_dist_evals``; any hot-path "optimization" that changes a single
comparison shows up as a hard failure there, not as a recall drift.

It shares :mod:`repro.hnsw.kernels` and :mod:`repro.hnsw.select` with the
production backend so the arithmetic is identical by construction; only
the data structures differ.  Deliberately unoptimized, unfiltered,
one query per call and without serialization — use
:class:`~repro.hnsw.index.HnswIndex` for anything but tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hnsw.kernels import fast_kernel_for, fast_self_pairwise_for
from repro.hnsw.params import HnswParams
from repro.hnsw.select import select_heuristic, select_simple
from repro.metrics import Metric, get_metric
from repro.utils.heaps import MaxHeap, MinHeap
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["ReferenceHnswIndex"]


class ReferenceHnswIndex:
    """Dict-of-lists HNSW graph; the flat backend's ground truth."""

    def __init__(
        self,
        dim: int,
        params: HnswParams | None = None,
        metric: str | Metric = "l2",
        capacity: int = 1024,
    ) -> None:
        check_positive_int(dim, "dim")
        self.dim = dim
        self.params = params or HnswParams()
        self.metric = get_metric(metric)
        self._X = np.empty((max(capacity, 16), dim), dtype=np.float32)
        self._ext_ids: list[int] = []
        self._n = 0
        #: per-level adjacency: _links[level][node] -> list[int]
        self._links: list[dict[int, list[int]]] = []
        self._node_level: list[int] = []
        self._entry: int | None = None
        self._rng = np.random.default_rng(np.random.SeedSequence([self.params.seed, 0x45F]))
        #: monotone distance-evaluation counter
        self.n_dist_evals = 0
        self._fast_kernel = fast_kernel_for(self.metric.name)
        self._fast_self_pairwise = fast_self_pairwise_for(self.metric.name)

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def max_level(self) -> int:
        """Top layer index (-1 when empty)."""
        return len(self._links) - 1

    @property
    def entry_point(self) -> int | None:
        return self._entry

    def neighbors(self, node: int, level: int) -> list[int]:
        """Adjacency list of ``node`` at ``level`` (internal ids)."""
        return list(self._links[level].get(node, ()))

    def external_id(self, node: int) -> int:
        return self._ext_ids[node]

    @property
    def points(self) -> np.ndarray:
        """View of the stored points (n, dim)."""
        return self._X[: self._n]

    # -- distance helpers ------------------------------------------------------

    def _dist_one(self, q: np.ndarray, node: int) -> float:
        self.n_dist_evals += 1
        if self._fast_kernel is not None:
            return float(self._fast_kernel(q, self._X[node : node + 1])[0])
        return float(self.metric.one_to_many(q, self._X[node : node + 1])[0])

    def _dist_many(self, q: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        self.n_dist_evals += len(nodes)
        if self._fast_kernel is not None:
            return self._fast_kernel(q, self._X[nodes])
        return self.metric.one_to_many(q, self._X[nodes])

    def _dist_between(self, node: int, others: np.ndarray) -> np.ndarray:
        self.n_dist_evals += len(others)
        if self._fast_kernel is not None:
            return self._fast_kernel(self._X[node], self._X[others])
        return self.metric.one_to_many(self._X[node], self._X[others])

    def _cross_dists(self, ids: np.ndarray) -> np.ndarray:
        self.n_dist_evals += len(ids) * (len(ids) - 1) // 2
        sub = self._X[ids]
        if self._fast_self_pairwise is not None:
            return self._fast_self_pairwise(sub)
        return self.metric.pairwise(sub, sub)

    # -- construction ------------------------------------------------------------

    def _grow(self, need: int) -> None:
        if need <= self._X.shape[0]:
            return
        cap = max(need, self._X.shape[0] * 2)
        newX = np.empty((cap, self.dim), dtype=np.float32)
        newX[: self._n] = self._X[: self._n]
        self._X = newX

    def _sample_level(self) -> int:
        if self.params.flat:
            return 0
        u = self._rng.random()
        return int(-np.log(max(u, 1e-300)) * self.params.level_mult)

    def add(self, vector: np.ndarray, ext_id: int | None = None) -> int:
        """Insert one point; returns its internal id."""
        q = check_vector(vector, "vector", dim=self.dim)
        self._grow(self._n + 1)
        node = self._n
        self._X[node] = q
        self._n += 1
        self._ext_ids.append(int(ext_id) if ext_id is not None else node)

        level = self._sample_level()
        self._node_level.append(level)
        while len(self._links) <= level:
            self._links.append({})
        for lv in range(level + 1):
            self._links[lv].setdefault(node, [])

        if self._entry is None:
            self._entry = node
            return node

        ep = self._entry
        top = self._node_level[ep]
        qf = self._X[node]

        ep_dist = self._dist_one(qf, ep)
        for lv in range(top, level, -1):
            ep, ep_dist = self._greedy_step(qf, ep, ep_dist, lv)

        efc = self.params.ef_construction
        for lv in range(min(top, level), -1, -1):
            w = self._search_layer(qf, [(ep_dist, ep)], efc, lv)
            m = self.params.M0 if lv == 0 else self.params.M
            chosen = self._select(qf, w.sorted_items(), m, lv)
            self._links[lv][node] = [c for _, c in chosen]
            for dist_qc, c in chosen:
                nbrs = self._links[lv].setdefault(c, [])
                nbrs.append(node)
                limit = self.params.M0 if lv == 0 else self.params.M
                if len(nbrs) > limit:
                    self._shrink(c, lv, limit)
            best = min(chosen) if chosen else (ep_dist, ep)
            ep_dist, ep = best

        if level > top:
            self._entry = node
        return node

    def add_items(self, X: np.ndarray, ids: Sequence[int] | None = None) -> None:
        """Bulk insert (row order preserved)."""
        X = check_matrix(X, "X")
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {X.shape[1]}")
        if ids is not None and len(ids) != X.shape[0]:
            raise ValueError(f"{len(ids)} ids for {X.shape[0]} points")
        for i in range(X.shape[0]):
            self.add(X[i], None if ids is None else ids[i])

    def _shrink(self, node: int, level: int, limit: int) -> None:
        nbrs = np.asarray(self._links[level][node], dtype=np.int64)
        dists = self._dist_between(node, nbrs)
        cands = [(float(d), int(i)) for d, i in zip(dists, nbrs)]
        chosen = self._select(self._X[node], cands, limit, level)
        self._links[level][node] = [c for _, c in chosen]

    def _select(
        self,
        q: np.ndarray,
        candidates: list[tuple[float, int]],
        m: int,
        level: int,
    ) -> list[tuple[float, int]]:
        if not self.params.select_heuristic:
            return select_simple(candidates, m)
        cands = sorted(candidates)
        if self.params.extend_candidates:
            seen = {c for _, c in cands}
            extras: list[int] = []
            links = self._links[level]
            for _, c in list(cands):
                for nb in links.get(c, ()):
                    if nb not in seen:
                        seen.add(nb)
                        extras.append(nb)
            if extras:
                arr = np.asarray(extras, dtype=np.int64)
                for d, i in zip(self._dist_many(q, arr), arr):
                    cands.append((float(d), int(i)))
                cands.sort()
        ids = np.fromiter((c for _, c in cands), dtype=np.int64, count=len(cands))
        cross = self._cross_dists(ids)
        return select_heuristic(cands, m, cross, keep_pruned=self.params.keep_pruned)

    # -- search ------------------------------------------------------------------

    def _greedy_step(
        self, q: np.ndarray, ep: int, ep_dist: float, level: int
    ) -> tuple[int, float]:
        improved = True
        while improved:
            improved = False
            nbrs = self._links[level].get(ep)
            if not nbrs:
                break
            arr = np.asarray(nbrs, dtype=np.int64)
            d = self._dist_many(q, arr)
            j = int(np.argmin(d))
            if d[j] < ep_dist:
                ep, ep_dist = int(arr[j]), float(d[j])
                improved = True
        return ep, ep_dist

    def _search_layer(
        self,
        q: np.ndarray,
        entry: list[tuple[float, int]],
        ef: int,
        level: int,
    ) -> MaxHeap:
        """SEARCH-LAYER (HNSW paper Alg. 2): beam search of width ``ef``."""
        visited = {c for _, c in entry}
        candidates = MinHeap(entry)
        results = MaxHeap(entry)
        links = self._links[level]
        while candidates:
            c_dist, c = candidates.pop()
            if c_dist > results.max_dist() and len(results) >= ef:
                break
            nbrs = links.get(c)
            if not nbrs:
                continue
            fresh = [n for n in nbrs if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            arr = np.asarray(fresh, dtype=np.int64)
            dists = self._dist_many(q, arr)
            bound = results.max_dist()
            for d, n in zip(dists, arr):
                d = float(d)
                if len(results) < ef or d < bound:
                    candidates.push(d, int(n))
                    results.push(d, int(n))
                    if len(results) > ef:
                        results.pop()
                    bound = results.max_dist()
        return results

    def knn_search(
        self, query: np.ndarray, k: int, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN; returns (distances, external ids), closest first."""
        check_positive_int(k, "k")
        q = check_vector(query, "query", dim=self.dim)
        if self._n == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        ef = max(ef or self.params.ef_search, k)
        ep = self._entry
        ep_dist = self._dist_one(q, ep)
        for lv in range(self.max_level, 0, -1):
            ep, ep_dist = self._greedy_step(q, ep, ep_dist, lv)
        w = self._search_layer(q, [(ep_dist, ep)], ef, 0)
        pairs = w.sorted_items()[:k]
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        ids = np.array([self._ext_ids[p[1]] for p in pairs], dtype=np.int64)
        return d, ids
