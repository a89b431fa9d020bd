"""The HNSW index: construction and search, on flat array storage.

Follows Malkov & Yashunin's Algorithms 1 (INSERT), 2 (SEARCH-LAYER),
4 (SELECT-NEIGHBORS-HEURISTIC) and 5 (K-NN-SEARCH).  Distance evaluations
are counted in ``self.n_dist_evals`` (monotone counter) so callers — the
simulated workers — can charge exact virtual time for the work an operation
performed:

    before = index.n_dist_evals
    dists, ids = index.knn_search(q, k)
    evals = index.n_dist_evals - before

Storage layout (the perf-critical part; see docs/performance.md):

- points are one float32 matrix ``_X`` of shape (capacity, dim);
- adjacency is CSR-with-fixed-stride: per level, an int32 matrix
  ``_nbrs[lv]`` of shape (capacity, limit+1) plus an int32 count vector
  ``_cnts[lv]``, where ``limit`` is M0 on layer 0 and M above.  A node's
  neighbor list is the slice ``_nbrs[lv][node, :_cnts[lv][node]]`` — no
  dict lookups, no list objects, and the +1 slot holds the transient
  over-full list between a link append and the ``_shrink`` that follows;
- the visited set of SEARCH-LAYER is an epoch-stamped int64 array
  ``_visit_stamp``: a node is visited iff its stamp equals the current
  search's epoch, so "clearing" the set is one integer increment instead
  of allocating a fresh ``set`` per search (int64 so the stamp can never
  wrap back onto a live epoch);
- membership of a node in layer ``lv`` is simply ``_node_level[node] >= lv``.

The traversal loops run on plain :mod:`heapq` lists of ``(dist, id)``
tuples — the same tuple ordering as :class:`~repro.utils.heaps.MinHeap` /
``MaxHeap``, so pop order and tie-breaking are unchanged — and convert each
kernel result once with ``.tolist()`` instead of calling ``float()``/
``int()`` per element.  The dict-based pre-refactor implementation survives
as :class:`~repro.hnsw.reference.ReferenceHnswIndex`, and the equivalence
tests pin this backend to it bit for bit (same distances, same ids, same
``n_dist_evals``).

Two configurations run these algorithms.  Where ``_hotpath.c`` passes its
self-checks (:mod:`repro.hnsw.native`), ``add`` / ``add_items`` and both
searches are one C call each, and the speed work — the incremental link
shrink above all — lives there.  Everywhere else the python methods below
run, and they are the plain algorithm on purpose: one numpy kernel call
per step, a full re-selection per shrink.  They are the fallback and the
oracle the compiled entries are held bit-equal to, not a second tuned
implementation.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from heapq import heapify, heappop, heappush, heapreplace
from typing import Sequence

import numpy as np

from repro.hnsw.kernels import fast_kernel_for, fast_self_pairwise_for, fast_self_row_for
from repro.hnsw.native import SearchDesc, native_build_for, native_search_layer_for
from repro.hnsw.params import HnswParams
from repro.hnsw.select import select_neighbors, select_neighbors_rows
from repro.metrics import Metric, get_metric
from repro.utils.validation import (
    check_filter_mask,
    check_matrix,
    check_positive_int,
    check_vector,
)

__all__ = ["HnswIndex", "SearchRing", "StagedInsert"]

#: number of int64 fields in the saved ``meta`` array (full param set);
#: legacy files carry only the first 6 (see ``load``)
_META_LEN = 10
#: ``meta`` slots of selection switches this index no longer has, with the
#: one value it implements: 4 the diversity heuristic (1), 7 Alg. 4's
#: extendCandidates (0), 8 keepPrunedConnections (1).  ``save`` writes
#: these values, and ``load`` refuses a graph built with any other, since
#: ``add`` could not continue it alike
_META_FIXED = {4: 1, 7: 0, 8: 1}


class StagedInsert:
    """A compiled bulk insert staged by :meth:`HnswIndex.stage_items`.

    ``run`` is the one ``hnsw_insert_batch`` call.  It touches only the
    index's buffers and ctypes drops the GIL around it, so it may run on
    another thread — as long as nothing uses the index until ``finish``,
    which reads the call's entry point, visit epoch and counters back into
    the index on the index's own thread.  ``run`` is a no-op for an empty
    batch.
    """

    __slots__ = ("_index", "_args", "_io", "_levels")

    def __init__(
        self,
        index: HnswIndex,
        args: tuple | None = None,
        io: np.ndarray | None = None,
        levels: np.ndarray | None = None,
    ) -> None:
        self._index = index
        self._args = args
        self._io = io
        self._levels = levels  # ``args`` holds its address

    def run(self) -> None:
        if self._args is not None:
            self._index._native_build.hnsw_insert_batch(*self._args)

    def finish(self) -> None:
        if self._io is not None:
            self._index._finish_insert(self._io)


class SearchRing:
    """Compiled K-NN-SEARCHes queued on a ``_hotpath.c`` ring and answered
    into an arena of the ring's own.

    :meth:`stage` queues the search of ``nq`` float32 rows at an address,
    read in place (they must stay alive until the search is collected).
    :meth:`collect` returns once it ran — on the host thread :meth:`serve`
    started, or, without one, run there and then — and leaves the answer
    in the arena: padded (nq, k) D and I rows and an (nq, 2) row of
    evaluations and results per query.  The arena is blocks of ``rows``
    rows, a new one taken when the last is full and none reused (unless
    :meth:`rewind` says so), so an answer is read in place and stays
    valid as long as anyone holds it.

    A search reads its index's graph and writes its visited array and
    heaps, so while a thread serves a ring every compiled search of its
    indexes goes through it; one thread stages and collects.
    """

    __slots__ = (
        "_lib", "_ring", "_free", "_k", "_ef", "_rows", "_block", "_next", "_end", "_thread",
        "__weakref__",
    )

    def __init__(self, lib, k: int, ef: int, rows: int, slots: int = 1) -> None:
        ring = lib.search_ring_new(slots)
        if not ring:
            raise MemoryError("no memory for a search ring")
        self._lib, self._ring = lib, ring
        #: frees the C ring once, at :meth:`close` or when the ring dies
        self._free = weakref.finalize(self, lib.search_ring_free, ring)
        self._thread: threading.Thread | None = None
        self._k, self._ef, self._rows = k, ef, rows
        self._block: tuple | None = None
        self._next = self._end = 0

    def rewind(self, k: int, ef: int, rows: int) -> None:
        """Answer the next search from the first row of the arena block,
        over the answers there, for ``k`` and ``ef``: the caller copies
        each answer out before it stages the next.  A new block of
        ``rows`` rows is taken unless the block is of ``k`` and ``ef`` and
        holds that many."""
        if k != self._k or ef != self._ef or rows > self._end:
            self._k, self._ef, self._rows = k, ef, rows
            self._end = 0
        self._next = 0

    def serve(self, cpu: int) -> None:
        """Run the staged searches on a host thread, which starts on
        ``cpu`` and is then free to move (``search_ring_serve``)."""
        self._thread = threading.Thread(
            target=self._lib.search_ring_serve, args=(self._ring, cpu), name="repro-search",
            daemon=True,
        )
        self._thread.start()

    def stage(self, index: HnswIndex, address: int, nq: int, mask: int = 0) -> tuple | None:
        """Queue the search of ``index`` for the ``nq`` rows at ``address``
        under the row mask at address ``mask`` (0: none).  Returns the
        ticket :meth:`collect` takes — ``(seq, first arena row, nq,
        (D, I, stats) block)`` — or None, queueing nothing, when a row is
        not finite."""
        row = self._next
        if row + nq > self._end:
            self._take_block(nq)
            row = 0
        cached = index._native_search_cache
        if cached is None:
            cached = index._native_search_cache = index._search_desc()
        epoch = index._visit_epoch
        seq = self._lib.search_ring_stage(self._ring, cached[1], address, nq, epoch, mask, row)
        if seq < 0:
            return None
        index._visit_epoch = epoch + nq
        self._next = row + nq
        return seq, row, nq, self._block

    def _take_block(self, nq: int) -> None:
        rows, k = max(self._rows, nq), self._k
        raw = np.empty(rows * (2 * k + 2))
        ints = raw.view(np.int64)
        self._block = (
            raw[: rows * k].reshape(rows, k),
            ints[rows * k : 2 * rows * k].reshape(rows, k),
            ints[2 * rows * k :].reshape(rows, 2),
        )
        self._lib.search_ring_arena(self._ring, raw.ctypes.data, rows, k, self._ef)
        self._next, self._end = 0, rows

    def collect(self, index: HnswIndex, ticket: tuple) -> list[list[int]]:
        """Return once the search of ``ticket`` ran, with its rows'
        ``[evaluations, results]``, and add the evaluations to ``index``;
        the answer is in the ticket's block, from its first row on."""
        seq, row, nq, block = ticket
        self._lib.search_ring_collect(self._ring, seq)
        stats = block[2][row : row + nq].tolist()
        index.n_dist_evals += sum(e for e, _ in stats)
        return stats

    def close(self) -> None:
        """Stop and join the thread, if one serves, and free the ring;
        what was staged and not collected is not searched."""
        if self._thread is not None:
            self._lib.search_ring_close(self._ring)
            self._thread.join()
        self._free()


class HnswIndex:
    """Hierarchical navigable small-world graph over a point matrix.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    params:
        :class:`HnswParams` (M, ef_construction, ...).
    metric:
        Metric name or instance; any dissimilarity works (HNSW does not
        need the triangle inequality).
    capacity:
        Initial number of point slots; the buffers double on demand, so
        passing the final size up front avoids regrow copies during a
        bulk build.
    """

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
        cap = max(capacity, 16)
        self._X = np.empty((cap, dim), dtype=np.float32)
        self._ext = np.empty(cap, dtype=np.int64)
        self._node_level = np.empty(cap, dtype=np.int32)
        self._visit_stamp = np.zeros(cap, dtype=np.int64)
        self._visit_epoch = 0
        self._n = 0
        #: per-level adjacency: _nbrs[lv] is (capacity, limit+1) int32,
        #: _cnts[lv] is (capacity,) int32; see the module docstring
        self._nbrs: list[np.ndarray] = []
        self._cnts: list[np.ndarray] = []
        self._entry: int | None = None
        self._rng = np.random.default_rng(np.random.SeedSequence([self.params.seed, 0x45F]))
        #: monotone distance-evaluation counter
        self.n_dist_evals = 0
        #: monotone link-shrink counter (one per over-full list re-selection)
        self.n_shrink_ops = 0
        # Fast float32 kernels for the metrics whose formula we can inline;
        # avoids the generic path's float64 conversion copy on every call,
        # which dominates build time (profiling-driven, per the HPC guides).
        self._kernel = fast_kernel_for(self.metric.name) or self.metric.one_to_many
        self._fast_self_pairwise = fast_self_pairwise_for(self.metric.name)
        self._fast_self_row = fast_self_row_for(self.metric.name)
        # Compiled traversal (see _hotpath.c): enabled only after a runtime
        # self-check proves the C distance kernel bit-identical to the
        # numpy kernels for this metric at this width; otherwise None and
        # every traversal stays on the python path below.
        self._native = native_search_layer_for(self.metric.name, dim)
        self._native_sqrt = 1 if self.metric.name == "l2" else 0
        self._native_graph_cache: tuple | None = None
        #: the ``SearchDesc`` every compiled search starts from (graph,
        #: external ids, top level, entry point); dropped with the graph
        #: cache and by every insert
        self._native_search_cache: tuple | None = None
        # Compiled INSERT (greedy descent + beam search + selection +
        # shrink in one C call per batch): additionally requires the
        # cdist-compatible double kernel to pass its self-check.
        self._native_build = native_build_for(self.metric.name, dim)
        #: per level, what the compiled shrink recorded about each node's
        #: last selection (layout at ``shrink_node`` in ``_hotpath.c``):
        #: 1 + 2 * limit int32 per node, zero = nothing recorded.  Never saved.
        self._shrink_state: list[np.ndarray] = []
        #: compiled shrinks that fell back to a full re-selection (C's
        #: ``full_shrinks`` counter; the python path re-selects always)
        self._n_full_shrinks = 0
        #: the ring ``knn_search`` / ``knn_search_batch`` stage the compiled
        #: search on, opened by the first, and the float32 rows (with their
        #: address) their queries are copied into for it
        self._search_ring: SearchRing | None = None
        self._search_queries: tuple[np.ndarray, int] | None = None

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def max_level(self) -> int:
        """Top layer index (-1 when empty)."""
        return len(self._nbrs) - 1

    @property
    def entry_point(self) -> int | None:
        return self._entry

    @property
    def native_search_active(self) -> bool:
        """True when the compiled SEARCH-LAYER passed its bit-identity gate."""
        return self._native is not None

    @property
    def native_build_active(self) -> bool:
        """True when the compiled INSERT path passed its bit-identity gates."""
        return self._native_build is not None

    def neighbors(self, node: int, level: int) -> list[int]:
        """Adjacency list of ``node`` at ``level`` (internal ids)."""
        if int(self._node_level[node]) < level:
            return []
        cnt = int(self._cnts[level][node])
        return self._nbrs[level][node, :cnt].tolist()

    def nodes_at_level(self, level: int) -> np.ndarray:
        """Internal ids of the nodes present on ``level`` (ascending)."""
        return np.flatnonzero(self._node_level[: self._n] >= level)

    def node_level(self, node: int) -> int:
        """Top layer ``node`` appears on."""
        return int(self._node_level[node])

    def external_id(self, node: int) -> int:
        return int(self._ext[node])

    def vector(self, node: int) -> np.ndarray:
        return self._X[node]

    @property
    def points(self) -> np.ndarray:
        """View of the stored points (n, dim)."""
        return self._X[: self._n]

    # -- distance helpers ------------------------------------------------------

    def _dist_one(self, q: np.ndarray, node: int) -> float:
        return float(self._dist_many(q, slice(node, node + 1))[0])

    def _dist_many(self, q: np.ndarray, nodes: np.ndarray | slice) -> np.ndarray:
        sub = self._X[nodes]
        self.n_dist_evals += len(sub)
        return self._kernel(q, sub)

    # -- construction ------------------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._X.shape[0]
        if need <= cap:
            return
        cap = max(need, cap * 2)
        n = self._n
        self._native_graph_cache = self._native_search_cache = None  # every buffer below moves
        for name in ("_X", "_ext", "_node_level"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        # stamps start at 0; epochs start at 1, so new slots read unvisited
        stamp = np.zeros(cap, dtype=np.int64)
        stamp[:n] = self._visit_stamp[:n]
        self._visit_stamp = stamp
        for lv in range(len(self._nbrs)):
            nbrs = np.empty((cap, self._nbrs[lv].shape[1]), dtype=np.int32)
            nbrs[:n] = self._nbrs[lv][:n]
            cnts = np.zeros(cap, dtype=np.int32)
            cnts[:n] = self._cnts[lv][:n]
            self._nbrs[lv], self._cnts[lv] = nbrs, cnts
        for lv, old in enumerate(self._shrink_state):
            self._shrink_state[lv] = np.zeros((cap, old.shape[1]), dtype=np.int32)
            self._shrink_state[lv][:n] = old[:n]

    def _ensure_level(self, level: int) -> None:
        cap = self._X.shape[0]
        while len(self._nbrs) <= level:
            limit = self.params.M0 if len(self._nbrs) == 0 else self.params.M
            self._nbrs.append(np.empty((cap, limit + 1), dtype=np.int32))
            self._cnts.append(np.zeros(cap, dtype=np.int32))
            if self._native_build is not None:
                self._shrink_state.append(np.zeros((cap, 1 + 2 * limit), dtype=np.int32))
            self._native_graph_cache = self._native_search_cache = None  # the level tables grew

    def _sample_level(self) -> int:
        if self.params.flat:
            return 0  # plain NSW: everything lives on one layer
        u = self._rng.random()
        # skiplist-style exponential promotion, mL = 1/ln(M)
        return int(-np.log(max(u, 1e-300)) * self.params.level_mult)

    def _sample_levels(self, n: int) -> np.ndarray:
        """``n`` levels from one RNG call: the draws and values of ``n``
        successive :meth:`_sample_level` calls, bit for bit."""
        if self.params.flat:
            return np.zeros(n, dtype=np.int32)
        u = self._rng.random(n)
        return (-np.log(np.maximum(u, 1e-300)) * self.params.level_mult).astype(np.int32)

    def add(self, vector: np.ndarray, ext_id: int | None = None) -> int:
        """Insert one point; returns its internal id."""
        q = check_vector(vector, "vector", dim=self.dim)
        self._native_search_cache = None  # the search descriptor holds the entry point
        if self._native_build is not None:
            node = self._n
            self._grow(node + 1)
            levels = np.array([self._sample_level()], dtype=np.int32)
            insert = self._prepare_insert(
                q[np.newaxis, :], None if ext_id is None else [ext_id], levels
            )
            insert.run()
            insert.finish()
            return node
        return self._add_prepared(q, ext_id)

    def _add_prepared(self, q: np.ndarray, ext_id: int | None) -> int:
        """INSERT (paper Alg. 1) for an already-validated float32 vector."""
        self._grow(self._n + 1)
        node = self._n
        self._X[node] = q
        self._n += 1
        self._ext[node] = int(ext_id) if ext_id is not None else node

        level = self._sample_level()
        self._node_level[node] = level
        self._ensure_level(level)

        if self._entry is None:
            self._entry = node
            return node

        ep = self._entry
        top = int(self._node_level[ep])
        qf = self._X[node]

        # phase 1: greedy descent through layers above the insert level
        ep_dist = self._dist_one(qf, ep)
        for lv in range(top, level, -1):
            ep, ep_dist = self._greedy_step(qf, ep, ep_dist, lv)

        # phase 2: beam search + connect on layers min(top, level)..0
        efc = self.params.ef_construction
        for lv in range(min(top, level), -1, -1):
            w = self._search_layer(qf, [(ep_dist, ep)], efc, lv)
            limit = self.params.M0 if lv == 0 else self.params.M
            chosen = self._select(w, limit)
            nbrs, cnts = self._nbrs[lv], self._cnts[lv]
            if chosen:
                nbrs[node, : len(chosen)] = [c for _, c in chosen]
            cnts[node] = len(chosen)
            for _, c in chosen:
                cc = int(cnts[c])
                nbrs[c, cc] = node
                cc += 1
                cnts[c] = cc
                if cc > limit:
                    self._shrink(c, lv, limit)
            best = min(chosen) if chosen else (ep_dist, ep)
            ep_dist, ep = best

        if level > top:
            self._entry = node
        return node

    def add_items(self, X: np.ndarray, ids: Sequence[int] | None = None) -> None:
        """Bulk insert (row order preserved).

        ``check_matrix`` validates the whole matrix once; the per-row
        ``check_vector`` of :meth:`add` (dtype check + contiguity copy per
        row) is skipped entirely.  With the compiled insert this is
        :meth:`stage_items` and its two steps run inline.
        """
        if self._native_build is not None:
            insert = self.stage_items(X, ids)
            insert.run()
            insert.finish()
            return
        X = self._check_items(X, ids)
        for i in range(X.shape[0]):
            self._add_prepared(X[i], None if ids is None else ids[i])

    def stage_items(self, X: np.ndarray, ids: Sequence[int] | None = None) -> StagedInsert:
        """:meth:`add_items` for the compiled insert, split where it may
        cross threads.

        Validates, stores the points and samples their levels now; the
        returned :class:`StagedInsert`'s ``run`` is the compiled call alone
        and its ``finish`` completes the insert.  Raises ``RuntimeError``
        when this index has no compiled insert (``native_build_active``).
        """
        if self._native_build is None:
            raise RuntimeError("this index has no compiled insert to stage")
        X = self._check_items(X, ids)
        return self._prepare_insert(X, ids, self._sample_levels(X.shape[0]))

    def _check_items(self, X: np.ndarray, ids: Sequence[int] | None) -> np.ndarray:
        """A bulk insert's validated float32 matrix, with room made for it."""
        X = check_matrix(X, "X")
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {X.shape[1]}")
        if ids is not None and len(ids) != X.shape[0]:
            raise ValueError(f"{len(ids)} ids for {X.shape[0]} points")
        self._grow(self._n + X.shape[0])
        self._native_search_cache = None  # the search descriptor holds the entry point
        return X

    def _prepare_insert(
        self, X: np.ndarray, ids: Sequence[int] | None, levels: np.ndarray
    ) -> StagedInsert:
        """Stage a bulk INSERT for the compiled batch helper (bit-identical
        by contract).

        The python side stays the single source of truth: it stores the
        points and their sampled ``levels`` (one RNG draw per point, in
        insert order — exactly the draws the sequential path would make),
        sizes the per-level adjacency, and hands the C helper raw buffer
        addresses; the helper returns the updated entry point, visit
        epoch, and the logical eval/shrink counts in ``io``, which
        :meth:`StagedInsert.finish` reads back.
        """
        n0 = self._n
        n_new = X.shape[0]
        if n_new == 0:
            return StagedInsert(self)
        self._X[n0 : n0 + n_new] = X
        if ids is None:
            self._ext[n0 : n0 + n_new] = np.arange(n0, n0 + n_new)
        else:
            self._ext[n0 : n0 + n_new] = [int(i) for i in ids]
        self._node_level[n0 : n0 + n_new] = levels
        self._n = n0 + n_new
        self._ensure_level(int(levels.max()))

        graph, _, build, _ = self._native_graph()
        io = np.array(
            [self._visit_epoch, -1 if self._entry is None else self._entry, 0, 0, 0],
            dtype=np.int64,
        )
        args = (
            *graph,
            self._node_level.ctypes.data,
            n0,
            n_new,
            levels.ctypes.data,
            self.params.M,
            self.params.M0,
            self.params.ef_construction,
            *build,
            io.ctypes.data,
        )
        return StagedInsert(self, args, io, levels)

    def _finish_insert(self, io: np.ndarray) -> None:
        self._visit_epoch, self._entry = int(io[0]), int(io[1])
        self.n_dist_evals += int(io[2])
        self.n_shrink_ops += int(io[3])
        self._n_full_shrinks += int(io[4])

    def _native_graph(self) -> tuple:
        """``(graph, ext_addr, build, keep)`` for the compiled entries.

        ``graph`` is the ``graph_t`` of ``_hotpath.c`` — buffer addresses,
        the per-level pointer tables, the two search heaps and the sqrt
        flag: the insert entry's argument prefix, and the head of the
        search's ``SearchDesc``.  It is built once and reused
        until a buffer is reallocated (``_grow`` or a new level drop the
        cache): a small partition answers in less time than taking
        ``.ctypes.data`` of a dozen arrays costs.  The heaps are sized by
        capacity, which bounds every possible push (a node is pushed at
        most once per search).  ``build`` is what ``hnsw_insert_batch``
        takes besides: the shrink-state table and the selection scratch
        (``select_ws_t`` in the C file), kept here so a one-row ``add``
        does not allocate and zero it per call.
        """
        cached = self._native_graph_cache
        if cached is None:
            cap = self._X.shape[0]
            heaps = (
                np.empty(cap, dtype=np.float64),
                np.empty(cap, dtype=np.int32),
                np.empty(cap, dtype=np.float64),
                np.empty(cap, dtype=np.int32),
            )
            tables = np.array(
                [
                    [a.ctypes.data for a in self._nbrs],
                    [a.shape[1] for a in self._nbrs],
                    [a.ctypes.data for a in self._cnts],
                ],
                dtype=np.int64,
            )
            graph = (
                self._X.ctypes.data,
                self.dim,
                *(row.ctypes.data for row in tables),
                self._visit_stamp.ctypes.data,
                *(h.ctypes.data for h in heaps),
                self._native_sqrt,
            )
            build, keep = (), [heaps, tables]
            if self._native_build is not None:
                states = np.array([a.ctypes.data for a in self._shrink_state], dtype=np.int64)
                # any candidate list (the efc beam or an over-full neighbor
                # list) fits maxn; kept rows come in whole blocks of 8
                deg1 = max(self.params.M, self.params.M0) + 1
                maxn = max(self.params.ef_construction, deg1 + 1)
                ws_d = np.zeros(maxn + 2 * deg1 + (deg1 + 6) // 8 * 8 * self.dim)
                ws_i = np.empty(2 * maxn + 4 * deg1, dtype=np.int32)
                build = (states.ctypes.data, ws_d.ctypes.data, ws_i.ctypes.data, maxn)
                keep += [states, ws_d, ws_i]
            # ``keep``: the arrays ride along so their addresses stay alive
            cached = (graph, self._ext.ctypes.data, build, keep)
            self._native_graph_cache = cached
        return cached

    def _shrink(self, node: int, level: int, limit: int) -> None:
        """Re-select ``node``'s over-full neighbor list down to ``limit`` links.

        The plain algorithm: query distances from ``node`` to every link,
        then :meth:`_select` over them.  ``shrink_node`` in ``_hotpath.c``
        instead folds the one appended link into a record of the previous
        selection (docs/performance.md, "The incremental shrink"); this
        full re-selection is what it is checked against, and both charge
        ``n_dist_evals`` the same ``cnt`` query distances plus the
        ``cnt``-candidate cross matrix.
        """
        cnt = int(self._cnts[level][node])
        row = self._nbrs[level][node]
        self.n_shrink_ops += 1
        nbrs = row[:cnt]
        dists = self._dist_many(self._X[node], nbrs)
        cands = list(zip(dists.tolist(), nbrs.tolist()))
        chosen = self._select(cands, limit)
        for j, (_, c) in enumerate(chosen):
            row[j] = c
        self._cnts[level][node] = len(chosen)

    def _select(self, candidates: list[tuple[float, int]], m: int) -> list[tuple[float, int]]:
        cands = sorted(candidates)
        ids = np.array([c for _, c in cands], dtype=np.int64)
        n = len(ids)
        self.n_dist_evals += n * (n - 1) // 2
        sub = self._X[ids]
        row_kernel = self._fast_self_row
        if row_kernel is not None and n >= 64:
            # Large candidate sets (the per-insert ef_construction beam)
            # keep only ~M of n rows: compute just those, lazily.  The row
            # kernel is bit-identical to the matrix row, and virtual time
            # was already charged for the full n^2/2 above.
            return select_neighbors_rows(cands, m, lambda i: row_kernel(sub, i))
        if self._fast_self_pairwise is not None:
            cross = self._fast_self_pairwise(sub)
        else:
            cross = self.metric.pairwise(sub, sub)
        return select_neighbors(cands, m, cross)

    # -- search ------------------------------------------------------------------

    def _greedy_step(
        self, q: np.ndarray, ep: int, ep_dist: float, level: int
    ) -> tuple[int, float]:
        """Greedy search with beam 1 on one layer (upper-layer descent)."""
        nbrs, cnts = self._nbrs[level], self._cnts[level]
        X = self._X
        kernel = self._kernel
        n_evals = 0
        while True:
            cnt = cnts[ep]
            if not cnt:
                break
            nb = nbrs[ep, :cnt]
            d = kernel(q, X[nb])
            n_evals += int(cnt)
            j = int(np.argmin(d))
            if d[j] < ep_dist:
                ep, ep_dist = int(nb[j]), float(d[j])
            else:
                break
        self.n_dist_evals += n_evals
        return ep, ep_dist

    def _search_layer(
        self,
        q: np.ndarray,
        entry: list[tuple[float, int]],
        ef: int,
        level: int,
        allowed: np.ndarray | None = None,
    ) -> list[tuple[float, int]]:
        """SEARCH-LAYER (HNSW paper Alg. 2): beam search of width ``ef``.

        Returns the result set as (distance, id) pairs sorted closest
        first.  The candidate frontier and the bounded result set are raw
        ``heapq`` lists with the exact tuple ordering of the pre-refactor
        ``MinHeap``/``MaxHeap``; the visited set is the epoch-stamped array.

        ``allowed`` is an optional row mask: filtered results, unfiltered
        frontier.  Non-matching nodes are evaluated and expanded exactly
        like matching ones — they enter the candidate frontier and conduct
        the walk — but only ``allowed`` nodes may enter the bounded result
        set.  Pruning non-matching nodes from the frontier instead would
        disconnect the traversal whenever the matching rows don't form a
        connected subgraph; keeping them preserves the full graph's
        connectivity at the cost of extra evaluations (which
        ``n_dist_evals`` charges normally).  Until ``ef`` matching nodes
        are found the result bound is infinite, so no expansion is cut
        short early.

        This loop is the fallback and the oracle: ``search_layer`` in
        ``_hotpath.c`` is the same loop, mask included, and the
        equivalence tests hold the two bit-equal.
        """
        nbrs, cnts = self._nbrs[level], self._cnts[level]
        X = self._X
        stamp = self._visit_stamp
        self._visit_epoch += 1
        epoch = self._visit_epoch
        kernel = self._kernel
        for _, c in entry:
            stamp[c] = epoch
        candidates = list(entry)
        heapify(candidates)
        results = [(-d, n) for d, n in entry if allowed is None or allowed[n]]
        heapify(results)
        nres = len(results)
        bound = -results[0][0] if nres else np.inf
        n_evals = 0
        while candidates:
            c_dist, c = heappop(candidates)
            full = nres >= ef
            if full and c_dist > bound:
                break
            cnt = cnts[c]
            if not cnt:
                continue
            nb = nbrs[c, :cnt]
            fresh = nb[stamp[nb] != epoch]
            if not fresh.size:
                continue
            stamp[fresh] = epoch
            dists = kernel(q, X[fresh])
            n_evals += fresh.size
            if full:
                # ``bound`` only tightens while the set stays full, so
                # dropping >= bound up front skips exactly the candidates
                # the per-item check below would reject anyway.
                keep = dists < bound
                dlist = dists[keep].tolist()
                nlist = fresh[keep].tolist()
            else:
                dlist = dists.tolist()
                nlist = fresh.tolist()
            for d, n in zip(dlist, nlist):
                if nres >= ef and d >= bound:
                    continue
                heappush(candidates, (d, n))
                if allowed is None or allowed[n]:
                    if nres < ef:
                        heappush(results, (-d, n))
                        nres += 1
                    else:
                        # push + pop of the root: the pushed item is below it
                        heapreplace(results, (-d, n))
                    bound = -results[0][0]
        self.n_dist_evals += n_evals
        return sorted([(-d, n) for d, n in results])

    def knn_search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        *,
        filter: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN; returns (distances, external ids), closest first.

        ``filter``: optional boolean mask over insertion-order rows (which
        equal internal node ids); only unmasked rows may appear in the
        result, but masked rows still conduct the traversal — see
        :meth:`_search_layer`.  ``filter=None`` is bit-identical to the
        unfiltered call.  The row is checked as :meth:`knn_search_batch`
        checks a matrix (:meth:`_query_rows`).
        """
        check_positive_int(k, "k")
        q = np.asarray(query)
        if q.ndim != 1:
            raise ValueError(f"query must be 1-D, got shape {q.shape}")
        D, I, stats = self._search_rows(self._query_rows(q[np.newaxis]), k, ef, filter)
        n = int(stats[0, 1])
        return D[0, :n], I[0, :n]

    def knn_search_batch(
        self,
        Q: np.ndarray,
        k: int,
        ef: int | None = None,
        *,
        filter: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN for a whole query matrix.

        Returns ``(D, I)`` of shape (n_queries, k): row ``i`` holds the
        results for ``Q[i]`` closest first, padded with ``inf`` / ``-1``
        when fewer than ``k`` points exist — always ``float64`` distances
        and ``int64`` ids (the pinned batch-surface dtype contract).
        Each row's traversal — and therefore its results and its
        ``n_dist_evals`` charge — is identical to a
        ``knn_search(Q[i], k, ef, filter=...)`` call; batching only
        amortizes the per-call validation and dispatch, which is what the
        cluster workers exploit (see ``core/worker.py``).
        """
        check_positive_int(k, "k")
        return self._search_rows(self._query_rows(Q), k, ef, filter)[:2]

    def _query_rows(self, Q) -> np.ndarray:
        """``Q`` as a search reads it: a float32 C-contiguous matrix of the
        index's width, converted once if it is not one.  The python path
        validates the values (``check_matrix``); the compiled stage refuses
        a non-finite row itself, so only the shape is checked for it."""
        if self._native is None or not self._n:
            Q = check_matrix(Q, "Q")
        else:
            if type(Q) is not np.ndarray:
                Q = np.asarray(Q, dtype=np.float32)
            if Q.ndim != 2 or not Q.size:
                check_matrix(Q, "Q")  # raises its shape error
        if Q.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {Q.shape[1]}")
        return np.ascontiguousarray(Q, dtype=np.float32)

    def _search_rows(
        self, Q: np.ndarray, k: int, ef: int | None, filter: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """K-NN-SEARCH (paper Alg. 5) for the rows :meth:`_query_rows`
        returned.

        Returns the padded ``(D, I)`` of :meth:`knn_search_batch` and the
        (nq, 2) evaluations and results of each row, fresh arrays the
        caller owns.  With the compiled library this is one search staged
        on the index's ring and collected at once, the calls a query
        call's task searches make, and the answer copied out of the ring's
        one arena block; the rows are staged from a buffer the index keeps,
        whose address is read once (``.ctypes.data`` costs as much as the
        copy of a few rows).  Without it, one :meth:`_search_prepared` per
        row.
        """
        nq = len(Q)
        ef = max(ef or self.params.ef_search, k)
        allowed = None
        if filter is not None:
            allowed = np.ascontiguousarray(check_filter_mask(filter, self._n))
        if self._n and self._native is not None:
            ring = self._search_ring
            if ring is None:
                ring = self._search_ring = SearchRing(self._native, k, ef, nq)
            ring.rewind(k, ef, nq)
            rows = self._search_queries
            if rows is None or len(rows[0]) < nq:
                buf = np.empty((nq, self.dim), dtype=np.float32)
                rows = self._search_queries = buf, buf.ctypes.data
            rows[0][:nq] = Q
            mask = 0 if allowed is None else allowed.ctypes.data
            ticket = ring.stage(self, rows[1], nq, mask)
            if ticket is None:
                raise ValueError("Q contains non-finite values")
            ring.collect(self, ticket)
            D, I, stats = ticket[3]
            D, I, stats = D[:nq].copy(), I[:nq].copy(), stats[:nq].copy()
        else:
            D = np.full((nq, k), np.inf, dtype=np.float64)
            I = np.full((nq, k), -1, dtype=np.int64)
            stats = np.zeros((nq, 2), dtype=np.int64)
            for i in range(nq if self._n else 0):
                before = self.n_dist_evals
                d, ids = self._search_prepared(Q[i], k, ef, allowed)
                D[i, : len(d)] = d
                I[i, : len(ids)] = ids
                stats[i] = self.n_dist_evals - before, len(d)
        return D, I, stats

    def _search_desc(self) -> tuple:
        """``(desc, desc address, graph)``: the ``SearchDesc`` holding the
        graph's addresses, the external ids, the top level and the entry
        point.  Taking a dozen ``.ctypes.data`` costs more than searching
        a small partition, so this runs once per reallocation or insert."""
        graph = self._native_graph()
        desc = SearchDesc(
            *graph[0],
            None,  # state_ptrs: the insert path's
            graph[1],
            self.max_level,
            self._entry,
        )
        # ``graph`` rides along so the arrays the descriptor points at live
        return desc, ctypes.addressof(desc), graph

    def _search_prepared(
        self, q: np.ndarray, k: int, ef: int, allowed: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One query of :meth:`_search_rows` on the python path.

        The upper-layer greedy descent is unfiltered (it only picks the
        layer-0 entry point, which need not match); the layer-0 beam
        carries the mask.
        """
        ep = self._entry
        ep_dist = self._dist_one(q, ep)
        for lv in range(self.max_level, 0, -1):
            ep, ep_dist = self._greedy_step(q, ep, ep_dist, lv)
        pairs = self._search_layer(q, [(ep_dist, ep)], ef, 0, allowed)[:k]
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        ids = np.array([self._ext[p[1]] for p in pairs], dtype=np.int64)
        return d, ids

    # -- serialization --------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to an ``.npz`` file (points, links, levels, params).

        The ``meta`` record carries the full parameter set — including
        ``M0`` and ``flat`` — so a reloaded index shrinks and selects
        exactly like the saved one.
        """
        flat_links: list[np.ndarray] = []
        link_index: list[tuple[int, int, int]] = []  # (level, node, count)
        for lv in range(len(self._nbrs)):
            cnts = self._cnts[lv]
            nbrs = self._nbrs[lv]
            for node in self.nodes_at_level(lv).tolist():
                cnt = int(cnts[node])
                link_index.append((lv, node, cnt))
                flat_links.append(nbrs[node, :cnt].astype(np.int64))
        np.savez_compressed(
            path,
            X=self._X[: self._n],
            ext_ids=self._ext[: self._n],
            node_level=self._node_level[: self._n].astype(np.int64),
            entry=np.asarray([-1 if self._entry is None else self._entry]),
            link_index=np.asarray(link_index, dtype=np.int64).reshape(-1, 3),
            links=np.concatenate(flat_links) if flat_links else np.empty(0, dtype=np.int64),
            meta=np.asarray(
                [
                    self.dim,
                    self.params.M,
                    self.params.ef_construction,
                    self.params.ef_search,
                    _META_FIXED[4],
                    self.params.seed,
                    self.params.M0,
                    _META_FIXED[7],
                    _META_FIXED[8],
                    int(self.params.flat),
                ],
                dtype=np.int64,
            ),
        )

    @classmethod
    def load(cls, path: str, metric: str | Metric = "l2") -> "HnswIndex":
        with np.load(path) as data:
            meta, X, ext_ids, levels, entry, link_index, links = (
                data[name]
                for name in ("meta", "X", "ext_ids", "node_level", "entry", "link_index", "links")
            )
        kwargs = dict(
            M=int(meta[1]),
            ef_construction=int(meta[2]),
            ef_search=int(meta[3]),
            seed=int(meta[5]),
        )
        if len(meta) >= _META_LEN:
            kwargs.update(M0=int(meta[6]), flat=bool(meta[9]))
        # else: legacy 6-field file — fall back to the params defaults
        params = HnswParams(**kwargs)
        n = len(X)
        entry = int(entry[0])
        lvs, nodes, counts = link_index.T
        top = int(levels.max()) if len(levels) else -1
        # a file is outside input, and the compiled search follows link ids
        # without bounds checks: refuse what ``save`` cannot have written
        for name, ok in (
            ("meta", int(meta[0]) == X.shape[1]
             and all(int(meta[i]) == v for i, v in _META_FIXED.items() if i < len(meta))),
            ("ext_ids", len(ext_ids) == n),
            ("node_level", len(levels) == n),
            ("entry", 0 <= entry < n or (n == 0 and entry < 0)),
            ("link_index", np.all((0 <= lvs) & (lvs <= top) & (0 <= nodes) & (nodes < n))
             and np.all((0 <= counts) & (counts <= np.where(lvs == 0, params.M0, params.M)))),
            ("links", int(counts.sum()) == len(links) and np.all((0 <= links) & (links < n))),
        ):
            if not ok:
                raise ValueError(f"{path}: not a saved HnswIndex: bad {name!r} array")
        idx = cls(dim=int(meta[0]), params=params, metric=metric, capacity=n)
        idx._X[:n] = X
        idx._n = n
        idx._ext[:n] = ext_ids
        idx._node_level[:n] = levels
        idx._entry = None if entry < 0 else entry
        idx._ensure_level(top)
        pos = 0
        for lv, node, count in link_index.tolist():
            idx._nbrs[lv][node, :count] = links[pos : pos + count]
            idx._cnts[lv][node] = count
            pos += count
        return idx
