"""ctypes loader for the compiled HNSW hot paths (``_hotpath.c``).

Two index entries live in the shared object: K-NN-SEARCH for a whole query
matrix in one call, staged on a ``search_ring_*`` ring (what
``knn_search`` / ``knn_search_batch`` run, filtered or not, and what a
query call's task searches run, on a host thread or inline:
:class:`~repro.hnsw.index.SearchRing`), and the full INSERT batch (greedy
descent, beam search, neighbor selection, incremental link shrinking).
The master's VP-skeleton descent shares the library: ``vp_route_approx`` / ``vp_route_exact`` are
what :class:`~repro.vptree.router.PartitionRouter` runs under L2
(:func:`native_route_for`, gated per width by its own float64 self-check
against the router's python distance), and so does the exact top-k scan
of :mod:`repro.metrics.topk` (:func:`native_topk_for`, gated per width
against its numpy reference), and so does the scorer of a VP-selection
tournament round: ``vp_spread_scores`` is what
:func:`repro.vptree.select.spread_scores` runs under L2
(:func:`native_spread_for`, gated per width against
``reference_spread_scores`` on random and {0,1,2}-grid rows, odd and
even sample counts, and more samples than numpy's pairwise-sum block).
All are *optional*
accelerators with a strict bit-identity contract: they are enabled for an
index only when

- a C compiler is available and the shared object builds (compiled once
  per source hash into a per-user temp dir, reused across processes, and
  always with ``-ffp-contract=off``: a fused multiply-add would change
  the rounding the bit-identity contract pins),
- the metric is cdist-backed l2/sqeuclidean (the C kernels are
  width-generic, so any dimensionality qualifies), and
- runtime self-checks **at the index's own width** confirm the C kernels
  match the numpy kernels bit for bit on this machine: the float32
  einsum/sqrt query kernel for search, plus scipy's cdist
  double-accumulation kernel (which the python selection/shrink paths
  use for candidate-pairwise distances) for the insert path.  Results
  are cached per ``(width, do_sqrt)``: a width whose check fails stays on
  python and leaves every other width untouched.

On any failure the index silently stays on the pure-python paths, which
are always correct — the helpers change wall-clock time only, never
results or ``n_dist_evals``.  An index builds either all compiled or all
python (the python INSERT walks the python beam; there is no hybrid), and
the python side is the plain algorithm the C entries are tested against.
Set ``REPRO_HNSW_NO_NATIVE=1`` to force the python paths (``make
test-nonative`` and the second leg of ``make bench-smoke`` run that way).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.metrics.lp import EuclideanMetric, SquaredEuclidean, _l2sq_one_to_many
from repro.metrics.topk import reference_topk

__all__ = [
    "native_search_layer_for",
    "native_build_for",
    "native_route_for",
    "native_topk_for",
    "native_spread_for",
    "RouteDesc",
    "SearchDesc",
    "TopkCall",
    "TopkRows",
]

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_hotpath.c")

_lib = None
_lib_state = "unloaded"  # unloaded -> ready | failed (sticky per process)
_checked: dict[tuple[int, int], bool] = {}
_checked_cdist: dict[tuple[int, int], bool] = {}
_checked_route: dict[int, bool] = {}
_checked_topk: dict[int, bool] = {}
_checked_spread: dict[int, bool] = {}


class RouteDesc(ctypes.Structure):
    """``route_t`` of ``_hotpath.c``: a router's flattened skeleton, its
    query and scratch buffers (addresses), and the evaluation count the
    last routing call wrote back."""

    _fields_ = [
        ("vps", ctypes.c_void_p),
        ("mus", ctypes.c_void_p),
        ("child", ctypes.c_void_p),
        ("dim", ctypes.c_int64),
        ("root", ctypes.c_int64),
        ("q", ctypes.c_void_p),
        ("heap_p", ctypes.c_void_p),
        ("heap_s", ctypes.c_void_p),
        ("heap_n", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
        ("evals", ctypes.c_int64),
    ]


class SearchDesc(ctypes.Structure):
    """``search_t`` of ``_hotpath.c``: one K-NN-SEARCH call — the graph,
    the external ids, the entry point, the query / D / I / stats buffers
    (addresses), and the per-call epoch, ef and nullable row mask."""

    _fields_ = [
        # graph_t: the index's buffers as the insert entry also takes them
        ("X", ctypes.c_void_p),
        ("dim", ctypes.c_int64),
        ("nbrs_ptrs", ctypes.c_void_p),
        ("strides", ctypes.c_void_p),
        ("cnts_ptrs", ctypes.c_void_p),
        ("stamp", ctypes.c_void_p),
        ("cd", ctypes.c_void_p),
        ("ci", ctypes.c_void_p),
        ("rd", ctypes.c_void_p),
        ("ri", ctypes.c_void_p),
        ("do_sqrt", ctypes.c_int32),
        ("state_ptrs", ctypes.c_void_p),  # the insert path's alone
        # the call
        ("ext", ctypes.c_void_p),
        ("max_level", ctypes.c_int64),
        ("entry", ctypes.c_int64),
        ("Q", ctypes.c_void_p),
        ("D", ctypes.c_void_p),
        ("I", ctypes.c_void_p),
        ("stats", ctypes.c_void_p),
        ("nq", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("epoch", ctypes.c_int64),
        ("ef", ctypes.c_int64),
        ("allowed", ctypes.c_void_p),
    ]


class TopkRows(ctypes.Structure):
    """``topk_rows_t`` of ``_hotpath.c``: the point set of an exact top-k
    scan — float32 rows and int64 ids (addresses), count and width."""

    _fields_ = [
        ("X", ctypes.c_void_p),
        ("ids", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("dim", ctypes.c_int64),
    ]


class TopkCall(ctypes.Structure):
    """``topk_call_t`` of ``_hotpath.c``: one scan's float64 query rows
    and (nq, k) D / I outputs (addresses), and the sqrt flag."""

    _fields_ = [
        ("Q", ctypes.c_void_p),
        ("D", ctypes.c_void_p),
        ("I", ctypes.c_void_p),
        ("nq", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("do_sqrt", ctypes.c_int32),
    ]


def _compile_and_load() -> ctypes.CDLL | None:
    """``_hotpath.c`` compiled to a cached shared object and loaded, or
    None when no compiler exists, the compile fails, or the object cannot
    be loaded (argtypes are left to :func:`_load`)."""
    cc = os.environ.get("CC") or shutil.which("gcc") or shutil.which("cc")
    if cc is None or not os.path.exists(_SRC):
        return None
    with open(_SRC, "rb") as fh:
        tag = hashlib.sha256(fh.read()).hexdigest()[:16]
    cache = os.path.join(tempfile.gettempdir(), f"repro-hnsw-{os.getuid()}")
    so = os.path.join(cache, f"_hotpath-{tag}.so")
    if not os.path.exists(so):
        tmp = f"{so}.{os.getpid()}.tmp"
        try:
            os.makedirs(cache, exist_ok=True)
            subprocess.run(
                [cc, "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread", _SRC, "-o", tmp,
                 "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(so)
    except OSError:
        return None


def _load():
    global _lib, _lib_state
    if _lib_state != "unloaded":
        return _lib
    _lib_state = "failed"
    if os.environ.get("REPRO_HNSW_NO_NATIVE"):
        return None
    lib = _compile_and_load()
    if lib is None:
        return None
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    # the insert entry starts with the description of the index's buffers
    # (HnswIndex._native_graph builds it once per reallocation); a search
    # starts from a SearchDesc holding the same fields
    graph = [
        p,  # X
        i64,  # dim
        p,  # nbrs_ptrs
        p,  # strides
        p,  # cnts_ptrs
        p,  # stamp
        p,  # cd
        p,  # ci
        p,  # rd
        p,  # ri
        i32,  # do_sqrt
    ]
    # the search ring (HnswIndex.SearchRing): a search is staged from
    # integers alone and returns its sequence number, -1 for a query row
    # that is not finite.  Its integers travel as c_void_p where that is a
    # 64-bit word: ctypes converts a python int to it in half the time a
    # c_int64 takes, and a staging pays that per task
    word = p if ctypes.sizeof(p) == 8 else i64
    lib.search_ring_new.restype = p
    lib.search_ring_new.argtypes = [i64]
    lib.search_ring_arena.restype = None
    lib.search_ring_arena.argtypes = [p, p, i64, i64, i64]  # block, rows, k, ef
    lib.search_ring_stage.restype = i64
    lib.search_ring_stage.argtypes = [p, word, word, word, word, word, word]
    lib.search_ring_collect.restype = None
    lib.search_ring_collect.argtypes = [p, word]
    lib.search_ring_serve.restype = None
    lib.search_ring_serve.argtypes = [p, i64]  # the ring, the CPU to start on
    for name in ("search_ring_close", "search_ring_free"):
        getattr(lib, name).restype = None
        getattr(lib, name).argtypes = [p]
    lib.host_cpu.restype = i64
    lib.host_cpu.argtypes = []
    lib.hnsw_insert_batch.restype = None
    lib.hnsw_insert_batch.argtypes = graph + [
        p,  # node_level
        i64,  # n_start
        i64,  # n_new
        p,  # new_levels
        i64,  # M
        i64,  # M0
        i64,  # efc
        p,  # state_ptrs
        p,  # ws_d
        p,  # ws_i
        i64,  # maxn
        p,  # io
    ]
    lib.l2sq_batch.restype = None
    lib.l2sq_batch.argtypes = [p, p, i64, i64, i32, p]
    lib.l2d_row.restype = None
    lib.l2d_row.argtypes = [p, p, i64, i64, i32, p, p]
    lib.l2sq_f64_batch.restype = None
    lib.l2sq_f64_batch.argtypes = [p, p, i64, i64, p]
    # routing takes the address of a RouteDesc and returns the number of
    # partitions written to its ``out`` buffer
    lib.vp_route_approx.restype = i64
    lib.vp_route_approx.argtypes = [p, i64]
    lib.vp_route_exact.restype = i64
    lib.vp_route_exact.argtypes = [p, ctypes.c_double]
    # the exact top-k scan takes a TopkRows and a TopkCall address
    lib.exact_topk.restype = None
    lib.exact_topk.argtypes = [p, p]
    # one VP tournament round: C, S, nc, ns, dim, work, out; returns 1
    # when a distance is not finite
    lib.vp_spread_scores.restype = i64
    lib.vp_spread_scores.argtypes = [p, p, i64, i64, i64, p, p]
    _lib = lib
    _lib_state = "ready"
    return lib


def _check_rows(seed: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Random rows for a self-check; 514 of them so the eight-pair double
    kernel also sees a short last block."""
    rng = np.random.default_rng([seed, dim])
    A = rng.normal(0, 10, size=(514, dim)).astype(np.float32)
    B = rng.normal(0, 10, size=(514, dim)).astype(np.float32)
    return A, B


def _selfcheck(lib, dim: int, do_sqrt: int) -> bool:
    """Compare the C float32 kernel against numpy at this width, bit for bit."""
    hit = _checked.get((dim, do_sqrt))
    if hit is not None:
        return hit
    A, B = _check_rows(0xC0FFEE, dim)
    diff = A - B
    ref = np.einsum("ij,ij->i", diff, diff)
    # the traversal also calls einsum on single rows (entry distance):
    # that must take the same reduction as the many-row call
    one = np.einsum("ij,ij->i", diff[:1], diff[:1])
    if do_sqrt:
        ref, one = np.sqrt(ref), np.sqrt(one)
    out = np.empty(len(A), dtype=np.float32)
    lib.l2sq_batch(A.ctypes.data, B.ctypes.data, len(A), dim, do_sqrt, out.ctypes.data)
    ok = bool(
        np.array_equal(ref.view(np.int32), out.view(np.int32))
        and one.view(np.int32)[0] == out.view(np.int32)[0]
    )
    _checked[(dim, do_sqrt)] = ok
    return ok


def _selfcheck_cdist(lib, dim: int, do_sqrt: int) -> bool:
    """Compare the C double kernel against scipy cdist at this width, bit for bit."""
    hit = _checked_cdist.get((dim, do_sqrt))
    if hit is not None:
        return hit
    from repro.hnsw.kernels import _cdist_euclidean, _cdist_sqeuclidean

    A, B = _check_rows(0xD15C, dim)
    cdist = _cdist_euclidean if do_sqrt else _cdist_sqeuclidean
    ref = cdist(A[:4], B)
    out = np.empty_like(ref)
    kt = np.zeros(8 * dim, dtype=np.float64)
    for i in range(len(ref)):
        lib.l2d_row(
            A[i].ctypes.data, B.ctypes.data, len(B), dim, do_sqrt, kt.ctypes.data, out[i].ctypes.data
        )
    ok = bool(np.array_equal(ref.view(np.int64), out.view(np.int64)))
    _checked_cdist[(dim, do_sqrt)] = ok
    return ok


def _selfcheck_route(lib, dim: int) -> bool:
    """Compare the C float64 kernel against the router's own python
    distance at this width, bit for bit: on one (1, dim) row — the shape
    every routing step uses — and on a many-row matrix."""
    hit = _checked_route.get(dim)
    if hit is not None:
        return hit
    rng = np.random.default_rng([0x2007E, dim])
    A = rng.normal(0, 10, size=(514, dim))
    B = rng.normal(0, 10, size=(514, dim))
    out = np.empty(len(A))
    lib.l2sq_f64_batch(A.ctypes.data, B.ctypes.data, len(A), dim, out.ctypes.data)
    diff = A - B
    ref = np.einsum("ij,ij->i", diff, diff)
    one = np.array([_l2sq_one_to_many(B[i], A[i : i + 1])[0] for i in range(32)])
    ok = bool(
        np.array_equal(ref.view(np.int64), out.view(np.int64))
        and np.array_equal(one.view(np.int64), out[:32].view(np.int64))
    )
    _checked_route[dim] = ok
    return ok


def _selfcheck_topk(lib, dim: int) -> bool:
    """Compare the compiled exact top-k against :func:`reference_topk` at
    this width, bit for bit, under l2 and sqeuclidean: 40 rows, half of
    them on a {0,1,2} grid (tied distances and duplicate rows) with
    shuffled ids, scanned by four queries for k = 12 and by one query of
    the one-row set."""
    hit = _checked_topk.get(dim)
    if hit is not None:
        return hit
    rng = np.random.default_rng([0x70C4, dim])
    X = rng.normal(0, 10, size=(40, dim)).astype(np.float32)
    X[20:] = rng.integers(0, 3, size=(20, dim))
    Q = np.vstack([rng.normal(0, 10, size=(3, dim)), rng.integers(0, 3, size=(1, dim))])
    Q = Q.astype(np.float32)
    ids = rng.permutation(40).astype(np.int64)
    ok = True
    for metric, do_sqrt in ((EuclideanMetric(), 1), (SquaredEuclidean(), 0)):
        for n, nq in ((40, 4), (1, 1)):
            D = np.empty((nq, 12))
            I = np.empty((nq, 12), dtype=np.int64)
            Qd = np.ascontiguousarray(Q[:nq], dtype=np.float64)
            rows = TopkRows(X.ctypes.data, ids.ctypes.data, n, dim)
            call = TopkCall(Qd.ctypes.data, D.ctypes.data, I.ctypes.data, nq, 12, do_sqrt)
            lib.exact_topk(ctypes.addressof(rows), ctypes.addressof(call))
            m = min(n, 12)
            ref_d, ref_i = reference_topk(metric, Q[:nq], X[:n], ids[:n], 12)
            ok = ok and np.array_equal(np.array(ref_d).view(np.int64), D[:, :m].view(np.int64))
            ok = ok and np.array_equal(np.array(ref_i), I[:, :m])
    _checked_topk[dim] = bool(ok)
    return bool(ok)


def _selfcheck_spread(lib, dim: int) -> bool:
    """Compare the compiled tournament scorer against
    ``reference_spread_scores`` at this width, bit for bit: random and
    {0,1,2}-grid rows (tied and zero distances), odd and even sample
    counts, and 131 samples, past the 128-term block of numpy's pairwise
    sum."""
    hit = _checked_spread.get(dim)
    if hit is not None:
        return hit
    from repro.vptree.select import reference_spread_scores

    rng = np.random.default_rng([0x5B7EAD, dim])
    ok = True
    for nc, ns in ((6, 131), (3, 8), (2, 7)):
        for grid in (False, True):
            if grid:
                C = rng.integers(0, 3, size=(nc, dim)).astype(np.float64)
                S = rng.integers(0, 3, size=(ns, dim)).astype(np.float64)
            else:
                C = rng.normal(0, 10, size=(nc, dim))
                S = rng.normal(0, 10, size=(ns, dim))
            out = np.empty(nc)
            work = np.empty(2 * ns)
            ref = reference_spread_scores(C, S, EuclideanMetric())
            status = lib.vp_spread_scores(
                C.ctypes.data, S.ctypes.data, nc, ns, dim, work.ctypes.data, out.ctypes.data
            )
            ok = ok and status == 0 and np.array_equal(ref.view(np.int64), out.view(np.int64))
    _checked_spread[dim] = bool(ok)
    return bool(ok)


def native_spread_for(dim: int):
    """The compiled library if the L2 tournament scorer at width ``dim``
    is bit-exact against the numpy reference, else None."""
    lib = _load()
    if lib is None or not _selfcheck_spread(lib, dim):
        return None
    return lib


def native_topk_for(dim: int):
    """The compiled library if the exact top-k scan of float32 rows at
    width ``dim`` is bit-exact against the numpy reference, else None."""
    lib = _load()
    if lib is None or not _selfcheck_topk(lib, dim):
        return None
    return lib


def native_route_for(dim: int):
    """The compiled library if VP-skeleton routing at width ``dim`` is
    bit-exact against the python router's L2 steps, else None."""
    lib = _load()
    if lib is None or not _selfcheck_route(lib, dim):
        return None
    return lib


def native_search_layer_for(metric_name: str, dim: int):
    """The compiled library if it can serve (metric, dim) bit-exactly, else None."""
    if metric_name not in ("l2", "sqeuclidean"):
        return None
    lib = _load()
    if lib is None:
        return None
    if not _selfcheck(lib, dim, 1 if metric_name == "l2" else 0):
        return None
    return lib


def native_build_for(metric_name: str, dim: int):
    """The compiled library if the INSERT path can serve (metric, dim) bit-exactly.

    On top of the search-layer gate this requires the cdist-compatible
    double kernel (selection/shrink pairwise distances) to pass its own
    bit-identity self-check.
    """
    lib = native_search_layer_for(metric_name, dim)
    if lib is None:
        return None
    if not _selfcheck_cdist(lib, dim, 1 if metric_name == "l2" else 0):
        return None
    return lib
