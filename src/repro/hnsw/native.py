"""ctypes loader for the compiled HNSW hot paths (``_hotpath.c``).

Two index entries live in the shared object: K-NN-SEARCH for a whole query
matrix in one call (what ``knn_search`` / ``knn_search_batch`` run,
filtered or not), and the full INSERT batch (greedy descent, beam search,
neighbor selection, incremental link shrinking).  The master's VP-skeleton
descent shares the library: ``vp_route_approx`` / ``vp_route_exact`` are
what :class:`~repro.vptree.router.PartitionRouter` runs under L2
(:func:`native_route_for`, gated per width by its own float64 self-check
against the router's python distance).  All are *optional*
accelerators with a strict bit-identity contract: they are enabled for an
index only when

- a C compiler is available and the shared object builds (compiled once
  per source hash into a per-user temp dir, reused across processes),
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
import os

import numpy as np

from repro.metrics.lp import _l2sq_one_to_many
from repro.utils.cbuild import compile_and_load

__all__ = ["native_search_layer_for", "native_build_for", "native_route_for", "RouteDesc"]

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_hotpath.c")

_lib = None
_lib_state = "unloaded"  # unloaded -> ready | failed (sticky per process)
_checked: dict[tuple[int, int], bool] = {}
_checked_cdist: dict[tuple[int, int], bool] = {}
_checked_route: dict[int, bool] = {}


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


def _load():
    global _lib, _lib_state
    if _lib_state != "unloaded":
        return _lib
    _lib_state = "failed"
    if os.environ.get("REPRO_HNSW_NO_NATIVE"):
        return None
    lib = compile_and_load(_SRC, "repro-hnsw")
    if lib is None:
        return None
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    # every graph entry starts with the same description of the index's
    # buffers (HnswIndex._native_graph builds it once per reallocation)
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
    lib.hnsw_knn_search.restype = None
    lib.hnsw_knn_search.argtypes = graph + [
        p,  # ext
        i64,  # max_level
        i64,  # entry
        i64,  # epoch
        p,  # Q
        i64,  # nq
        i64,  # k
        i64,  # ef
        p,  # allowed (nullable)
        p,  # D
        p,  # I
        p,  # stats
    ]
    lib.hnsw_insert_batch.restype = None
    lib.hnsw_insert_batch.argtypes = graph + [
        p,  # node_level
        i64,  # n_start
        i64,  # n_new
        p,  # new_levels
        i64,  # M
        i64,  # M0
        i64,  # efc
        i32,  # heuristic
        i32,  # keep_pruned
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
