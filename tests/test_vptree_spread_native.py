"""The compiled L2 tournament scorer against its numpy reference.

``spread_scores`` runs ``vp_spread_scores`` of ``_hotpath.c`` under L2
where the per-width gate ``native_spread_for`` passed, and
``reference_spread_scores`` otherwise.  Every result here must equal the
reference bit for bit — with the library and with
``REPRO_HNSW_NO_NATIVE=1`` (``make test-nonative``), where both sides are
the reference.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.hnsw import native
from repro.metrics import EuclideanMetric
from repro.vptree import select
from repro.vptree.select import reference_spread_scores, spread_scores

WIDTHS = [1, 2, 3, 7, 8, 9, 16, 32, 33, 128, 960]
# (candidates, samples): single rows, odd and even counts, the 94 x 94
# round of a 64-rank build, the 100 x 100 constants, a 1,024-candidate
# round, and 130 / 257 samples (the pairwise sum's recursive branch)
SHAPES = [(1, 1), (3, 5), (8, 8), (94, 94), (100, 100), (1024, 100), (9, 130), (4, 257)]

_L2 = EuclideanMetric()


def _rows(kind: str, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(0, 10, size=(n, dim)).astype(np.float32)
    if kind == "grid":
        return rng.integers(0, 3, size=(n, dim)).astype(np.float32)
    return np.repeat(rng.normal(0, 1, size=(1, dim)).astype(np.float32), n, axis=0)


def _assert_bits(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.shape == ref.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _reference(C, S) -> np.ndarray:
    return reference_spread_scores(
        np.asarray(C, dtype=np.float64), np.asarray(S, dtype=np.float64), _L2
    )


@pytest.mark.parametrize("kind", ["normal", "grid", "duplicate"])
@pytest.mark.parametrize("dim", WIDTHS)
def test_scorer_equals_the_reference_bitwise(dim, kind):
    for n_c, n_s in SHAPES:
        rng = np.random.default_rng([dim, n_c, n_s, len(kind)])
        C = _rows(kind, n_c, dim, rng)
        # duplicate rows: every sample is the candidate (all distances zero)
        S = C[:1].repeat(n_s, axis=0) if kind == "duplicate" else _rows(kind, n_s, dim, rng)
        _assert_bits(spread_scores(C, S, _L2), _reference(C, S))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
@pytest.mark.parametrize("where", ["candidate", "sample"])
def test_non_finite_distance_returns_the_numpy_result(bad, where):
    # NaN / inf in a row, or finite rows whose distance overflows: the
    # kernel refuses the round and the reference answers it
    rng = np.random.default_rng(7)
    C = rng.normal(0, 1, size=(5, 9))
    S = rng.normal(0, 1, size=(12, 9))
    (C if where == "candidate" else S)[3, 4] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        ref = reference_spread_scores(C, S, _L2)
        _assert_bits(spread_scores(C, S, _L2), ref)
    assert not np.isfinite(ref).all()


def _library():
    lib = native._load()
    if lib is None:
        pytest.skip("compiled library unavailable (no compiler or REPRO_HNSW_NO_NATIVE)")
    return lib


def test_l2_rounds_run_compiled_where_the_gate_passes(monkeypatch):
    _library()
    assert native.native_spread_for(128) is not None

    def refuse(*args):
        raise AssertionError("the reference ran for a finite L2 round")

    monkeypatch.setattr(select, "reference_spread_scores", refuse)
    rng = np.random.default_rng(11)
    out = spread_scores(rng.normal(size=(4, 128)), rng.normal(size=(9, 128)), _L2)
    assert out.shape == (4,) and np.isfinite(out).all()


def test_gate_rejects_a_kernel_one_ulp_off(monkeypatch):
    lib = _library()

    class OneUlpOff:
        def vp_spread_scores(self, C, S, nc, ns, dim, work, out):
            status = lib.vp_spread_scores(C, S, nc, ns, dim, work, out)
            scores = np.ctypeslib.as_array((ctypes.c_double * nc).from_address(out))
            scores[-1] = np.nextafter(scores[-1], np.inf)
            return status

    monkeypatch.setattr(native, "_checked_spread", {})
    assert native._selfcheck_spread(lib, 5)
    monkeypatch.setattr(native, "_checked_spread", {})
    assert not native._selfcheck_spread(OneUlpOff(), 5)
