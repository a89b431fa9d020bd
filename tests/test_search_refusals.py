"""Every public search entry refuses a bad query batch, with the compiled
search on and off.

The compiled K-NN-SEARCH checks that the rows are finite itself, so
``HnswIndex.knn_search_batch`` only checks their shape before the call;
the python path runs ``check_matrix`` first.  Either way the same inputs
are refused with the same error type, at every entry that reaches the
search: the index, the cluster searcher, the runtime and the system.
``ClusterRuntime.run_search`` validates nothing itself — its simulated
master or workers refuse, and the engine reports that as a ``ProcError``
whose cause is the ``ValueError``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import ClusterRuntime, DistributedANN, SystemConfig
from repro.core.searcher import RealHnswSearcher
from repro.hnsw import HnswParams, native
from repro.runtime import strategy_for
from repro.simmpi.errors import ProcError

DIM = 8


def _inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    good = rng.normal(size=(2, DIM)).astype(np.float32)
    out = {}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        q = good.copy()
        q[1, 3] = value
        out[name] = q
        q64 = good.astype(np.float64)
        q64[0, 0] = value
        out[f"{name}_f64"] = q64
    q = good.astype(np.float64)
    q[1, 2] = 1e39  # finite in float64, inf once cast to float32
    out["f64_overflow"] = q
    out["wide"] = rng.normal(size=(2, DIM + 1)).astype(np.float32)
    out["narrow"] = rng.normal(size=(2, DIM - 1)).astype(np.float32)
    out["one_d"] = good[0].copy()
    out["empty_rows"] = np.empty((0, DIM), dtype=np.float32)
    out["empty_cols"] = np.empty((2, 0), dtype=np.float32)
    return out


INPUTS = _inputs()

#: what ``run_search`` raises per input when not a ProcError: the empty
#: batch fails in the results store, the 1-D one in the coordinator
RUN_SEARCH_DIRECT = {"empty_rows": ValueError, "one_d": IndexError}


@pytest.fixture(scope="module", params=["compiled", "python"])
def system(request):
    """A fitted small system, built with the compiled library loaded or
    with it switched off for the whole module."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "python":
            mp.setattr(native, "_lib", None)
            mp.setattr(native, "_lib_state", "failed")
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, DIM)).astype(np.float32)
        cfg = SystemConfig(
            n_cores=4, cores_per_node=2, k=3, seed=3, n_probe=2,
            hnsw=HnswParams(M=8, ef_construction=40),
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        part = next(iter(ann._build.partitions.values()))
        if request.param == "python":
            assert not part.index.native_search_active
        yield cfg, ann, part


def _entries(cfg, ann, part):
    searcher = RealHnswSearcher(cfg.cost, cfg.effective_ef_search)
    build = ann._build
    return {
        "knn_search_batch": lambda Q: part.index.knn_search_batch(Q, 3),
        "search_batch": lambda Q: searcher.search_batch(part, Q, 3),
        "run_search": lambda Q: ClusterRuntime(cfg).run_search(
            strategy_for(cfg), build.router, build.workgroups, build.node_stores,
            RealHnswSearcher(cfg.cost, cfg.effective_ef_search), Q, 3,
        ),
        "query": lambda Q: ann.query(Q, 3),
    }


@pytest.mark.parametrize("entry", ["knn_search_batch", "search_batch", "run_search", "query"])
@pytest.mark.parametrize("name", list(INPUTS))
def test_entry_refuses(system, entry, name):
    fn = _entries(*system)[entry]
    if entry != "run_search":
        want = ValueError
    else:
        want = RUN_SEARCH_DIRECT.get(name, ProcError)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the float32 cast overflows
        with pytest.raises(want) as err:
            fn(INPUTS[name])
    if want is ProcError:
        assert isinstance(err.value.__cause__, ValueError)


def test_knn_search_refuses_what_the_batch_entry_refuses(system):
    """The one-row entry checks its row as ``knn_search_batch`` checks a
    matrix: non-finite values (also once cast to float32), a wrong or
    empty width and a 2-D query are refused, and the index is left as a
    refused batch leaves it."""
    _, _, part = system
    index = part.index
    good = np.random.default_rng(6).normal(size=DIM)
    want = index.knn_search(good, 3)
    evals = index.n_dist_evals
    bad = [np.r_[good[:3], v, good[4:]] for v in (np.nan, np.inf, -np.inf, 1e39)]
    bad += [good[:-1], np.r_[good, 0.0], good[:0], good[np.newaxis]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the float32 cast overflows
        for q in bad + [q.astype(np.float32) for q in bad]:
            with pytest.raises(ValueError):
                index.knn_search(q, 3)
    assert index.n_dist_evals == evals
    got = index.knn_search(good, 3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("entry", ["knn_search_batch", "search_batch", "query"])
def test_entry_accepts_float64_and_lists(system, entry):
    """A finite float64 matrix or a nested list is cast, not refused, and
    answers as its float32 rows do."""
    fn = _entries(*system)[entry]
    good = np.random.default_rng(4).normal(size=(2, DIM)).astype(np.float32)
    want = fn(good)
    for Q in (good.astype(np.float64), good.tolist()):
        got = fn(Q)
        for a, b in zip(got[:2], want[:2]):
            assert np.array_equal(np.asarray(a), np.asarray(b))


def test_refused_batch_leaves_the_index_unchanged(system):
    """A refused batch searches nothing: the evaluation counter and the
    next answer are those of an index that never saw it."""
    _, _, part = system
    index = part.index
    good = np.random.default_rng(5).normal(size=(3, DIM)).astype(np.float32)
    want = index.knn_search_batch(good, 3)
    evals = index.n_dist_evals
    bad = good.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        index.knn_search_batch(bad, 3)
    assert index.n_dist_evals == evals
    got = index.knn_search_batch(good, 3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
