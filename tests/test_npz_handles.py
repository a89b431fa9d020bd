"""Loaders of saved artifacts close the npz files they open.

An ``NpzFile`` that is never closed keeps its file descriptor until the
object is collected; a loader that returns without closing leaks one per
call wherever collection is late (a reference cycle, a non-refcounting
interpreter, a long-lived traceback).
"""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

from repro.cli import _load_router, _save_router
from repro.hnsw import HnswIndex, HnswParams
from repro.vptree import PartitionRouter, VPTree


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 6)).astype(np.float32)
    d = tmp_path_factory.mktemp("npz")
    index = HnswIndex(6, HnswParams(M=6, ef_construction=30))
    index.add_items(X)
    index.save(str(d / "index.npz"))
    router = PartitionRouter.from_vptree(VPTree(X, leaf_size=20, seed=2))
    _save_router(router, str(d / "router.npz"))
    return router, {
        "index": lambda: HnswIndex.load(str(d / "index.npz")),
        "router": lambda: _load_router(str(d / "router.npz")),
    }


@pytest.mark.parametrize("which", ["index", "router"])
def test_hundred_loads_leave_no_open_file(saved, which, monkeypatch):
    real_load = np.load
    opened = []

    def load(*args, **kwargs):
        # keep every NpzFile alive so its __del__ cannot close it for us
        opened.append(real_load(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(np, "load", load)
    loader = saved[1][which]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for _ in range(100):
            loader()
        gc.collect()
    assert len(opened) == 100
    assert all(f.fid is None and f.zip is None for f in opened)


def test_reloaded_router_routes_like_the_saved_one(saved):
    router, load = saved
    again = load["router"]()
    for q in np.random.default_rng(12).normal(size=(20, 6)).astype(np.float32):
        assert again.route_approx(q, 3) == router.route_approx(q, 3)
        assert again.route_exact(q, 0.7) == router.route_exact(q, 0.7)
