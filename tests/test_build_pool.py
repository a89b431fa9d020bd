"""The fit's HNSW builds on host worker threads.

``run_build`` hands each rank's compiled insert to a thread pool as soon as
the VP build fixes the rank's leaf, and the rank waits for it where it
builds the graph.  Threads may change host time only: every partition's
graph must be the one a direct serial ``add_items`` builds, a failing
build must surface as its rank's ``ProcError``, and no worker may outlive
the fit.  With the compiled insert off (``REPRO_HNSW_NO_NATIVE=1``) the
same checks hold the inline fallback.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.datasets import sift_like
from repro.hnsw import HnswIndex, HnswParams
from repro.hnsw.index import StagedInsert
from repro.simmpi import ProcError

DIM = 24


def _config(n_cores: int, **kw) -> SystemConfig:
    return SystemConfig(
        n_cores=n_cores,
        cores_per_node=4,
        seed=n_cores,
        hnsw=HnswParams(M=6, ef_construction=32, seed=n_cores),
        **kw,
    )


def _corpus(n_cores: int) -> np.ndarray:
    return sift_like(max(400, 24 * n_cores), dim=DIM, seed=n_cores)


def _metadata(n: int) -> dict:
    return {"tenant": np.arange(n) % 3, "year": 2000 + np.arange(n) % 7}


def _serial_index(config: SystemConfig, points, ids) -> HnswIndex:
    index = HnswIndex(
        dim=DIM, params=config.hnsw, metric=config.metric, capacity=max(len(ids), 16)
    )
    if len(ids):
        index.add_items(points, ids)
    return index


def _saved(index: HnswIndex, path) -> dict:
    index.save(str(path))
    with np.load(str(path)) as z:
        return {name: z[name].tobytes() for name in z.files}


@pytest.mark.parametrize("with_metadata", [False, True], ids=["plain", "metadata"])
@pytest.mark.parametrize("n_cores", [1, 3, 5, 8, 64])
def test_partitions_equal_a_serial_build(n_cores, with_metadata, assert_same_graph, tmp_path):
    X = _corpus(n_cores)
    config = _config(n_cores)
    ann = DistributedANN(config)
    ann.fit(X, metadata=_metadata(len(X)) if with_metadata else None)
    assert sorted(ann.partitions) == list(range(n_cores))
    for rank, part in ann.partitions.items():
        got = part.index
        want = _serial_index(config, part.points, part.ids)
        assert_same_graph(got, want)
        assert got.n_dist_evals == want.n_dist_evals
        assert got.n_shrink_ops == want.n_shrink_ops
        assert _saved(got, tmp_path / f"got{rank}.npz") == _saved(
            want, tmp_path / f"want{rank}.npz"
        )


def _builds_natively() -> bool:
    return HnswIndex(dim=DIM).native_build_active


needs_native_build = pytest.mark.skipif(
    not _builds_natively(), reason="no compiled insert: the fit builds inline"
)


def _holds_id0(index: HnswIndex) -> bool:
    return 0 in index._ext[: len(index)].tolist()


@needs_native_build
def test_inserts_run_on_worker_threads(monkeypatch):
    threads = []
    run = StagedInsert.run

    def recording_run(self):
        threads.append(threading.current_thread())
        run(self)

    monkeypatch.setattr(StagedInsert, "run", recording_run)
    DistributedANN(_config(8)).fit(_corpus(8))
    assert len(threads) == 8
    assert threading.main_thread() not in threads


@needs_native_build
def test_a_failing_worker_build_is_its_ranks_proc_error(monkeypatch):
    X = _corpus(8)
    ann = DistributedANN(_config(8))
    ann.fit(X)
    victim = next(r for r, p in ann.partitions.items() if 0 in p.ids.tolist())

    def failing_run(self):
        if _holds_id0(self._index):
            raise RuntimeError("insert failed")

    monkeypatch.setattr(StagedInsert, "run", failing_run)
    with pytest.raises(ProcError) as err:
        DistributedANN(_config(8)).fit(X)
    assert err.value.proc_name == f"build{victim}"
    assert isinstance(err.value.__cause__, RuntimeError)


def test_no_worker_outlives_a_fit(monkeypatch):
    before = threading.active_count()
    ann = DistributedANN(_config(8))
    ann.fit(_corpus(8))
    assert threading.active_count() == before

    def failing_run(self):
        if _holds_id0(self._index):
            raise RuntimeError("insert failed")

    def failing_add_items(self, X, ids=None):
        if 0 in ids:
            raise RuntimeError("insert failed")

    # one rank's build fails, compiled or inline, while the others' run
    monkeypatch.setattr(StagedInsert, "run", failing_run)
    monkeypatch.setattr(HnswIndex, "add_items", failing_add_items)
    with pytest.raises(ProcError):
        ann.fit(_corpus(8))
    assert threading.active_count() == before


def test_a_failed_fit_keeps_the_previous_index():
    X = sift_like(400, dim=16, seed=3)
    Q = X[:20] + np.float32(0.01)
    ann = DistributedANN(_config(4))
    ann.fit(X)
    D, I, _ = ann.query(Q, k=5)
    with pytest.raises(ValueError, match="metadata has 10 rows"):
        ann.fit(sift_like(400, dim=24, seed=4), metadata={"tenant": np.zeros(10)})
    D2, I2, _ = ann.query(Q, k=5)
    assert np.array_equal(I, I2)
    assert D.tobytes() == D2.tobytes()
    with pytest.raises(ValueError, match="16-d"):
        ann.query(sift_like(5, dim=24, seed=5), k=5)
