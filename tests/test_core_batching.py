"""Dispatch batching through the simulated cluster.

``SystemConfig.batch_size`` buffers per-partition dispatch into batch task
messages that workers answer with one ``knn_search_batch`` call.  The
contract (docs/performance.md): results and virtual search costs are
identical at every batch size; only the number of task/result *messages*
changes.  These tests pin the D/I bit-identity across batch sizes and comm
modes, golden makespans and message counts for a fixed scenario, the
config-validation guard rails, and the searcher-level batch == loop-of-
searches equivalence the whole construction rests on.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.core.searcher import RealHnswSearcher
from repro.runtime.cluster import _batched
from repro.faults.spec import FaultSpec
from repro.hnsw import HnswParams
from repro.simmpi.errors import SimConfigError

HNSW = HnswParams(M=8, ef_construction=40)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(600, 16)).astype(np.float32)
    Q = rng.normal(size=(24, 16)).astype(np.float32)
    return X, Q


def _run(corpus, batch_size, one_sided):
    X, Q = corpus
    cfg = SystemConfig(
        n_cores=8,
        cores_per_node=4,
        k=5,
        hnsw=HNSW,
        n_probe=3,
        seed=0,
        one_sided=one_sided,
        batch_size=batch_size,
    )
    ann = DistributedANN(cfg)
    ann.fit(X)
    return ann.query(Q)


class TestClusterGoldens:
    """Frozen makespans / counts / result digest for one seeded scenario.

    The digest is identical across every (batch_size, comm mode) cell —
    that IS the batching contract; the makespans differ because message
    timing legitimately changes with B.
    """

    DIGEST = "1f3ab48ae0dc047f"
    GOLDEN = {
        # (batch_size, one_sided): (makespan, tasks, task_messages)
        (1, True): (4.781760000000001e-05, 72, 72),
        (1, False): (4.9312000000000174e-05, 72, 72),
        (4, True): (4.93536e-05, 72, 21),
        (4, False): (3.069480000000001e-05, 72, 21),
    }

    @pytest.mark.parametrize("batch_size,one_sided", sorted(GOLDEN))
    def test_golden(self, corpus, batch_size, one_sided):
        D, I, rep = _run(corpus, batch_size, one_sided)
        makespan, tasks, messages = self.GOLDEN[(batch_size, one_sided)]
        assert rep.total_seconds == makespan
        assert rep.tasks == tasks
        assert rep.task_messages == messages
        digest = hashlib.sha256(D.tobytes() + I.tobytes()).hexdigest()[:16]
        assert digest == self.DIGEST

    def test_batched_results_bit_identical_to_unbatched(self, corpus):
        D1, I1, rep1 = _run(corpus, 1, True)
        D4, I4, rep4 = _run(corpus, 4, True)
        np.testing.assert_array_equal(D4, D1)
        np.testing.assert_array_equal(I4, I1)
        assert rep4.tasks == rep1.tasks  # logical task count unchanged
        assert rep4.task_messages < rep1.task_messages

    def test_message_count_at_batch_one_equals_tasks(self, corpus):
        _, _, rep = _run(corpus, 1, False)
        assert rep.task_messages == rep.tasks


class TestConfigValidation:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(SimConfigError, match="batch_size"):
            SystemConfig(n_cores=4, cores_per_node=2, batch_size=0)

    def test_batching_requires_approx_routing(self):
        with pytest.raises(SimConfigError, match="routing='approx'"):
            SystemConfig(
                n_cores=4, cores_per_node=2, batch_size=4,
                routing="adaptive", one_sided=False,
            )

    def test_batching_requires_master_owner(self):
        with pytest.raises(SimConfigError, match="owner_strategy='master'"):
            SystemConfig(
                n_cores=4, cores_per_node=2, batch_size=4, owner_strategy="multiple"
            )

    def test_batching_incompatible_with_faults(self):
        with pytest.raises(SimConfigError, match="fault"):
            SystemConfig(
                n_cores=4, cores_per_node=2, batch_size=4, one_sided=False,
                fault_spec=FaultSpec(seed=1),
            )

    def test_batch_size_one_always_allowed(self):
        cfg = SystemConfig(n_cores=4, cores_per_node=2, batch_size=1)
        assert cfg.batch_size == 1


class _OneRow:
    """A one-row searcher over a batched one: ``search`` is its B = 1 batch."""

    def __init__(self, inner):
        self.inner = inner

    def search(self, partition, q, k):
        ds, idss, seconds = self.inner.search_batch(partition, q[np.newaxis, :], k)
        return ds[0], idss[0], seconds


class TestSearcherBatch:
    """search_batch row i == the B = 1 batch of Q[i] — results and virtual
    seconds."""

    def test_real_hnsw_searcher_batch_equivalence(self, corpus):
        X, Q = corpus
        ann = DistributedANN(
            SystemConfig(n_cores=4, cores_per_node=2, k=5, hnsw=HNSW, seed=0)
        )
        ann.fit(X)
        part = ann.partitions[0]
        searcher = RealHnswSearcher(ann.config.cost, ef_search=ann.config.effective_ef_search)

        ds, idss, seconds = searcher.search_batch(part, Q, 5)
        loop_seconds = 0.0
        for row, q in enumerate(Q):
            d, ids, s = _OneRow(searcher).search(part, q, 5)
            loop_seconds += s
            np.testing.assert_array_equal(ds[row], d)
            np.testing.assert_array_equal(idss[row], ids)
        assert seconds == pytest.approx(loop_seconds)

    def test_generic_fallback_matches_loop(self, corpus):
        X, Q = corpus
        ann = DistributedANN(
            SystemConfig(n_cores=4, cores_per_node=2, k=5, hnsw=HNSW, seed=0)
        )
        ann.fit(X)
        part = ann.partitions[0]
        searcher = RealHnswSearcher(ann.config.cost, ef_search=ann.config.effective_ef_search)

        # the row loop run_search puts around a one-row searcher
        ds, idss, seconds = _batched(_OneRow(searcher), None).search_batch(part, Q, 5)
        bds, bidss, bseconds = searcher.search_batch(part, Q, 5)
        assert seconds == pytest.approx(bseconds)
        for a, b in zip(ds, bds):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(idss, bidss):
            np.testing.assert_array_equal(a, b)
