"""Identity, invariant and scaling guards for the distributed construction.

The build's host path may be re-arranged for speed, but every vantage
point, radius, partition and virtual second it produces is pinned here:

(a) golden digests of whole builds, computed on the commit *before* the
    tournament was batched and the levels made linear in ranks;
(b) the batched scorer against the one-row reference, bit for bit;
(c) an adversarial sweep (duplicates, ties at the split radius, barely
    enough points) of the balance and routing invariants;
(d) scaling guards on counts — never on seconds.
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedANN, SystemConfig
from repro.datasets import sift_like
from repro.hnsw import HnswParams
from repro.kdtree import KDBaselineSystem
from repro.metrics import get_metric
from repro.simmpi import Comm
from repro.vptree import PartitionRouter, median, select_vantage_point, spread_score, spread_scores
from repro.vptree.distributed import _shuffle_sends
from tests.test_vptree_distributed import run_build_sim
from tests.test_vptree_median import run_select

# -- (a) golden digests -------------------------------------------------------


def _digest(root, split_bytes, partitions, *seconds) -> str:
    """SHA-256 over every split of the skeleton (pre-order), every
    partition's ids, and the virtual seconds as ``repr``."""
    h = hashlib.sha256()

    def walk(node) -> None:
        if node.is_leaf:
            h.update(b"leaf%d;" % node.partition)
            return
        h.update(split_bytes(node))
        walk(node.left)
        walk(node.right)

    walk(root)
    for pid in sorted(partitions):
        h.update(np.asarray(partitions[pid].ids, dtype=np.int64).tobytes())
    h.update(repr(seconds).encode())
    return h.hexdigest()


def _vp_split(node) -> bytes:
    return np.asarray(node.vp, dtype=np.float32).tobytes() + repr(node.mu).encode()


def _kd_split(node) -> bytes:
    return repr((node.axis, node.threshold)).encode()


def _fit_digest(X, **config) -> str:
    ann = DistributedANN(SystemConfig(**config))
    br = ann.fit(X)
    return _digest(
        ann.router.root, _vp_split, ann.partitions, br.total_seconds, br.vptree_seconds
    )


def _kd_digest() -> str:
    kd = KDBaselineSystem(SystemConfig(n_cores=16, cores_per_node=4, seed=46), leaf_size=16)
    seconds = kd.fit(sift_like(2000, dim=24, seed=46))
    return _digest(kd._router.root, _kd_split, kd._partitions, seconds)


_MODELED = dict(searcher="modeled", modeled_sample_points=8)

GOLDEN_BUILDS = {
    # the syn32_closed shape: real searcher, pivot rounds at the top level
    "real_64x8000x32": lambda: _fit_digest(
        sift_like(8000, dim=32, seed=41), n_cores=64, cores_per_node=8, seed=41,
        hnsw=HnswParams(M=8, ef_construction=40, seed=41),
    ),
    "modeled_64x128d": lambda: _fit_digest(
        sift_like(4096, dim=128, seed=42), n_cores=64, cores_per_node=8, seed=42, **_MODELED
    ),
    # the modeled_1k shape: 8 points per rank, paper-scale work_scale
    "modeled_1024x8": lambda: _fit_digest(
        sift_like(8192, dim=32, seed=43), n_cores=1024, cores_per_node=16, seed=43,
        modeled_partition_points=10**9 // 1024, **_MODELED,
    ),
    "world_12": lambda: _fit_digest(
        sift_like(1500, dim=16, seed=44), n_cores=12, cores_per_node=4, seed=44, **_MODELED
    ),
    "l1_8": lambda: _fit_digest(
        sift_like(1000, dim=8, seed=45), n_cores=8, cores_per_node=4, seed=45,
        metric="l1", **_MODELED,
    ),
    "kd_16": _kd_digest,
}

GOLDEN = {
    "real_64x8000x32": "508ab62e57963de4c44ce279e325379ca2bd5e82e2b642dbba7b70397fbf5aa5",
    "modeled_64x128d": "2f4bb5ae54bb09708986336124d9211a3a3042e3a8c383ae55d16786ca9d0a69",
    "modeled_1024x8": "f68a2d37e5acc6190c15ecda4f2669705612e8df238d0dceeb1d4a31738f934d",
    "world_12": "0eff027a6ba34cb6518133f2ba69c8288f1f114b0cdcbcece59344afe33fe95c",
    "l1_8": "118490c70680a090dd55f5d093a16905892a33dd00e18652a1ce25c592def71c",
    "kd_16": "2ad05faf83a2f09d123d741860d24bb49aebcdae91bdb95baf7cfdd3754d3db9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_build_repeats_the_golden_digest(name):
    assert GOLDEN_BUILDS[name]() == GOLDEN[name]


# -- (b) the batched scorer against the one-row reference -----------------------


@pytest.mark.parametrize("metric", ["l2", "l1", "linf", "sqeuclidean"])
@pytest.mark.parametrize("dim", [1, 3, 32, 33, 128])
def test_spread_scores_equals_spread_score_bitwise(metric, dim):
    m = get_metric(metric)
    rng = np.random.default_rng([dim, len(metric)])
    # (candidates, sample rows, tied): one candidate, one sample row, odd and
    # even sample counts, rows with equal distances, and a 100 x 100 round
    # (several blocks of the scorer at the wider widths)
    for n_c, n_s, tied in [
        (1, 7, False), (9, 1, False), (12, 11, False), (12, 10, False),
        (15, 16, True), (100, 100, False),
    ]:
        if tied:
            X = rng.integers(0, 2, size=(n_c + n_s, dim)).astype(np.float32)
            X[::3] = X[0]
        else:
            X = rng.normal(size=(n_c + n_s, dim)).astype(np.float32)
        cand, sample = X[:n_c], X[n_c:]
        ref = np.array([spread_score(c, sample, m) for c in cand])
        got = spread_scores(cand, sample, m)
        assert got.tobytes() == ref.tobytes(), (n_c, n_s, tied)
        if tied:
            # equal rows score equally: the winner is the first of its copies,
            # the one a strict ``>`` scan keeps
            winner, _ = select_vantage_point(sample, m, candidates=cand, rng=rng)
            assert not (cand[:winner] == cand[winner]).all(axis=1).any()


# -- (c) adversarial inputs: balance and routing invariants ---------------------


def _adversarial_points(kind: str, n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "duplicate":
        return np.full((n, dim), 3.0, dtype=np.float32)
    top = 2 if kind == "binary" else 4  # 0/1 values, or a small grid
    return rng.integers(0, top, size=(n, dim)).astype(np.float32)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    P=st.sampled_from([2, 3, 5, 6, 7, 8, 12, 16]),
    n_per_P=st.sampled_from([(1, 0), (1, 1), (2, -1), (3, 0)]),  # n = P, P+1, 2P-1, 3P
    kind=st.sampled_from(["duplicate", "binary", "grid"]),
    dim=st.integers(1, 4),
    metric=st.sampled_from(["l2", "l1", "linf"]),
    seed=st.integers(0, 2**16),
)
def test_adversarial_builds_stay_balanced_and_routable(P, n_per_P, kind, dim, metric, seed):
    n = n_per_P[0] * P + n_per_P[1]
    X = _adversarial_points(kind, n, dim, seed)
    results, _ = run_build_sim(X, P, seed=seed, metric=metric)
    ids = np.concatenate([r.ids for r in results])
    assert np.array_equal(np.sort(ids), np.arange(n))  # exact cover
    sizes = [len(r.ids) for r in results]
    assert max(sizes) - min(sizes) <= 1
    # every point is reachable by the exact route at radius 0 — ties at the
    # split radius go to either child, so the route must enter both
    router = PartitionRouter.from_paths([r.path for r in results], metric=metric)
    for pid, r in enumerate(results):
        for x in r.points:
            assert pid in router.route_exact(x, 0.0)


def test_kd_exact_route_reaches_points_on_the_threshold():
    X = _adversarial_points("binary", 48, 3, seed=1)
    kd = KDBaselineSystem(SystemConfig(n_cores=8, cores_per_node=4, seed=1))
    kd.fit(X)
    for pid, part in kd._partitions.items():
        for x in part.points:
            assert pid in kd._router.route_exact(x, 0.0)


# -- (d) scaling guards, on counts ------------------------------------------------


def _dense_chunks(n_items, n_dests, rotation):
    """The shuffle's slice -> destination map, written densely (one slice
    per destination, empty ones included) as the reference."""
    base, rem = divmod(n_items, n_dests)
    out, pos = [], 0
    for j in range(n_dests):
        size = base + (1 if (j - rotation) % n_dests < rem else 0)
        out.append((j, pos, pos + size))
        pos += size
    return out


def test_shuffle_outbox_lists_only_the_nonempty_slices():
    for n_items in range(0, 41):
        ids = np.arange(n_items)
        X = ids[:, None].astype(np.float32)
        for n_dests in range(1, 18):
            for rank in range(0, 2 * n_dests + 1):
                dense = _dense_chunks(n_items, n_dests, rank)
                # every row inside exercises the left side (ranks 0 ..), no row
                # inside the right side (ranks 3 ..); the other side sends nothing
                for inside, first, n_left, size in (
                    (True, 0, n_dests, n_dests + 1), (False, 3, 3, 3 + n_dests)
                ):
                    mask = np.full(n_items, inside)
                    send = _shuffle_sends(mask, X, ids, rank, n_left, size)
                    assert {d: (p[:, 0].tolist(), i.tolist()) for d, (p, i) in send.items()} == {
                        first + j: (list(range(a, b)),) * 2 for j, a, b in dense if b > a
                    }
                    assert len(send) <= min(n_items, n_dests)


def test_pivot_is_chosen_once_per_selection_round(monkeypatch):
    values = np.random.default_rng(3).normal(size=(8, 1000))  # > _GATHER_LIMIT in total
    calls = {"weighted_median": 0, "rounds": 0}
    real_wm, real_allgather = median.weighted_median, Comm.allgather

    def counting_wm(v, w):
        calls["weighted_median"] += 1
        return real_wm(v, w)

    def counting_allgather(self, ctx, data, **kw):
        calls["rounds"] += self.rank(ctx) == 0
        return real_allgather(self, ctx, data, **kw)

    monkeypatch.setattr(median, "weighted_median", counting_wm)
    monkeypatch.setattr(Comm, "allgather", counting_allgather)
    answers = run_select(list(values), 4000)
    assert set(answers) == {float(np.sort(values.ravel())[3999])}
    assert calls["rounds"] >= 1
    assert calls["weighted_median"] == calls["rounds"]


def _calls_per_rank_per_level(P: int) -> float:
    """Python and C calls one modeled ``fit`` makes at 2 points per rank,
    per rank and tree level."""
    ann = DistributedANN(
        SystemConfig(n_cores=P, cores_per_node=16, seed=7, searcher="modeled", modeled_sample_points=2)
    )
    X = sift_like(2 * P, dim=32, seed=7)
    n = 0

    def count(frame, event, arg):
        nonlocal n
        n += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        ann.fit(X)
    finally:
        sys.setprofile(None)
    return n / (P * math.log2(P))


def test_host_work_per_rank_per_level_is_flat_in_ranks():
    """A level costs each rank the same number of calls whether the group
    has 64 members or 1,024 (at the parent: 944 -> 1,095 calls)."""
    small, large = _calls_per_rank_per_level(64), _calls_per_rank_per_level(1024)
    assert large <= 1.05 * small, (small, large)
