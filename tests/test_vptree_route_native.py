"""The compiled VP-skeleton descent against the python router.

``PartitionRouter`` runs ``vp_route_approx`` / ``vp_route_exact`` from
``hnsw/_hotpath.c`` under L2 wherever the float64 kernel passes its
per-width self-check; the python per-step ``_d`` is the oracle.  Here the
two must agree on the partitions, their order and ``n_dist_evals`` —
across widths around every lane boundary, skeletons of 1 to over 1,024
partitions, every probe count, queries lying exactly on a split radius,
duplicate points and ``route_exact`` on boundary ties.  Without a
compiler (or with ``REPRO_HNSW_NO_NATIVE``) only the python-side tests run.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np
import pytest

import repro.hnsw.native as hnsw_native
from repro import DistributedANN, HnswParams, SystemConfig
from repro.metrics.lp import _l2sq_one_to_many
from repro.vptree import PartitionRouter, RouteNode

WIDTHS = (1, 2, 3, 7, 8, 9, 17, 32, 33, 128, 960)

# gated on the library alone: a width whose self-check fails must fail
# here (the compiled twin asserts it is compiled), not skip
needs_native = pytest.mark.skipif(
    hnsw_native._load() is None, reason="compiled helpers unavailable on this machine"
)


def _points(n: int, dim: int, seed: int) -> np.ndarray:
    """Gaussian rows with a tenth of them duplicated."""
    rng = np.random.default_rng([seed, dim, n])
    X = rng.normal(0, 3, size=(n, dim)).astype(np.float32)
    dup = rng.choice(n, size=n // 10, replace=False)
    X[dup] = X[rng.choice(n, size=len(dup))]
    return X


def _skeleton(X: np.ndarray, leaf_size: int, seed: int) -> tuple[RouteNode, int]:
    """A VP skeleton whose every radius is the exact routing distance of
    one of its members, so that member, used as a query, lies on it."""
    rng = np.random.default_rng(seed)
    counter = [0]

    def leaf() -> RouteNode:
        counter[0] += 1
        return RouteNode(partition=counter[0] - 1)

    def build(rows: np.ndarray) -> RouteNode:
        if len(rows) <= leaf_size:
            return leaf()
        vp = rows[rng.integers(len(rows))]
        d = np.sqrt(_l2sq_one_to_many(vp.astype(np.float64), rows.astype(np.float64)))
        median = int(np.argsort(d, kind="stable")[(len(rows) - 1) // 2])
        x = rows[median].astype(np.float64)
        mu = math.sqrt(_l2sq_one_to_many(x, vp.astype(np.float64)[np.newaxis, :])[0])
        inside = d <= mu
        if inside.all():
            return leaf()
        return RouteNode(vp=vp, mu=mu, left=build(rows[inside]), right=build(rows[~inside]))

    root = build(X)
    return root, counter[0]


def _leaves(node: RouteNode) -> list[int]:
    if node.is_leaf:
        return [node.partition]
    return _leaves(node.left) + _leaves(node.right)


def _twins(root: RouteNode, n_partitions: int, monkeypatch) -> tuple[PartitionRouter, PartitionRouter]:
    """(compiled, python) routers over one skeleton."""
    fast = PartitionRouter(root, n_partitions)
    with monkeypatch.context() as m:
        m.setattr("repro.vptree.router.native_route_for", lambda dim: None)
        slow = PartitionRouter(root, n_partitions)
    return fast, slow


def _queries(X: np.ndarray, seed: int) -> np.ndarray:
    """Every stored point (the radius-defining members among them) plus
    perturbed copies of a few."""
    rng = np.random.default_rng(seed)
    near = X[rng.choice(len(X), size=min(len(X), 16))] + rng.normal(0, 0.5, (min(len(X), 16), X.shape[1]))
    return np.concatenate([X, near.astype(np.float32)])


def _assert_agree(fast, slow, Q, probes, taus) -> None:
    assert fast.native_active and not slow.native_active
    for q in Q:
        for n_probe in probes:
            assert fast.route_approx(q, n_probe) == slow.route_approx(q, n_probe)
            assert fast.n_dist_evals == slow.n_dist_evals
        for tau in taus(q):
            assert fast.route_exact(q, tau) == slow.route_exact(q, tau)
            assert fast.n_dist_evals == slow.n_dist_evals


def _boundary_taus(router: PartitionRouter):
    """tau 0, tau equal to the root margin (one test lands on its tie) and
    a wide ball."""
    root = router.root

    def taus(q):
        if root.is_leaf:
            return [0.0, 1.0]
        d = math.sqrt(_l2sq_one_to_many(q.astype(np.float64), root._vp64)[0])
        return [0.0, abs(d - root.mu), 2.0]

    return taus


@needs_native
@pytest.mark.parametrize("dim", WIDTHS)
def test_compiled_route_is_python_route_at_every_width(dim, monkeypatch):
    X = _points(160, dim, seed=1)
    root, n_parts = _skeleton(X, leaf_size=3, seed=dim)
    fast, slow = _twins(root, n_parts, monkeypatch)
    _assert_agree(fast, slow, _queries(X, dim), (1, 4, n_parts, n_parts + 5), _boundary_taus(fast))


@needs_native
@pytest.mark.parametrize("n_points,leaf_size", [(1, 1), (2, 1), (3, 1), (40, 2), (600, 2), (1400, 1)])
def test_compiled_route_is_python_route_at_every_size(n_points, leaf_size, monkeypatch):
    X = _points(n_points, 9, seed=2)
    root, n_parts = _skeleton(X, leaf_size=leaf_size, seed=n_points)
    fast, slow = _twins(root, n_parts, monkeypatch)
    if n_points == 1400:
        assert n_parts >= 1024
    Q = _queries(X, n_points)[:300]
    if root.is_leaf:  # nothing to compute: both are the python router
        assert not fast.native_active
        assert fast.route_approx(Q[0], 3) == [0] == fast.route_exact(Q[0], 0.0)
        assert fast.n_dist_evals == 0
        return
    _assert_agree(fast, slow, Q, (1, 4, n_parts), _boundary_taus(fast))


@needs_native
def test_tau_zero_on_the_radius_takes_both_sides(monkeypatch):
    """A member that defines a radius lies on it: ``route_exact(x, 0)``
    must descend both children there, on both paths."""
    X = _points(200, 17, seed=3)
    root, n_parts = _skeleton(X, leaf_size=4, seed=3)
    fast, slow = _twins(root, n_parts, monkeypatch)
    on_radius = 0
    for x in X:
        d = math.sqrt(_l2sq_one_to_many(x.astype(np.float64), root._vp64)[0])
        if d == root.mu:
            on_radius += 1
            parts = fast.route_exact(x, 0.0)
            assert parts == slow.route_exact(x, 0.0)
            assert set(_leaves(root.left)) & set(parts) and set(_leaves(root.right)) & set(parts)
    assert on_radius >= 1


@needs_native
def test_failed_selfcheck_leaves_only_that_width_on_python(monkeypatch):
    real = hnsw_native._l2sq_one_to_many

    def off_by_one_ulp_at_width_7(q, X):
        out = real(q, X)
        return np.nextafter(out, np.inf) if q.shape[0] == 7 else out

    monkeypatch.setattr(hnsw_native, "_checked_route", {})
    monkeypatch.setattr(hnsw_native, "_l2sq_one_to_many", off_by_one_ulp_at_width_7)
    routers = {}
    for dim in (7, 8):
        X = _points(60, dim, seed=4)
        routers[dim] = PartitionRouter(*_skeleton(X, leaf_size=4, seed=4))
    assert not routers[7].native_active
    assert routers[8].native_active
    assert hnsw_native._checked_route == {7: False, 8: True}


def test_other_metrics_stay_on_python():
    X = _points(80, 8, seed=5)
    root, n_parts = _skeleton(X, leaf_size=4, seed=5)
    for metric in ("l1", "linf"):
        assert not PartitionRouter(root, n_parts, metric).native_active


def test_wrong_width_query_is_refused():
    X = _points(80, 8, seed=6)
    router = PartitionRouter(*_skeleton(X, leaf_size=4, seed=6))
    for bad in (np.zeros(1, np.float32), np.zeros(9, np.float32)):
        with pytest.raises(ValueError, match="dimension"):
            router.route_approx(bad, 2)
        with pytest.raises(ValueError, match="dimension"):
            router.route_exact(bad, 0.5)


def test_skeleton_is_stored_once():
    """Every internal node's float64 row is a view of the router's matrix."""
    X = _points(120, 12, seed=7)
    router = PartitionRouter(*_skeleton(X, leaf_size=4, seed=7))
    stack, seen = [router.root], 0
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        assert node._vp64.base is router._vps and node._vp64.shape == (1, 12)
        seen += 1
        stack += [node.left, node.right]
    assert seen == len(router._vps)


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_HNSW_NO_NATIVE")) or shutil.which("gcc") is None,
    reason="routing is python by request or for want of a compiler",
)
def test_fitted_system_routes_compiled():
    """Where a compiler exists the fitted system's router must be the
    compiled one: a silent fallback would cost every query its route."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(800, 16)).astype(np.float32)
    cfg = SystemConfig(n_cores=8, cores_per_node=4, k=5, seed=1, hnsw=HnswParams(M=8, ef_construction=40))
    ann = DistributedANN(cfg)
    ann.fit(X)
    assert ann.router.native_active
