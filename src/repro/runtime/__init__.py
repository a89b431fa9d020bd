"""Search orchestration: ClusterRuntime + pluggable dispatch strategies.

One entrypoint (:class:`ClusterRuntime`) simulates a batch search for any
dispatch design; :class:`DispatchStrategy` is the seam a new routing,
sharding, batching, or serving strategy plugs into; :class:`ReportBuilder`
assembles the uniform :class:`SearchReport` every mode returns.

Layering: ``repro.runtime`` sits above :mod:`repro.simmpi` (the simulated
cluster) and the per-role programs in :mod:`repro.core`
(master/owner/worker bodies), and below the facades
(:class:`~repro.core.engine.DistributedANN`,
:class:`~repro.kdtree.system.KDBaselineSystem`).
"""

from repro.runtime.cluster import ClusterRuntime, SearchJob
from repro.runtime.report import ReportBuilder, SearchReport
from repro.runtime.strategies import (
    DispatchStrategy,
    MasterWorkerStrategy,
    MultipleOwnerStrategy,
    strategy_for,
)

__all__ = [
    "ClusterRuntime",
    "SearchJob",
    "ReportBuilder",
    "SearchReport",
    "DispatchStrategy",
    "MasterWorkerStrategy",
    "MultipleOwnerStrategy",
    "strategy_for",
]
