"""repro — distributed approximate k-NN search (CLUSTER 2020 reproduction).

A faithful, self-contained reimplementation of "Fast Scalable Approximate
Nearest Neighbor Search for High-dimensional Data" (Renga Bashyam &
Vadhiyar, IEEE CLUSTER 2020): dataset partitioning with distributed
vantage-point trees, HNSW local indexes, a master-worker batch-query engine
with MPI one-sided result accumulation and replication-based load
balancing — all running on a deterministic simulated MPI cluster so the
paper's 8192-core experiments reproduce on a laptop.

Quick start::

    import numpy as np
    from repro import DistributedANN, SystemConfig

    X = np.random.default_rng(0).normal(size=(4000, 64)).astype("float32")
    ann = DistributedANN(SystemConfig(n_cores=8, cores_per_node=4))
    ann.fit(X)
    D, I, report = ann.query(X[:100], k=10)
    print(report.total_seconds, report.comm_fraction)

Subpackages
-----------
- ``repro.core``      — the paper's system (partitioning, master/worker
  search, replication, one-sided results).
- ``repro.hnsw``      — HNSW graphs from scratch.
- ``repro.vptree``    — VP-trees: serial, routing, distributed build.
- ``repro.kdtree``    — the exact KD-tree baseline (PANDA-style).
- ``repro.simmpi``    — the simulated MPI runtime (engine/comm/RMA).
- ``repro.datasets``  — synthetic corpora, file formats, ground truth.
- ``repro.metrics``   — vectorized distance metrics.
- ``repro.eval``      — recall, load statistics, scaling tables.
- ``repro.obs``       — metrics registry, per-query traces, exporters.
- ``repro.filtering`` — per-vector metadata, filter predicates, tenants.

The names below are the supported public surface; everything else under
``repro.*`` is internal and may move between releases.
``tests/test_public_api.py`` pins this list — extend it deliberately, in
both places.
"""

from repro.core import DistributedANN, SystemConfig, BuildReport, SearchReport
from repro.core.replication import Workgroups
from repro.faults import FaultSpec
from repro.filtering import FilterSpec, MetadataStore
from repro.hnsw import HnswIndex, HnswParams
from repro.kdtree import KDTree
from repro.loadbalance import ReplicaSelector
from repro.obs import MetricsRegistry, TraceRecorder
from repro.runtime import ClusterRuntime
from repro.vptree import VPTree, PartitionRouter

__version__ = "1.0.0"

__all__ = [
    "BuildReport",
    "ClusterRuntime",
    "DistributedANN",
    "FaultSpec",
    "FilterSpec",
    "HnswIndex",
    "HnswParams",
    "KDTree",
    "MetadataStore",
    "MetricsRegistry",
    "PartitionRouter",
    "ReplicaSelector",
    "SearchReport",
    "SystemConfig",
    "TraceRecorder",
    "VPTree",
    "Workgroups",
    "__version__",
]
