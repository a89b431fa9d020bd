"""Data partitions and per-node partition stores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hnsw.index import HnswIndex
from repro.metrics.topk import ScanRows

__all__ = ["Partition", "NodeStore"]


@dataclass
class Partition:
    """One VP-tree leaf: a chunk of the dataset plus its local index.

    ``index`` is None when the system runs with the modeled searcher (the
    virtual partition is too large to index for real); ``sample`` then
    holds the small real subsample modeled searches answer from.
    """

    partition_id: int
    points: np.ndarray
    ids: np.ndarray
    index: HnswIndex | None = None
    sample: tuple[np.ndarray, np.ndarray] | None = None
    #: per-row attribute columns (this partition's slice of the build-time
    #: :class:`~repro.filtering.MetadataStore`); None on unfiltered builds.
    #: Row-aligned with ``points``/``ids`` — and, because the local HNSW
    #: inserts rows in order, with the index's internal node ids, so a row
    #: mask over these columns doubles as the index's filter mask.
    attrs: dict[str, np.ndarray] | None = None
    #: rows of ``points`` the modeled ``sample`` was drawn from (position-
    #: aligned with the sample's rows); None with a real index
    sample_rows: np.ndarray | None = None
    _sample_scan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def sample_scan(self) -> ScanRows | None:
        """``sample`` prepared for exact top-k scans (None without one);
        prepared on first use and kept until ``sample`` is replaced."""
        if self.sample is None:
            return None
        kept = self._sample_scan
        if kept is None or kept[0] is not self.sample:
            kept = self._sample_scan = (self.sample, ScanRows(*self.sample))
        return kept[1]

    @property
    def n_points(self) -> int:
        return len(self.ids)

    @property
    def nbytes(self) -> int:
        base = int(self.points.nbytes + self.ids.nbytes)
        if self.attrs:
            base += int(sum(col.nbytes for col in self.attrs.values()))
        return base


@dataclass
class NodeStore:
    """All partitions resident in one compute node's shared memory.

    With replication factor r, a node stores not only the partitions of its
    own cores but every partition whose workgroup includes one of its cores
    — that is the memory cost of the load-balancing optimisation the paper
    calls out, and :meth:`total_bytes` is what the memory-budget check in
    the engine validates against the node's capacity.
    """

    node_id: int
    partitions: dict[int, Partition] = field(default_factory=dict)

    def add(self, partition: Partition) -> None:
        self.partitions[partition.partition_id] = partition

    def get(self, partition_id: int) -> Partition:
        try:
            return self.partitions[partition_id]
        except KeyError:
            raise KeyError(
                f"node {self.node_id} does not hold partition {partition_id}; "
                f"resident: {sorted(self.partitions)}"
            ) from None

    def __contains__(self, partition_id: int) -> bool:
        return partition_id in self.partitions

    def total_bytes(self) -> int:
        return sum(p.nbytes for p in self.partitions.values())
