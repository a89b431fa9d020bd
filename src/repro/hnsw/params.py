"""HNSW hyper-parameters.

``M`` is the knob the paper sweeps in Fig. 6 ({8, 16, 32, 64}, default 16):
more links per node means better recall, more memory, and slower search.
Links are always chosen by the diversity heuristic with pruned
candidates backfilled (:mod:`repro.hnsw.select`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["HnswParams"]


@dataclass(frozen=True)
class HnswParams:
    """Construction and search parameters for one HNSW index."""

    #: number of links per node on layers >= 1 (paper's M; Fig. 6 sweeps this)
    M: int = 16
    #: beam width during construction
    ef_construction: int = 100
    #: default beam width during search (callers may override per query)
    ef_search: int = 50
    #: build a single-layer NSW graph instead of the hierarchy (the
    #: predecessor structure, Malkov et al. 2014).  Search then starts from
    #: the fixed entry point on layer 0: O(log^2 n) hops vs HNSW's
    #: O(log n) — the ablation benchmarks measure exactly that gap.
    flat: bool = False
    #: RNG seed for level sampling
    seed: int = 0
    #: max links on layer 0; None = the standard 2*M (normalized to an
    #: explicit int in ``__post_init__`` so it serializes round-trip)
    M0: int | None = None

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < 1:
            raise ValueError(f"ef_construction must be >= 1, got {self.ef_construction}")
        if self.ef_search < 1:
            raise ValueError(f"ef_search must be >= 1, got {self.ef_search}")
        if self.M0 is None:
            object.__setattr__(self, "M0", 2 * self.M)
        elif self.M0 < 2:
            raise ValueError(f"M0 must be >= 2, got {self.M0}")

    @property
    def level_mult(self) -> float:
        """Level-sampling multiplier mL = 1/ln(M) (paper's recommended value)."""
        return 1.0 / math.log(self.M)
