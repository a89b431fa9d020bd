"""Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI 2018).

A from-scratch implementation of the paper's local index: a multi-layer
proximity graph where layer 0 holds every point and each higher layer is an
exponentially-thinned navigable small-world graph.  Search greedily descends
from the sparse top layer; construction inserts points with a beam search of
width ``ef_construction`` and connects them with either simple closest-M
selection or the diversity heuristic (Algorithm 4 of the HNSW paper).

Every index operation counts its distance evaluations (``n_dist_evals``),
which is what the simulated cluster charges virtual time for.
"""

from repro.hnsw.params import HnswParams
from repro.hnsw.index import HnswIndex
from repro.hnsw.stats import graph_stats, layer_connectivity

__all__ = [
    "HnswParams",
    "HnswIndex",
    "graph_stats",
    "layer_connectivity",
]
