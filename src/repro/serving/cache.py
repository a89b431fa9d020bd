"""Hot-query result cache with LRU eviction.

Real serving traffic is heavy-tailed (the Zipf workloads in
``repro.datasets``): a small set of hot queries recurs constantly, and
answering a repeat from a master-side cache skips routing, dispatch,
and every local search — the single cheapest capacity win an ANN
serving tier has.

Two key modes:

- ``exact`` — the key is the query's quantized (float32) byte string, so
  a hit is only ever an *identical* vector and the cached row is
  bit-identical to what the cluster would have recomputed (the
  equivalence the serving tests pin);
- ``near`` — the key is a coarse quantizer cell: the sign pattern of the
  query against a seeded set of random hyperplanes (a 2^bits-cell
  quantization of the sphere).  Any query in the cell reuses the cell's
  last answer — an approximation trade (documented, off by default)
  that buys hits on near-duplicate queries.

Entries carry the cache *version*; :meth:`ResultCache.invalidate` bumps
it (e.g. after an index mutation), and a lookup that lands on an
out-of-version entry is dropped and counted ``stale`` rather than served
— the cache coherence rule described in docs/serving.md.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

import numpy as np

from repro.obs.metrics import Instrument, MetricsRegistry

__all__ = ["CACHE_MODES", "ResultCache", "cache_namespace"]

CACHE_MODES = ("exact", "near")


def cache_namespace(tenant: int | None, fpayload: dict | None) -> bytes:
    """The cache-key namespace of a (tenant, filter) pair.

    Filtered or tenant-scoped answers are only valid for identical
    predicates: prefixing every key with a digest of the pair keeps one
    tenant's (or one filter's) entries invisible to every other.  Both
    None — the unfiltered single-tenant run — maps to the empty prefix,
    so those keys stay byte-identical to the pre-filtering cache.
    """
    if tenant is None and fpayload is None:
        return b""
    blob = json.dumps(
        {"tenant": tenant, "filter": fpayload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).digest()[:8]


class ResultCache:
    """LRU map from query key to a finished ``(distances, ids)`` row.

    The hit/miss/stale/eviction ledgers are ``cache.*`` instruments in a
    :class:`MetricsRegistry`; handed the run-wide registry, they are the
    numbers ``SearchReport.cache_hits`` etc. read.
    """

    def __init__(
        self,
        capacity: int,
        mode: str = "exact",
        dim: int | None = None,
        n_bits: int = 16,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        namespace: bytes = b"",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if mode not in CACHE_MODES:
            raise ValueError(f"cache mode must be one of {CACHE_MODES}, got {mode!r}")
        self.capacity = int(capacity)
        self.mode = mode
        #: key prefix isolating this cache's entries to one (tenant, filter)
        #: namespace (see :func:`cache_namespace`); empty = legacy keys
        self.namespace = bytes(namespace)
        self.version = 0
        self.registry = metrics if metrics is not None else MetricsRegistry()
        #: (version, (dists, ids)) by key, in LRU order (oldest first)
        self._entries: OrderedDict[bytes, tuple[int, tuple]] = OrderedDict()
        if mode == "near":
            if dim is None:
                raise ValueError("near-duplicate cache mode needs the query dim")
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA]))
            #: coarse quantizer: random hyperplane normals, one sign bit each
            self._planes = rng.normal(size=(int(dim), int(n_bits)))

    hits = Instrument("counter", "cache.hits")
    misses = Instrument("counter", "cache.misses")
    stale = Instrument("counter", "cache.stale")
    evictions = Instrument("counter", "cache.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, q: np.ndarray) -> bytes:
        """The cache key of a query vector (quantized bytes or cell id),
        prefixed with the (tenant, filter) namespace."""
        q32 = np.ascontiguousarray(q, dtype=np.float32)
        if self.mode == "exact":
            return self.namespace + q32.tobytes()
        return self.namespace + np.packbits(
            q32.astype(np.float64) @ self._planes > 0.0
        ).tobytes()

    def get(self, key: bytes):
        """The cached ``(dists, ids)`` row, or None (counted miss/stale)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        version, row = entry
        if version != self.version:
            del self._entries[key]
            self.stale += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return row

    def put(self, key: bytes, row: tuple) -> None:
        """Insert/refresh a finished result row under ``key``."""
        self._entries[key] = (self.version, row)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> None:
        """Mark every current entry stale (index contents changed)."""
        self.version += 1
