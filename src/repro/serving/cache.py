"""Hot-query result cache with LRU eviction.

Real serving traffic is heavy-tailed (the Zipf workloads in
``repro.datasets``): a small set of hot queries recurs constantly, and
answering a repeat from a master-side cache skips routing, dispatch,
and every local search — the single cheapest capacity win an ANN
serving tier has.

The key is the query's float32 byte string, so a hit is only ever an
*identical* vector and the cached row is bit-identical to what the
cluster would have recomputed (the equivalence the serving tests pin).

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

__all__ = ["ResultCache", "cache_namespace"]


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
        metrics: MetricsRegistry | None = None,
        namespace: bytes = b"",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: key prefix isolating this cache's entries to one (tenant, filter)
        #: namespace (see :func:`cache_namespace`); empty = legacy keys
        self.namespace = bytes(namespace)
        self.version = 0
        self.registry = metrics if metrics is not None else MetricsRegistry()
        #: (version, (dists, ids)) by key, in LRU order (oldest first)
        self._entries: OrderedDict[bytes, tuple[int, tuple]] = OrderedDict()

    hits = Instrument("counter", "cache.hits")
    misses = Instrument("counter", "cache.misses")
    stale = Instrument("counter", "cache.stale")
    evictions = Instrument("counter", "cache.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, q: np.ndarray) -> bytes:
        """The cache key of a query vector: its float32 bytes, prefixed
        with the (tenant, filter) namespace."""
        return self.namespace + np.ascontiguousarray(q, dtype=np.float32).tobytes()

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
