"""Metrics registry: counters, gauges, and histograms with label sets.

One :class:`MetricsRegistry` per run is the only store of scalar telemetry:
the simulation engine, every coordinator and owner, the dispatch window, the
load tracker and the serving layer all count into the registry the
:class:`~repro.runtime.cluster.ClusterRuntime` hands them, each number
written where it is produced (an :class:`Instrument` attribute or a held
:class:`Counter` / :class:`Gauge`).  :class:`~repro.runtime.report.
SearchReport` stores the registry's dump and reads its scalars back out of
it, so there is one set of books and one exportable dump.

Instruments are identified by ``(name, sorted(labels))``; asking for the
same name+labels twice returns the same object.  Recording is plain python
attribute arithmetic on the simulated (virtual-clock-free) side — it costs
zero virtual time by construction and never touches the engine's clocks or
randomness, so enabling metrics cannot perturb a run.
"""

from __future__ import annotations

from operator import methodcaller

__all__ = ["Counter", "Gauge", "Histogram", "Instrument", "MetricsRegistry"]

#: default histogram bucket upper bounds (seconds-ish exponential ladder)
DEFAULT_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


class Counter:
    """A monotonically-growing count (float-valued so time totals fit)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level; ``merge`` keeps the max (peak semantics)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def track_max(self, value) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summary stats."""

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, labels: tuple, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self.counts)
                if c
            },
        }


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _render_key(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _json_scalar(v):
    # numpy scalars (int64 counts, float64 times) must not leak into dumps
    if hasattr(v, "item"):
        return v.item()
    return v


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create; instruments are
    shared by identity, so every owner of one run counts into the same
    ``coordinator.tasks_sent`` when handed the same registry.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- instruments ------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, **labels) -> Histogram:
        key = _key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, key[1], buckets)
        return inst

    # -- reads ------------------------------------------------------------

    def value(self, name: str, **labels):
        """Current value of a counter or gauge (0 if never touched)."""
        key = _key(name, labels)
        inst = self._counters.get(key) or self._gauges.get(key)
        return inst.value if inst is not None else 0

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry: counters add, gauges take the
        max (peaks), histograms pool their buckets."""
        for key, c in other._counters.items():
            self._counters.setdefault(key, Counter(c.name, key[1])).value += c.value
        for key, g in other._gauges.items():
            self._gauges.setdefault(key, Gauge(g.name, key[1])).track_max(g.value)
        for key, h in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram(h.name, key[1], h.bounds)
            if mine.bounds == h.bounds:
                for i, c in enumerate(h.counts):
                    mine.counts[i] += c
            else:  # incompatible ladders: keep summary stats only
                for i, c in enumerate(h.counts):
                    mine.counts[-1] += c
            mine.count += h.count
            mine.total += h.total
            mine.min = min(mine.min, h.min)
            mine.max = max(mine.max, h.max)

    def dump(self) -> dict:
        """JSON-safe snapshot: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with ``name{label=value,...}`` keys."""
        return {
            "counters": {
                _render_key(c.name, c.labels): _json_scalar(c.value)
                for c in self._counters.values()
            },
            "gauges": {
                _render_key(g.name, g.labels): _json_scalar(g.value)
                for g in self._gauges.values()
            },
            "histograms": {
                _render_key(h.name, h.labels): h.summary()
                for h in self._histograms.values()
            },
        }


class Instrument:
    """Class attribute backed by one named counter or gauge.

    ``tasks_sent = Instrument("counter", "coordinator.tasks_sent")`` on a
    class whose instances carry a ``registry`` makes ``obj.tasks_sent`` read
    and ``obj.tasks_sent += n`` write that instrument's value — the owner
    keeps its plain-attribute call sites and the registry keeps the number.
    """

    __slots__ = ("_store", "_key", "_create")

    def __init__(self, kind: str, name: str) -> None:
        self._store = f"_{kind}s"  # the registry dict that holds this kind
        self._key = _key(name, {})
        self._create = methodcaller(kind, name)

    def _of(self, registry: MetricsRegistry):
        # one dict lookup per access: these sit on the per-task send path
        inst = getattr(registry, self._store).get(self._key)
        return inst if inst is not None else self._create(registry)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self._of(obj.registry).value

    def __set__(self, obj, value) -> None:
        self._of(obj.registry).value = value
