"""Per-query distributed trace recorder.

A :class:`TraceRecorder` collects *spans* (named virtual-time intervals on
one proc, with intra-proc parent links) and *instants* (zero-width
markers) across every proc of a simulation run.  It is pure
bookkeeping: recording appends to python lists and never touches the
engine's clocks, scheduling, or randomness, so a traced run is bit-identical
to an untraced one — the zero-virtual-time invariant the observability
tests pin.

Cross-proc causality (master ``task_send`` → worker ``queue``/``search``)
is *not* carried on the wire — messages stay byte-identical with tracing on
or off.  The exporters pair the k-th ``task_send`` instant for a
``(query_id, partition)`` with the k-th worker-side span for the same key
in virtual-time order, which also handles fault-tolerant retries (attempt
k pairs with delivery k).  See :mod:`repro.obs.export`.
"""

from __future__ import annotations

__all__ = ["InstantRecord", "SpanRecord", "TraceRecorder"]


class SpanRecord:
    """One named virtual-time interval on one proc."""

    __slots__ = ("id", "pid", "name", "start", "end", "parent", "attrs")

    def __init__(self, id, pid, name, start, end=None, parent=None, attrs=None):  # noqa: A002
        self.id = id
        self.pid = pid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs


class InstantRecord:
    """One zero-width marker on one proc."""

    __slots__ = ("pid", "name", "ts", "attrs")

    def __init__(self, pid, name, ts, attrs=None):
        self.pid = pid
        self.name = name
        self.ts = ts
        self.attrs = attrs


def _clean(attrs: dict | None) -> dict | None:
    if not attrs:
        return None
    out = {k: v for k, v in attrs.items() if v is not None}
    return out or None


class TraceRecorder:
    """Append-only store of spans and instants for one run."""

    __slots__ = ("spans", "instants", "procs", "_stacks", "_next_id")

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        #: pid -> (proc name, node)
        self.procs: dict[int, tuple] = {}
        self._stacks: dict[int, list[SpanRecord]] = {}
        self._next_id = 1

    # -- topology ---------------------------------------------------------

    def register_proc(self, pid: int, name: str, node: int) -> None:
        self.procs[pid] = (name, node)

    # -- spans ------------------------------------------------------------

    def begin_span(self, pid: int, name: str, ts: float, attrs: dict | None = None) -> SpanRecord:
        stack = self._stacks.setdefault(pid, [])
        parent = stack[-1].id if stack else None
        span = SpanRecord(self._next_id, pid, name, ts, None, parent, _clean(attrs))
        self._next_id += 1
        self.spans.append(span)
        stack.append(span)
        return span

    def end_span(self, pid: int, ts: float) -> None:
        stack = self._stacks.get(pid)
        if stack:
            stack.pop().end = ts

    def complete_span(
        self, pid: int, name: str, start: float, end: float, attrs: dict | None = None
    ) -> SpanRecord:
        """Record an already-closed span (e.g. a stall measured after the
        fact); parented under the proc's currently-open span, if any."""
        stack = self._stacks.get(pid)
        parent = stack[-1].id if stack else None
        span = SpanRecord(self._next_id, pid, name, start, end, parent, _clean(attrs))
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- instants -----------------------------------------------------------

    def instant(self, pid: int, name: str, ts: float, attrs: dict | None = None) -> None:
        self.instants.append(InstantRecord(pid, name, ts, _clean(attrs)))

    # -- queries ----------------------------------------------------------

    def span_names(self) -> set:
        return {s.name for s in self.spans}

    def instant_names(self) -> set:
        return {i.name for i in self.instants}

    def events_for_query(self, query_id: int) -> tuple[list, list]:
        """All (spans, instants) tagged with ``query_id`` — directly via a
        ``query_id`` attr or via membership in a batch's ``query_ids``."""

        def tagged(attrs):
            if not attrs:
                return False
            if attrs.get("query_id") == query_id:
                return True
            ids = attrs.get("query_ids")
            return ids is not None and query_id in ids

        return (
            [s for s in self.spans if tagged(s.attrs)],
            [i for i in self.instants if tagged(i.attrs)],
        )
