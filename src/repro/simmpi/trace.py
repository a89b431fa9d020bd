"""Per-proc timing statistics and span-level phase tracing.

These feed Fig. 5 (search-time breakdown): every proc accumulates where its
virtual time went — computation by kind, send/receive overheads, blocked
communication waits, and RMA — and the eval layer aggregates them
across ranks.

On top of the low-level counters sits a *span* layer: proc code opens named
spans (``with ctx.span("route"): ...``) around the logical phases of the
search pipeline, and every strategy emits the same phase vocabulary
(:data:`PHASES`), so the eval layer and the CLI can render one uniform
per-phase breakdown regardless of which dispatch strategy ran the batch.
Spans measure elapsed virtual intervals — they include any communication
blocking inside the phase — and recording one costs zero virtual time, so
tracing never perturbs the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PHASES", "ProcStats", "aggregate_stats", "aggregate_spans"]

#: The uniform phase vocabulary every dispatch strategy emits:
#:
#: - ``route``    — query-to-partition routing through the tree skeleton,
#: - ``dispatch`` — task fan-out to worker nodes,
#: - ``search``   — local index searches on the workers,
#: - ``reduce``   — result merging (two-sided recv+merge, or the worker-side
#:   RMA accumulate in one-sided mode),
#: - ``drain``    — shutdown: End-of-Queries broadcast, barriers, and
#:   thread-completion collection.
PHASES = ("route", "dispatch", "search", "reduce", "drain")


@dataclass
class ProcStats:
    """Where one proc's virtual time went, plus traffic counters."""

    name: str = ""
    #: computation seconds by kind (e.g. "search", "build", "route")
    compute: dict[str, float] = field(default_factory=dict)
    #: CPU time spent initiating sends
    send_time: float = 0.0
    #: CPU time spent completing receives
    recv_time: float = 0.0
    #: virtual time spent blocked waiting for messages/collectives
    comm_wait: float = 0.0
    #: origin-side time of one-sided operations
    rma_time: float = 0.0
    msgs_sent: int = 0
    bytes_sent: int = 0
    rma_ops: int = 0
    #: elapsed virtual seconds inside named spans (see :data:`PHASES`)
    span_time: dict[str, float] = field(default_factory=dict)
    #: number of spans recorded per name
    span_counts: dict[str, int] = field(default_factory=dict)

    def add_compute(self, kind: str, seconds: float) -> None:
        self.compute[kind] = self.compute.get(kind, 0.0) + seconds

    def add_span(self, name: str, seconds: float) -> None:
        self.span_time[name] = self.span_time.get(name, 0.0) + seconds
        self.span_counts[name] = self.span_counts.get(name, 0) + 1

    @property
    def compute_total(self) -> float:
        return sum(self.compute.values())

    @property
    def comm_total(self) -> float:
        """All communication-attributable time (overheads + waits +
        one-sided)."""
        return self.send_time + self.recv_time + self.comm_wait + self.rma_time

    @property
    def busy_total(self) -> float:
        return self.compute_total + self.comm_total


def aggregate_stats(stats: list[ProcStats]) -> dict[str, float]:
    """Sum a set of proc stats into one breakdown dict (seconds)."""
    out = {"compute": 0.0, "send": 0.0, "recv": 0.0, "wait": 0.0, "rma": 0.0}
    for s in stats:
        out["compute"] += s.compute_total
        out["send"] += s.send_time
        out["recv"] += s.recv_time
        out["wait"] += s.comm_wait
        out["rma"] += s.rma_time
    return out


def aggregate_spans(stats: list[ProcStats]) -> dict[str, float]:
    """Sum span times across procs into one phase breakdown (seconds).

    Every name in :data:`PHASES` is always present (0.0 when no proc
    recorded it); extra custom span names pass through untouched.
    """
    out = {p: 0.0 for p in PHASES}
    for s in stats:
        for name, seconds in s.span_time.items():
            out[name] = out.get(name, 0.0) + seconds
    return out
