"""Per-proc timing statistics and span-level phase tracing.

These feed Fig. 5 (search-time breakdown): every proc accumulates where its
virtual time went — computation by kind, send/receive overheads, blocked
communication waits, and RMA — and the report
(:mod:`repro.runtime.report`) sums them across ranks in one pass.

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

__all__ = ["PHASES", "ProcStats"]

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


@dataclass(slots=True)
class ProcStats:
    """Where one proc's virtual time went, plus traffic counters (the
    engine updates the fields in place, with no method call)."""

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
    #: elapsed virtual seconds inside named spans (see :data:`PHASES`),
    #: names in the order the proc first closed them
    span_time: dict[str, float] = field(default_factory=dict)
