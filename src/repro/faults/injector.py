"""The FaultInjector: enacts a FaultSpec inside the simulation engine.

The engine consults the injector at three points — when a proc charges
compute time (slow nodes), when a message is sent (per-link drop /
duplication / delay / degradation, and loss at a crashed destination), and
at each scheduled crash instant (the engine pushes one event-queue marker
per crash and calls back to kill the node's procs).  Every perturbation is
recorded as a :class:`FaultEvent` with its virtual time, so a run's fault
history lands in the :class:`~repro.simmpi.engine.SimulationResult` trace
alongside the per-proc stats.

All randomness comes from one ``random.Random(spec.seed)``; since the
engine itself is deterministic, the full faulted run is reproducible
bit-for-bit for a fixed (inputs, config, spec) triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from random import Random
from typing import TYPE_CHECKING

from repro.faults.spec import ANY_NODE, FaultSpec, LinkFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.network import NetworkModel

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One enacted perturbation: what happened, when, and to whom."""

    time: float
    kind: str  # "crash" | "msg_drop" | "msg_dup" | "msg_delay" | "msg_lost_node_down"
    detail: dict = field(default_factory=dict)


class FaultInjector:
    """Runtime state of one FaultSpec: RNG, crash table, event log."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._rng = Random(spec.seed)
        self._crash_at = {c.node: c.at for c in spec.crashes}
        self._slow = {s.node: s.factor for s in spec.slow_nodes}
        self.events: list[FaultEvent] = []

    # -- trace ---------------------------------------------------------------

    def record(self, kind: str, time: float, **detail) -> None:
        self.events.append(FaultEvent(time=float(time), kind=kind, detail=detail))

    # -- crashes -------------------------------------------------------------

    def crash_schedule(self) -> list[tuple[int, float]]:
        """(node, time) pairs in time order, for the engine's event queue."""
        return sorted(((c.node, c.at) for c in self.spec.crashes), key=lambda x: x[1])

    def node_down(self, node: int | None, at: float) -> bool:
        """Is ``node`` crashed as of virtual time ``at``?"""
        if node is None:
            return False
        t = self._crash_at.get(node)
        return t is not None and at >= t

    # -- slow nodes ----------------------------------------------------------

    def compute_factor(self, node: int) -> float:
        return self._slow.get(node, 1.0)

    # -- links ---------------------------------------------------------------

    def _match_link(self, src: int, dst: int | None) -> LinkFault | None:
        for ln in self.spec.links:
            # a transfer that stays on its node crosses no link (the serving
            # ingress shares the master's node): only a fault naming both
            # endpoints reaches it, never a wildcard
            if src == dst and ANY_NODE in (ln.src, ln.dst):
                continue
            if ln.src not in (ANY_NODE, src):
                continue
            if dst is None:
                if ln.dst != ANY_NODE:
                    continue
            elif ln.dst not in (ANY_NODE, dst):
                continue
            return ln
        return None

    def transfer_times(
        self,
        src: int,
        dst: int | None,
        nbytes: int,
        same_node: bool,
        network: "NetworkModel",
        now: float,
    ) -> list[float]:
        """Wire times (after the sender's clock) of each delivered copy.

        ``[]`` means the message was dropped; two entries mean it was
        duplicated.  The clean-fabric result is ``[p2p_time(...)]``.
        """
        fault = self._match_link(src, dst)
        if fault is None:
            return [network.p2p_time(nbytes, same_node)]
        if fault.drop_prob > 0 and self._rng.random() < fault.drop_prob:
            self.record("msg_drop", now, src=src, dst=dst, nbytes=nbytes)
            return []
        t = network.p2p_time(
            nbytes,
            same_node,
            latency_factor=fault.latency_factor,
            bandwidth_factor=fault.bandwidth_factor,
        )
        if fault.delay_prob > 0 and self._rng.random() < fault.delay_prob:
            self.record(
                "msg_delay", now, src=src, dst=dst, extra_seconds=fault.delay_seconds
            )
            t += fault.delay_seconds
        if fault.dup_prob > 0 and self._rng.random() < fault.dup_prob:
            self.record("msg_dup", now, src=src, dst=dst, nbytes=nbytes)
            return [t, t]
        return [t]
