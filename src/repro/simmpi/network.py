"""Network timing model.

All communication times in the simulation come from a latency/bandwidth
(Hockney alpha-beta) model with separate intra-node and inter-node
parameters, plus analytic models of the standard collective algorithms
(binomial-tree broadcast/reduce, dissemination barrier, pairwise-exchange
all-to-all).  The defaults, ``ARIES_LIKE``, approximate the paper's Cray
Aries interconnect; ``ETHERNET_LIKE`` is provided for sensitivity studies
(ablation benches run both to show the conclusions do not hinge on the
fabric constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.simmpi.errors import SimConfigError

__all__ = ["NetworkModel", "ARIES_LIKE", "ETHERNET_LIKE", "XC40_AT_SCALE"]


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta network parameters (seconds, bytes/second)."""

    #: per-message latency between nodes
    inter_latency: float = 1.3e-6
    #: per-message latency within a node (shared-memory transport)
    intra_latency: float = 0.4e-6
    #: point-to-point bandwidth between nodes
    inter_bandwidth: float = 10.0e9
    #: point-to-point bandwidth within a node
    intra_bandwidth: float = 40.0e9
    #: CPU-side per-message software overhead (matching, packing)
    sw_overhead: float = 0.3e-6
    #: extra latency of a one-sided atomic (NIC-side fetch-op)
    rma_latency: float = 1.8e-6
    #: straggler/OS-jitter penalty added to every collective, in seconds per
    #: log2(P).  At thousands of ranks, real collectives pay amplified
    #: per-rank jitter (Hoefler et al.'s OS-noise amplification); this term
    #: is what makes tree-construction time grow with P as Table II shows.
    #: Zero by default; XC40_AT_SCALE enables it.
    straggler_coeff: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "inter_latency",
            "intra_latency",
            "inter_bandwidth",
            "intra_bandwidth",
            "sw_overhead",
            "rma_latency",
        ):
            if getattr(self, name) <= 0:
                raise SimConfigError(f"{name} must be positive")
        if self.straggler_coeff < 0:
            raise SimConfigError("straggler_coeff must be non-negative")

    def _straggler(self, p: int) -> float:
        if p <= 1 or self.straggler_coeff == 0.0:
            return 0.0
        return self.straggler_coeff * math.log2(p)

    # -- point-to-point ---------------------------------------------------

    def p2p_time(
        self,
        nbytes: int,
        same_node: bool,
        *,
        latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
    ) -> float:
        """One-way transfer time for an eager point-to-point message.

        The optional factors scale this one transfer's alpha-beta
        parameters — the hook :class:`~repro.faults.FaultInjector` uses to
        model persistently degraded links without mutating the model.
        """
        if same_node:
            return (
                self.intra_latency * latency_factor
                + nbytes / (self.intra_bandwidth * bandwidth_factor)
            )
        return (
            self.inter_latency * latency_factor
            + nbytes / (self.inter_bandwidth * bandwidth_factor)
        )

    def send_overhead(self) -> float:
        """CPU time the sender spends initiating a non-blocking send."""
        return self.sw_overhead

    def recv_overhead(self) -> float:
        """CPU time the receiver spends completing a matched receive."""
        return self.sw_overhead

    # -- one-sided --------------------------------------------------------

    def rma_accumulate_time(self, nbytes: int, same_node: bool) -> float:
        """Round-trip time of one ``MPI_Get_accumulate``.

        One-sided atomics complete on the NIC without target CPU
        involvement; the *origin* pays roughly one latency plus wire time,
        and crucially the *target* pays nothing — that asymmetry is exactly
        why the paper's one-sided result path removes the master-side
        bottleneck.
        """
        base = self.intra_latency if same_node else self.rma_latency
        bw = self.intra_bandwidth if same_node else self.inter_bandwidth
        return base + nbytes / bw

    # -- collectives ------------------------------------------------------

    def barrier_time(self, p: int) -> float:
        """Dissemination barrier: ceil(log2 p) rounds of latency."""
        if p <= 1:
            return 0.0
        return math.ceil(math.log2(p)) * self.inter_latency + self._straggler(p)

    def bcast_time(self, p: int, nbytes: int) -> float:
        """Binomial-tree broadcast."""
        if p <= 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        return rounds * (self.inter_latency + nbytes / self.inter_bandwidth) + self._straggler(p)

    def reduce_time(self, p: int, nbytes: int) -> float:
        """Binomial-tree reduction (same α-β shape as bcast)."""
        return self.bcast_time(p, nbytes)

    def allreduce_time(self, p: int, nbytes: int) -> float:
        """Reduce + broadcast (the classic non-pipelined bound)."""
        return 2.0 * self.bcast_time(p, nbytes)

    def gather_time(self, p: int, nbytes_per_rank: int) -> float:
        """Binomial gather: log p rounds, doubling data per round."""
        if p <= 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        # total data funneled to the root is (p-1) * nbytes_per_rank
        return (
            rounds * self.inter_latency
            + (p - 1) * nbytes_per_rank / self.inter_bandwidth
            + self._straggler(p)
        )

    def alltoallv_time(self, p: int, max_send_bytes: int, total_bytes: int) -> float:
        """Pairwise-exchange all-to-all: p-1 rounds.

        ``max_send_bytes`` is the largest per-rank outgoing volume (the
        straggler determines the finish time), ``total_bytes`` the global
        volume (bisection-limited term).
        """
        if p <= 1:
            return 0.0
        latency_term = (p - 1) * self.inter_latency
        wire_term = max(max_send_bytes, total_bytes / max(p, 1)) / self.inter_bandwidth
        return latency_term + wire_term + self._straggler(p)


#: Cray-Aries-like constants (the paper's fabric).
ARIES_LIKE = NetworkModel()

#: Aries constants plus the at-scale straggler term, calibrated so that the
#: per-level collective overhead of the distributed tree construction
#: matches the growth Table II implies (VP phase ~3.9 min at 256 cores to
#: ~10.4 min at 8192: with ~15 collectives per tree level the coefficient
#: works out to ~0.25 s per log2(P) per collective).
XC40_AT_SCALE = NetworkModel(straggler_coeff=0.25)

#: Commodity 10GbE-like constants for fabric-sensitivity ablations.
ETHERNET_LIKE = NetworkModel(
    inter_latency=25e-6,
    intra_latency=0.5e-6,
    inter_bandwidth=1.1e9,
    intra_bandwidth=30.0e9,
    sw_overhead=2.0e-6,
    rma_latency=30e-6,
)
