"""Simulated MPI runtime (discrete-event simulation).

This package stands in for Cray MPICH on the paper's XC40: it lets the
paper's algorithms (Algorithms 1-5) run unchanged, with thousands of
simulated ranks, on a machine with two cores and no MPI library.

Design
------
- Each simulated process ("proc") is a Python generator.  Every timed action
  (compute, send, receive, collective, RMA op) is a *syscall*: the generator
  yields a request object and the engine resumes it with the result.
- The engine keeps one virtual clock per proc and always runs the runnable
  proc with the smallest clock, which keeps message causality consistent.
- Point-to-point messages go through mailboxes with MPI tag/source matching
  semantics (including ``ANY_SOURCE`` / ``ANY_TAG``).  Multiple procs may
  share one mailbox — that is how the paper's OpenMP worker threads pulling
  queries from their node's MPI process are modelled.
- Collectives are timed analytically (tree/pairwise algorithms) instead of
  being decomposed into O(P log P) simulated messages, so 8192-rank runs
  stay cheap.
- One-sided RMA windows implement ``Win_lock`` (shared) +
  ``Get_accumulate`` with a user combiner, exactly the primitive of Fig. 2.
- Real computation (HNSW searches, median selection...) executes for real
  inside proc code; its *virtual duration* is charged through the
  :class:`~repro.simmpi.costmodel.CostModel` from operation counts, so the
  simulated timings scale the way the paper's hardware does.
"""

from repro.simmpi.errors import SimError, DeadlockError, ProcError, SimConfigError
from repro.simmpi.topology import ClusterTopology
from repro.simmpi.network import NetworkModel, ARIES_LIKE, ETHERNET_LIKE, XC40_AT_SCALE
from repro.simmpi.costmodel import CostModel, calibrate_cost_model
from repro.simmpi.engine import (
    Simulation,
    SimulationResult,
    Context,
    Request,
    ANY_SOURCE,
    ANY_TAG,
)
from repro.simmpi.comm import Comm
from repro.simmpi.rma import Window
from repro.simmpi.trace import PHASES, ProcStats

__all__ = [
    "PHASES",
    "ProcStats",
    "SimError",
    "DeadlockError",
    "ProcError",
    "SimConfigError",
    "ClusterTopology",
    "NetworkModel",
    "ARIES_LIKE",
    "ETHERNET_LIKE",
    "XC40_AT_SCALE",
    "CostModel",
    "calibrate_cost_model",
    "Simulation",
    "SimulationResult",
    "Context",
    "Request",
    "Comm",
    "Window",
    "ANY_SOURCE",
    "ANY_TAG",
]
