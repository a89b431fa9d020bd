"""Declarative fault specifications.

A :class:`FaultSpec` describes *what goes wrong* in the simulated fabric —
rank crashes at virtual times, lossy or degraded links, persistently slow
nodes — independently of any experiment, so the same spec can replay the
same failure scenario against any configuration (the CLI's ``--faults``
flag loads one from JSON).  A :class:`FaultPolicy` describes how the
*system* responds: dispatch timeouts, retry/backoff bounds, replica
failover, and shutdown behaviour.  Keeping the two separate means a fault
scenario and a tolerance policy can be swept independently.

All fields are plain numbers so specs round-trip through JSON losslessly;
``FaultSpec.seed`` makes every probabilistic perturbation reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.simmpi.errors import SimConfigError

__all__ = ["ANY_NODE", "RankCrash", "LinkFault", "SlowNode", "FaultSpec", "FaultPolicy"]

#: wildcard for LinkFault endpoints ("any node")
ANY_NODE = -1


@dataclass(frozen=True)
class RankCrash:
    """Node ``node`` fails permanently at virtual time ``at`` (seconds).

    Every proc on the node — all its simulated worker threads — stops
    executing at ``at``; messages arriving at the node after ``at`` are
    lost.  Crashes are fail-stop: a crashed node never comes back.
    """

    node: int
    at: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise SimConfigError(f"crash node must be >= 0, got {self.node}")
        if self.at < 0:
            raise SimConfigError(f"crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class LinkFault:
    """Perturbations on messages from ``src`` node to ``dst`` node.

    ``src``/``dst`` are node ids or :data:`ANY_NODE`; the first matching
    LinkFault in the spec applies to a message.  A wildcard endpoint matches
    only transfers that leave the node; naming both endpoints as the same
    node faults that node's local hand-offs.  Probabilities are per
    message and independent; ``latency_factor``/``bandwidth_factor``
    persistently degrade the link's alpha-beta parameters (a flaky or
    congested route) on top of the probabilistic faults.
    """

    src: int = ANY_NODE
    dst: int = ANY_NODE
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    #: extra seconds added when a delay fires
    delay_seconds: float = 0.0
    #: multiplier on the link's latency (>= 1 slows it down)
    latency_factor: float = 1.0
    #: multiplier on the link's bandwidth (< 1 slows it down)
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SimConfigError(f"{name} must be in [0, 1], got {p}")
        if self.delay_seconds < 0:
            raise SimConfigError(f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise SimConfigError("latency_factor and bandwidth_factor must be positive")


@dataclass(frozen=True)
class SlowNode:
    """Node ``node`` computes ``factor`` times slower than nominal
    (thermal throttling, a co-scheduled job, a failing DIMM...)."""

    node: int
    factor: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise SimConfigError(f"slow node must be >= 0, got {self.node}")
        if self.factor < 1.0:
            raise SimConfigError(f"slow-node factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class FaultSpec:
    """One complete failure scenario for the simulated fabric."""

    crashes: tuple[RankCrash, ...] = ()
    links: tuple[LinkFault, ...] = ()
    slow_nodes: tuple[SlowNode, ...] = ()
    #: seed of the injector's RNG — fixes every drop/dup/delay decision
    seed: int = 0

    def __post_init__(self) -> None:
        # tolerate lists from JSON / hand-written dicts
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "slow_nodes", tuple(self.slow_nodes))
        seen = set()
        for c in self.crashes:
            if c.node in seen:
                raise SimConfigError(f"node {c.node} crashes more than once")
            seen.add(c.node)

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(
            crashes=tuple(RankCrash(**c) for c in d.get("crashes", ())),
            links=tuple(LinkFault(**ln) for ln in d.get("links", ())),
            slow_nodes=tuple(SlowNode(**s) for s in d.get("slow_nodes", ())),
            seed=int(d.get("seed", 0)),
        )

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def from_json(cls, path: str) -> "FaultSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class FaultPolicy:
    """How the dispatch layer tolerates faults (timeouts, retries, failover).

    The per-attempt timeout is ``task_timeout`` when given, else derived
    from the cost model: ``timeout_multiplier`` times the expected
    per-task virtual seconds (local search + network round trip), floored
    at ``min_timeout``.  The multiplier absorbs queueing behind other
    tasks on a busy node; a spurious timeout only costs duplicate work —
    results are deduplicated per (query, partition) — never correctness.
    """

    #: explicit per-attempt timeout in virtual seconds; None = derive
    task_timeout: float | None = None
    #: safety factor over the cost-model estimate of one task
    timeout_multiplier: float = 50.0
    #: floor for the derived timeout
    min_timeout: float = 1e-4
    #: exponential backoff base applied to the timeout per retry
    backoff: float = 2.0
    #: maximum dispatch attempts per (query, partition) task
    max_attempts: int = 4
    #: timeouts charged against one core before it is suspected dead
    suspect_after: int = 2
    #: End-of-Queries rebroadcast rounds during shutdown
    drain_rounds: int = 3
    #: per-round drain wait; None = derived from the task timeout
    drain_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise SimConfigError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.timeout_multiplier <= 0:
            raise SimConfigError("timeout_multiplier must be positive")
        if self.min_timeout <= 0:
            raise SimConfigError("min_timeout must be positive")
        if self.backoff < 1.0:
            raise SimConfigError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise SimConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.suspect_after < 1:
            raise SimConfigError(f"suspect_after must be >= 1, got {self.suspect_after}")
        if self.drain_rounds < 1:
            raise SimConfigError(f"drain_rounds must be >= 1, got {self.drain_rounds}")
        if self.drain_timeout is not None and self.drain_timeout <= 0:
            raise SimConfigError(f"drain_timeout must be positive, got {self.drain_timeout}")
