"""Bounded-ingress admission control for open-loop serving.

When offered load exceeds capacity something has to give; the admission
queue makes the choice explicit and *accounted* instead of letting the
backlog grow silently.  Three overload policies:

- ``block`` — never drop: when the queue is full the coordinator simply
  stops consuming arrivals, so excess queries wait at the ingress
  (clients see latency, not errors — TCP-backpressure semantics);
- ``shed_oldest`` — drop the *oldest* queued query to make room for the
  new one (the stale request was about to miss its SLO anyway);
- ``reject`` — refuse the *new* arrival with a flag (fail-fast
  semantics; the queued work keeps its position).

Every query ends in exactly one of three ledgers — admitted (entered
service), shed, or rejected — so ``admitted + shed + rejected ==
offered`` is an invariant the reports assert.
"""

from __future__ import annotations

from collections import deque

from repro.obs.metrics import Instrument, MetricsRegistry

__all__ = ["OVERLOAD_POLICIES", "AdmissionQueue"]

OVERLOAD_POLICIES = ("block", "shed_oldest", "reject")


class AdmissionQueue:
    """FIFO ingress queue with a depth bound and an overload policy.

    ``depth = 0`` means unbounded (the policy never triggers).  The
    ``admitted`` counter is owned by the *coordinator* — a query counts
    as admitted when it leaves the queue into service, so a query that
    is queued and later shed is never double-counted.

    The ledgers are registry instruments (``admission.*``): handed the
    run-wide :class:`MetricsRegistry`, they are the numbers
    ``SearchReport.admitted_queries`` etc. read.
    """

    def __init__(self, depth: int, policy: str, metrics: MetricsRegistry | None = None) -> None:
        if depth < 0:
            raise ValueError(f"queue depth must be >= 0, got {depth}")
        if policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload policy must be one of {OVERLOAD_POLICIES}, got {policy!r}"
            )
        self.depth = int(depth)
        self.policy = policy
        self.queue: deque[int] = deque()
        self.registry = metrics if metrics is not None else MetricsRegistry()

    #: queries that left the queue into service
    admitted = Instrument("counter", "admission.admitted")
    #: queued queries dropped by the shed-oldest overload policy
    shed = Instrument("counter", "admission.shed")
    #: arrivals refused outright by the reject overload policy
    rejected = Instrument("counter", "admission.rejected")
    #: peak ingress-queue occupancy ever observed
    max_depth_seen = Instrument("gauge", "admission.max_depth")

    def _full(self) -> bool:
        return self.depth > 0 and len(self.queue) >= self.depth

    def accepting(self) -> bool:
        """Whether the coordinator should consume the next arrival now.

        Only the ``block`` policy ever says no — shedding policies must
        see every arrival to make their drop decision.
        """
        return self.policy != "block" or not self._full()

    def offer(self, query_id: int) -> tuple[str, int | None]:
        """Present one arrival; returns ``(outcome, dropped_query_id)``.

        ``("queued", None)`` — the arrival joined the queue;
        ``("shed", old_qid)`` — the arrival joined, evicting ``old_qid``;
        ``("rejected", query_id)`` — the arrival was refused.
        """
        if not self._full():
            self.queue.append(int(query_id))
            self.max_depth_seen = max(self.max_depth_seen, len(self.queue))
            return ("queued", None)
        if self.policy == "reject":
            self.rejected += 1
            return ("rejected", int(query_id))
        if self.policy == "shed_oldest":
            old = self.queue.popleft()
            self.shed += 1
            self.queue.append(int(query_id))
            return ("shed", int(old))
        raise RuntimeError(
            "block-policy arrival offered to a full queue: the caller must "
            "check accepting() before consuming arrivals"
        )

    def begin_service(self) -> int:
        """Pop the head query into service (counts it admitted)."""
        qid = self.queue.popleft()
        self.admitted += 1
        return int(qid)
