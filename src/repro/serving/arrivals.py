"""Open-loop query arrival processes on the simmpi virtual clock.

A closed-loop batch hands the coordinator every query at t = 0; an
open-loop serving system sees queries *arrive* over time, at a rate the
cluster does not control.  :func:`arrival_schedule` turns an arrival spec
string into a deterministic vector of virtual arrival times, and
:func:`arrival_source_program` is the simmpi proc that replays that
schedule into the master's mailbox as ``TAG_ARRIVE`` messages — so
arrivals are ordinary timestamped fabric events the coordinator receives
with its results, through one receive over both tags, in arrival order.

Two generator families (both replayable):

- ``poisson:RATE`` — seeded exponential interarrivals at RATE
  queries/second, the memoryless baseline of queueing analysis;
- ``trace:t1,t2,...`` — explicit arrival offsets in virtual seconds, for
  replaying a recorded workload bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import make_arrival, send

__all__ = ["parse_arrival_spec", "arrival_schedule", "arrival_source_program"]

_KINDS = ("poisson", "trace")


def parse_arrival_spec(spec: str) -> tuple:
    """Validate and decompose an arrival spec string.

    Returns ``("poisson", rate)`` or ``("trace", times)``; raises
    ``ValueError`` on anything malformed (non-finite numbers included) so
    ``SystemConfig`` can reject bad specs at construction time.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise ValueError(
            f"arrival spec must look like 'poisson:RATE' or 'trace:t1,t2,...', "
            f"got {spec!r}"
        )
    kind, _, rest = spec.partition(":")
    if kind not in _KINDS:
        raise ValueError(f"arrival kind must be one of {_KINDS}, got {kind!r}")
    if kind == "poisson":
        try:
            rate = float(rest)
        except ValueError:
            raise ValueError(f"poisson arrival rate must be a number, got {rest!r}") from None
        if not 0 < rate < np.inf:
            raise ValueError(f"poisson arrival rate must be finite and > 0, got {rate}")
        return ("poisson", rate)
    # trace
    try:
        times = np.array([float(t) for t in rest.split(",") if t != ""], dtype=np.float64)
    except ValueError:
        raise ValueError(f"trace times must be comma-separated numbers, got {rest!r}") from None
    if times.size == 0:
        raise ValueError("trace arrival spec has no times")
    if not np.all(np.isfinite(times)):
        raise ValueError("trace arrival times must be finite")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("trace arrival times must be non-negative and non-decreasing")
    return ("trace", times)


def arrival_schedule(spec: str, n_queries: int, seed: int = 0) -> np.ndarray:
    """Deterministic virtual arrival times for ``n_queries`` queries.

    Returns a non-decreasing float64 vector of length ``n_queries``
    (seconds from the start of the run).  A trace shorter than the batch
    is an error — a replay must cover every query.
    """
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    parsed = parse_arrival_spec(spec)
    if parsed[0] == "poisson":
        _, rate = parsed
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC6]))
        return np.cumsum(rng.exponential(1.0 / rate, size=n_queries))
    _, times = parsed
    if len(times) < n_queries:
        raise ValueError(
            f"trace has {len(times)} arrival times but the batch has "
            f"{n_queries} queries — a replay must cover every query"
        )
    return times[:n_queries].copy()


def arrival_source_program(ctx, master_mailbox, schedule):
    """The simmpi proc replaying ``schedule`` into the master's mailbox.

    One ``TAG_ARRIVE`` message per query, sent at its scheduled virtual
    time (or as soon after as the source's own send overhead allows —
    the source models a finite ingress NIC, so offered load beyond its
    message rate is itself a bottleneck, as on real frontends).  The
    scheduled timestamp rides in the payload: SLO latency is measured
    from when the *client* issued the query, not from when the master
    got around to reading it.
    """
    for query_id, t in enumerate(schedule):
        gap = float(t) - ctx.now
        if gap > 0:
            yield from ctx.compute(gap, kind="arrival_gap")
        yield send(ctx, master_mailbox, make_arrival(query_id, t))
