"""Open-loop query arrival processes on the simmpi virtual clock.

A closed-loop batch hands the coordinator every query at t = 0; an
open-loop serving system sees queries *arrive* over time, at a rate the
cluster does not control.  :func:`arrival_schedule` turns an arrival spec
string into a deterministic vector of virtual arrival times, and
:func:`arrival_source_program` is the simmpi proc that replays that
schedule into the master's mailbox as ``TAG_ARRIVE`` messages — so
arrivals are ordinary timestamped fabric events the coordinator can
``wait_any`` on alongside results.

Three generator families (all seeded, all replayable):

- ``poisson:RATE`` — exponential interarrivals at RATE queries/second,
  the memoryless baseline of queueing analysis;
- ``burst:LOW:HIGH:PERIOD`` — a diurnal square wave alternating between
  LOW and HIGH queries/second every PERIOD/2 virtual seconds, generated
  by Lewis-Shedler thinning of a HIGH-rate Poisson stream;
- ``trace:t1,t2,...`` — explicit arrival offsets in virtual seconds, for
  replaying a recorded workload bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import make_arrival, send

__all__ = ["parse_arrival_spec", "arrival_schedule", "arrival_source_program"]

_KINDS = ("poisson", "burst", "trace")


def parse_arrival_spec(spec: str) -> tuple:
    """Validate and decompose an arrival spec string.

    Returns ``("poisson", rate)``, ``("burst", low, high, period)`` or
    ``("trace", times)``; raises ``ValueError`` on anything malformed so
    ``SystemConfig`` can reject bad specs at construction time.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise ValueError(
            f"arrival spec must look like 'poisson:RATE', 'burst:LOW:HIGH:PERIOD' "
            f"or 'trace:t1,t2,...', got {spec!r}"
        )
    kind, _, rest = spec.partition(":")
    if kind not in _KINDS:
        raise ValueError(f"arrival kind must be one of {_KINDS}, got {kind!r}")
    if kind == "poisson":
        try:
            rate = float(rest)
        except ValueError:
            raise ValueError(f"poisson arrival rate must be a number, got {rest!r}") from None
        if rate <= 0:
            raise ValueError(f"poisson arrival rate must be > 0, got {rate}")
        return ("poisson", rate)
    if kind == "burst":
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"burst spec must be 'burst:LOW:HIGH:PERIOD', got {spec!r}")
        try:
            low, high, period = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"burst parameters must be numbers, got {rest!r}") from None
        if low <= 0 or high <= 0 or period <= 0:
            raise ValueError(f"burst rates and period must be > 0, got {spec!r}")
        if high < low:
            raise ValueError(f"burst HIGH rate must be >= LOW rate, got {spec!r}")
        return ("burst", low, high, period)
    # trace
    try:
        times = np.array([float(t) for t in rest.split(",") if t != ""], dtype=np.float64)
    except ValueError:
        raise ValueError(f"trace times must be comma-separated numbers, got {rest!r}") from None
    if times.size == 0:
        raise ValueError("trace arrival spec has no times")
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
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC6]))
    if parsed[0] == "poisson":
        _, rate = parsed
        return np.cumsum(rng.exponential(1.0 / rate, size=n_queries))
    if parsed[0] == "burst":
        _, low, high, period = parsed
        # Lewis-Shedler thinning: candidate arrivals at the HIGH rate,
        # kept with probability rate(t)/HIGH — exact for any piecewise
        # rate bounded by HIGH, and deterministic for a fixed seed
        times = np.empty(n_queries, dtype=np.float64)
        t, got = 0.0, 0
        while got < n_queries:
            t += rng.exponential(1.0 / high)
            rate = high if (t % period) < period / 2.0 else low
            if rng.random() <= rate / high:
                times[got] = t
                got += 1
        return times
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
        yield from send(ctx, master_mailbox, make_arrival(query_id, t))
