"""Discrete-event engine: procs, mailboxes, requests, events, scheduler.

A *proc* is one simulated execution context — an MPI rank or one OpenMP
thread inside a rank.  Proc code is a generator function taking a
:class:`Context`; every timed interaction is performed with ``yield from``
on a Context/Comm helper, which ultimately yields a syscall object that the
engine services.  :meth:`Simulation.run` dispatches each syscall through
one ``{syscall type: handler}`` table, and every syscall is one engine
event.

Scheduling rule: always resume the runnable proc with the smallest virtual
clock (ties broken by an insertion sequence number).  Because every syscall
returns control to the scheduler, a proc never "runs ahead" and sends a
message into another proc's past — which keeps tag/source matching causally
consistent and the whole simulation deterministic for a fixed seed.

Blocking primitives:

- ``recv(mailbox, source, tag, event=None, timeout=None)`` — post a
  receive and block on it in one event.  It resumes with the completed
  :class:`Request`, or with ``None`` when ``event`` was set first or the
  virtual-time ``timeout`` passed; the receive is then withdrawn in the
  same step.  This is how worker threads wait for "a query *or* the
  terminate flag", replacing the paper's MPI_Test busy-poll loop with an
  equivalent that does not need millions of simulated poll iterations,
  and how every coordinator receives one message,
- ``wait(request)``     — block until an already posted receive matches,
- ``wait_any(waitables)`` — block until any of several requests/events
  completes (a coordinator waiting on two receives at once),
- collectives and RMA — see :mod:`repro.simmpi.comm` / :mod:`~repro.simmpi.rma`.

``wait_any`` additionally takes an optional virtual-time ``timeout``; a
wait that times out resumes with ``(WAIT_TIMED_OUT, None)`` at exactly the
deadline — the primitive fault-tolerant dispatch builds retries on.

Fault injection: constructed with a :class:`~repro.faults.FaultInjector`,
the engine perturbs the fabric per the injector's spec — procs on a
crashed node stop executing at the crash instant (state ``crashed``, not
``done``), messages to a crashed node are lost, per-link faults drop /
duplicate / delay sends, and slow nodes scale their compute charges.  All
perturbations advance virtual time through the normal cost paths and are
logged in :attr:`SimulationResult.fault_events`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, NamedTuple

import numpy as np

from repro.simmpi.costmodel import CostModel
from repro.simmpi.errors import DeadlockError, ProcError, SimConfigError, SimError
from repro.simmpi.network import NetworkModel
from repro.simmpi.trace import ProcStats

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "WAIT_TIMED_OUT",
    "Context",
    "Event",
    "Mailbox",
    "Request",
    "Simulation",
    "SimulationResult",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: index returned by ``wait_any(..., timeout=...)`` when the wait timed out
WAIT_TIMED_OUT = -1

_INF = float("inf")

# what a blocked proc resumes with, by the syscall that blocked it
_WAKE_WAIT = 0  # the payload
_WAKE_ANY = 1  # (index, payload)
_WAKE_RECV = 2  # the Request, or None once it is withdrawn


def _tag_matches(pattern, tag) -> bool:
    """Tag matching with wildcard support inside tuple tags.

    The comm layer namespaces user tags as ``(comm_id, user_tag)``; a
    receive for "any tag on this comm" uses ``(comm_id, ANY_TAG)``, so
    tuple patterns are compared elementwise with ``ANY_TAG`` as a
    per-element wildcard.
    """
    if pattern == ANY_TAG:
        return True
    if isinstance(pattern, tuple) and isinstance(tag, tuple) and len(pattern) == len(tag):
        return all(p == ANY_TAG or p == t for p, t in zip(pattern, tag))
    return pattern == tag


def _check_timeout(timeout: float | None) -> None:
    if timeout is not None and not timeout >= 0:  # also true for NaN
        raise SimError(f"a wait timeout must be >= 0 virtual seconds, got {timeout}")


_RUNNABLE = "runnable"
_BLOCKED = "blocked"
_DONE = "done"
_CRASHED = "crashed"


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload.

    NumPy arrays report their true buffer size; containers recurse; other
    scalars get a small fixed pickle-ish overhead.  Callers that know the
    exact size pass ``nbytes`` explicitly instead.
    """
    if obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 32
    if isinstance(obj, (tuple, list)):
        return 16 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 32 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, str):
        return len(obj) + 40
    return 32


# --------------------------------------------------------------------------
# Syscall objects (internal protocol between proc generators and the engine)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class _Compute:
    seconds: float
    kind: str = "compute"


@dataclass(slots=True)
class _SendMsg:
    mailbox: "Mailbox"
    source: int
    tag: int
    payload: Any
    nbytes: int
    same_node: bool


@dataclass(slots=True)
class _RecvPost:
    mailbox: "Mailbox"
    source: int
    tag: int


@dataclass(slots=True)
class _Recv:
    mailbox: "Mailbox"
    source: int
    tag: int
    event: "Event | None"
    timeout: float | None


@dataclass(slots=True)
class _Wait:
    request: "Request"


@dataclass(slots=True)
class _WaitAny:
    waitables: list
    timeout: float | None = None


@dataclass(slots=True)
class _Cancel:
    request: "Request"


@dataclass(slots=True)
class _EventSet:
    event: "Event"


@dataclass(slots=True)
class _CollectiveCall:
    key: tuple
    members: tuple
    data: Any
    #: complete(arrivals: {pid: (clock, data)}) -> {pid: (finish_time, result)}
    complete: Callable[[dict], dict]


@dataclass(slots=True)
class _RmaOp:
    seconds: float
    apply: Callable[[], Any]
    nbytes: int


# --------------------------------------------------------------------------
# Waitables
# --------------------------------------------------------------------------


class Request:
    """Handle for a posted non-blocking receive (or internal completion)."""

    __slots__ = (
        "done",
        "completion_time",
        "payload",
        "source",
        "tag",
        "cancelled",
        "arrival",
        "_mailbox",
        "_match_source",
        "_match_tag",
        "_waiter",
        "post_time",
    )

    def __init__(self, mailbox: "Mailbox", source: int, tag: int, post_time: float):
        self.done = False
        self.cancelled = False
        self.completion_time = float("inf")
        self.payload: Any = None
        self.source: int | None = None
        self.tag: int | None = None
        #: wire arrival time of the matched message (None until done) — lets
        #: receivers attribute mailbox queueing delay without wire changes
        self.arrival: float | None = None
        self._mailbox = mailbox
        self._match_source = source
        self._match_tag = tag
        self._waiter: _Proc | None = None
        self.post_time = post_time

    def _matches(self, source: int, tag) -> bool:
        if self._match_source not in (ANY_SOURCE, source):
            return False
        return _tag_matches(self._match_tag, tag)

    def _complete(self, msg: "_Message") -> None:
        self.done = True
        self.completion_time = max(self.post_time, msg.arrival)
        self.payload = msg.payload
        self.source = msg.source
        self.tag = msg.tag
        self.arrival = msg.arrival


class Event:
    """A one-shot condition flag (simulated condition variable).

    Models the shared "Done" flag of Algorithm 4: one thread sets it, every
    thread blocked in ``wait_any`` on it wakes at the set time.
    """

    __slots__ = ("done", "set_time", "_waiters")

    def __init__(self) -> None:
        self.done = False
        self.set_time = float("inf")
        self._waiters: list[_Proc] = []


def _withdraw(req: Request) -> None:
    """Take a posted, unmatched receive off its mailbox, as ``cancel`` does."""
    req.cancelled = True
    req._waiter = None
    req._mailbox._pending.remove(req)


class _Message(NamedTuple):
    """A message in flight or queued; orders by ``(arrival, seq)``, and
    ``seq`` is unique, so comparisons never reach the payload."""

    arrival: float
    seq: int
    source: int
    tag: Any
    payload: Any


class Mailbox:
    """A message queue with MPI matching semantics.

    One mailbox per MPI rank; worker threads of one rank share their rank's
    mailbox, which is what gives the paper's dynamic intra-node work
    pulling.

    ``node`` records which compute node the mailbox lives on (None when
    unknown); the fault injector uses it to resolve the (src, dst) link of
    a send and to drop messages addressed to a crashed node.

    Unmatched messages are bucketed by tag, each bucket a heap on
    ``(arrival, seq)``, so an any-source receive costs O(log n) however
    many messages wait and an exact-source one scans its own tag only (see
    docs/simulation.md, "Message matching").  ``len(mailbox)`` is the
    number of queued messages.
    """

    __slots__ = ("name", "node", "_buckets", "_pending")

    def __init__(self, name: str = "", node: int | None = None) -> None:
        self.name = name
        self.node = node
        #: tag -> heap of queued messages; empty buckets are deleted, so a
        #: wildcard receive only ever looks at tags that have a message
        self._buckets: dict[Any, list[_Message]] = {}
        #: posted, unmatched receives in post order — at most one per
        #: thread sharing the mailbox, so it stays a plain list
        self._pending: list[Request] = []

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mailbox({self.name!r}, queued={len(self)})"

    def _put(self, msg: _Message) -> None:
        bucket = self._buckets.get(msg.tag)
        if bucket is None:
            self._buckets[msg.tag] = [msg]
        else:
            heapq.heappush(bucket, msg)

    def _take(self, source: int, tag) -> _Message | None:
        """Remove and return the queued message with the smallest
        ``(arrival, seq)`` that a receive for ``(source, tag)`` matches."""
        buckets = self._buckets
        if not buckets:
            return None
        if tag == ANY_TAG or (isinstance(tag, tuple) and ANY_TAG in tag):
            heaps = [heap for t, heap in buckets.items() if _tag_matches(tag, t)]
        else:
            heaps = [buckets[tag]] if tag in buckets else ()
        best = best_heap = None
        for heap in heaps:
            if source == ANY_SOURCE:
                msg = heap[0]
            else:
                # the rarer exact-source receive scans the entries of its own tag
                msg = min((m for m in heap if m.source == source), default=None)
            if msg is not None and (best is None or msg < best):
                best, best_heap = msg, heap
        if best is None:
            return None
        if best is best_heap[0]:
            heapq.heappop(best_heap)
        else:
            best_heap.remove(best)
            heapq.heapify(best_heap)
        if not best_heap:
            del buckets[best.tag]
        return best


# --------------------------------------------------------------------------
# Proc & context
# --------------------------------------------------------------------------


class _Proc:
    __slots__ = (
        "pid",
        "name",
        "node",
        "gen",
        "mailbox",
        "clock",
        "state",
        "sendval",
        "result",
        "stats",
        "heap_token",
        "timeout_token",
        "_block_start",
        "_wait_entries",
        "_wake",
    )

    def __init__(self, pid: int, name: str, node: int, mailbox: Mailbox):
        self.pid = pid
        self.name = name
        self.node = node
        self.mailbox = mailbox
        self.gen: Generator | None = None
        self.clock = 0.0
        self.state = _RUNNABLE
        self.sendval: Any = None
        self.result: Any = None
        self.stats = ProcStats(name=name)
        self.heap_token = 0
        self.timeout_token: int | None = None
        self._block_start = 0.0
        self._wait_entries: list = []
        self._wake = _WAKE_WAIT


class _SpanScope:
    """Context manager recording one named tracing span on a proc.

    Measures the elapsed *virtual* interval between entry and exit — which
    includes any communication blocking inside the block — and charges no
    virtual time itself, so tracing never perturbs the simulation.  Usable
    inside proc generators (``with`` works across ``yield from``).

    When the simulation carries a :class:`~repro.obs.trace.TraceRecorder`,
    the span is mirrored into it (with attributes and parent links); the
    per-proc :class:`~repro.simmpi.trace.ProcStats` accounting is identical
    with or without a recorder.
    """

    __slots__ = ("_proc", "name", "start", "_recorder", "_attrs")

    def __init__(self, proc: _Proc, name: str, recorder=None, attrs: dict | None = None):
        self._proc = proc
        self.name = name
        self.start = proc.clock
        self._recorder = recorder
        self._attrs = attrs

    def __enter__(self) -> "_SpanScope":
        if self._recorder is not None:
            self._recorder.begin_span(self._proc.pid, self.name, self._proc.clock, self._attrs)
        return self

    def __exit__(self, *exc) -> bool:
        self._proc.stats.add_span(self.name, self._proc.clock - self.start)
        if self._recorder is not None:
            self._recorder.end_span(self._proc.pid, self._proc.clock)
        return False


class Context:
    """Per-proc API surface handed to proc generator functions."""

    def __init__(self, sim: "Simulation", proc: _Proc):
        self._sim = sim
        self._proc = proc

    # -- identity ----------------------------------------------------------

    @property
    def pid(self) -> int:
        return self._proc.pid

    @property
    def name(self) -> str:
        return self._proc.name

    @property
    def node(self) -> int:
        return self._proc.node

    @property
    def mailbox(self) -> "Mailbox":
        """This proc's own mailbox (shared with siblings if so created)."""
        return self._proc.mailbox

    @property
    def now(self) -> float:
        """Current virtual time of this proc."""
        return self._proc.clock

    @property
    def cost(self) -> CostModel:
        return self._sim.cost

    @property
    def network(self) -> NetworkModel:
        return self._sim.network

    # -- computation -------------------------------------------------------

    def compute(self, seconds: float, kind: str = "compute"):
        """Charge ``seconds`` of virtual computation time."""
        if not 0.0 <= seconds < _INF:  # also false for NaN
            raise SimError(f"compute time must be finite and non-negative, got {seconds}")
        yield _Compute(float(seconds), kind)

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanScope:
        """Open a named tracing span: ``with ctx.span("route"): ...``.

        The elapsed virtual interval lands in this proc's
        :attr:`~repro.simmpi.trace.ProcStats.span_time`; see
        :data:`~repro.simmpi.trace.PHASES` for the standard names.  Keyword
        ``attrs`` (e.g. ``query_id=qid``) are attached to the span in the
        distributed trace when one is being recorded; they never affect the
        ProcStats aggregate.
        """
        return _SpanScope(self._proc, name, self._sim.recorder, attrs or None)

    @property
    def trace_active(self) -> bool:
        """True when a distributed-trace recorder is attached to the run.

        Hot paths use this to skip building attribute dicts when nobody is
        listening.
        """
        return self._sim.recorder is not None

    def trace_instant(self, name: str, **attrs) -> None:
        """Record a zero-width trace marker (no-op without a recorder).

        A plain method, not a syscall: it charges no virtual time and never
        yields, so call sites need no ``yield from``.
        """
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.instant(self._proc.pid, name, self._proc.clock, attrs or None)

    def trace_complete(self, name: str, start: float, end: float, **attrs) -> None:
        """Record an already-elapsed interval (e.g. a measured stall) in the
        distributed trace only — never in ProcStats (no-op without a
        recorder; charges no virtual time)."""
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.complete_span(self._proc.pid, name, start, end, attrs or None)

    # -- events --------------------------------------------------------------

    def set_event(self, event: Event):
        yield _EventSet(event)

    # -- low-level messaging (Comm builds on these) -------------------------

    def post_recv(self, mailbox: Mailbox, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Post a non-blocking receive; resumes with a :class:`Request`."""
        req = yield _RecvPost(mailbox, source, tag)
        return req

    def recv(
        self,
        mailbox: Mailbox,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        event: Event | None = None,
        timeout: float | None = None,
    ):
        """Post a receive and block on it, in one engine event.

        Resumes with the completed :class:`Request` (its ``payload``,
        ``source``, ``tag`` and ``arrival`` are set), charged exactly as
        ``post_recv`` followed by ``wait``.  With an ``event``, or a
        ``timeout`` in virtual seconds, it resumes with ``None`` when the
        event is set first or the deadline passes — as
        ``wait_any([request, event], timeout)`` would — and the receive is
        withdrawn in the same step, so a message arriving later stays
        queued for the next receive.
        """
        _check_timeout(timeout)
        req = yield _Recv(mailbox, source, tag, event, timeout)
        return req

    def send_to_mailbox(
        self,
        mailbox: Mailbox,
        payload: Any,
        *,
        source: int,
        tag: int,
        nbytes: int | None,
        same_node: bool,
    ):
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        yield _SendMsg(mailbox, source, tag, payload, int(nbytes), same_node)

    def wait(self, request: Request):
        """Block until ``request`` completes; resumes with its payload."""
        payload = yield _Wait(request)
        return payload

    def wait_any(self, waitables: list, timeout: float | None = None):
        """Block until any request/event completes; resumes with
        ``(index, payload)`` (payload is None for events).

        With a ``timeout`` (virtual seconds), resumes with
        ``(WAIT_TIMED_OUT, None)`` at the deadline if nothing completed
        first; the waitables stay registered with their mailboxes, so a
        timed-out receive can be waited on again or cancelled.
        """
        _check_timeout(timeout)
        result = yield _WaitAny(list(waitables), timeout)
        return result

    def cancel(self, request: Request):
        yield _Cancel(request)

    def collective(self, key: tuple, members: tuple, data: Any, complete: Callable):
        result = yield _CollectiveCall(key, members, data, complete)
        return result

    def rma(self, seconds: float, apply: Callable[[], Any], nbytes: int):
        result = yield _RmaOp(float(seconds), apply, int(nbytes))
        return result


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------


@dataclass
class SimulationResult:
    """Outcome of a completed simulation run."""

    #: virtual makespan: max final clock over all procs
    makespan: float
    #: per-proc final clocks, keyed by pid
    clocks: dict[int, float]
    #: per-proc return values (StopIteration values), keyed by pid
    results: dict[int, Any]
    #: per-proc stats, keyed by pid
    stats: dict[int, ProcStats]
    #: total number of engine events processed
    n_events: int
    #: pids of procs killed by an injected crash (empty without faults)
    crashed_pids: tuple[int, ...] = ()
    #: fault-injection event log, in virtual-time order (empty without faults)
    fault_events: tuple = ()


class Simulation:
    """Owns procs, mailboxes, the event loop, and the timing models."""

    def __init__(
        self,
        network: NetworkModel | None = None,
        cost: CostModel | None = None,
        max_events: int = 200_000_000,
        faults=None,
        recorder=None,
        metrics=None,
    ) -> None:
        self.network = network or NetworkModel()
        self.cost = cost or CostModel()
        self.max_events = max_events
        #: optional :class:`~repro.faults.FaultInjector` (duck-typed to
        #: avoid a package cycle); None = perfect fabric
        self.faults = faults
        #: optional :class:`~repro.obs.trace.TraceRecorder`; recording is
        #: pure bookkeeping (no clock/randomness effects), so attaching one
        #: is bit-identity-neutral
        self.recorder = recorder
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`, filled with
        #: engine-level totals (events, messages, bytes) at the end of run()
        self.metrics = metrics
        self._procs: list[_Proc] = []
        self._runq: list[tuple[float, int, int]] = []
        self._seq = itertools.count()
        self._collectives: dict[tuple, dict] = {}
        self._started = False

    # -- construction --------------------------------------------------------

    def new_mailbox(self, name: str = "", node: int | None = None) -> Mailbox:
        return Mailbox(name, node)

    def add_proc(
        self,
        program: Callable[..., Generator],
        *args: Any,
        node: int = 0,
        name: str = "",
        mailbox: Mailbox | None = None,
    ) -> int:
        """Register a proc.  ``program(ctx, *args)`` must be a generator
        function.  Returns the pid."""
        if self._started:
            raise SimError("cannot add procs after run() started")
        pid = len(self._procs)
        if mailbox is None:  # not ``or``: an empty mailbox has len() == 0
            mailbox = Mailbox(f"mb{pid}", node)
        proc = _Proc(pid, name or f"proc{pid}", node, mailbox)
        ctx = Context(self, proc)
        gen = program(ctx, *args)
        if not hasattr(gen, "send"):
            raise SimConfigError(
                f"program {program!r} did not return a generator; "
                "proc bodies must be generator functions (use `yield from ctx...`)"
            )
        proc.gen = gen
        self._procs.append(proc)
        if self.recorder is not None:
            self.recorder.register_proc(pid, proc.name, node)
        return pid

    def mailbox_of(self, pid: int) -> Mailbox:
        return self._procs[pid].mailbox

    def node_of(self, pid: int) -> int:
        return self._procs[pid].node

    # -- event loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._started:
            raise SimError("Simulation.run() may only be called once")
        self._started = True
        for proc in self._procs:
            self._push(proc)
        crash_schedule: list[tuple[int, float]] = []
        if self.faults is not None:
            # crashes are first-class engine events: one marker per crash,
            # with a negative pid, popped at exactly the crash instant
            crash_schedule = self.faults.crash_schedule()
            for i, (_, at) in enumerate(crash_schedule):
                heapq.heappush(self._runq, (at, next(self._seq), -(i + 1)))
        # one handler per syscall type, each taking (proc, syscall)
        dispatch = {
            _Compute: self._do_compute,
            _SendMsg: self._do_send,
            _RecvPost: self._do_post,
            _Recv: self._do_recv,
            _Wait: self._do_wait,
            _WaitAny: self._do_wait_any,
            _Cancel: self._do_cancel,
            _EventSet: self._do_set_event,
            _CollectiveCall: self._do_collective,
            _RmaOp: self._do_rma,
        }
        procs, runq, heappop = self._procs, self._runq, heapq.heappop
        max_events = self.max_events
        n_events = 0
        while runq:
            clock, token, pid = heappop(runq)
            if pid < 0:
                node, at = crash_schedule[-pid - 1]
                self._enact_crash(node, at)
                continue
            proc = procs[pid]
            if token != proc.heap_token or proc.state != _RUNNABLE:
                if token == proc.timeout_token and proc.state == _BLOCKED:
                    n_events += 1
                    self._fire_timeout(proc, clock)
                continue  # otherwise a stale heap entry
            n_events += 1
            if n_events > max_events:
                raise SimError(
                    f"exceeded max_events={max_events}; "
                    "likely a loop that never blocks — use recv/wait/wait_any"
                )
            try:
                syscall = proc.gen.send(proc.sendval)
            except StopIteration as stop:
                proc.state = _DONE
                proc.result = stop.value
                continue
            except SimError:
                raise
            except Exception as exc:
                # annotate failures with simulation context — "which rank died
                # at what virtual time" is the first thing one needs to debug a
                # distributed algorithm
                raise ProcError(
                    f"proc {proc.name!r} (pid={proc.pid}, node={proc.node}) raised "
                    f"{type(exc).__name__} at virtual t={proc.clock:.6f}: {exc}",
                    proc_name=proc.name,
                    pid=proc.pid,
                    node=proc.node,
                    virtual_time=proc.clock,
                ) from exc
            proc.sendval = None
            handler = dispatch.get(type(syscall))
            if handler is None:
                raise SimError(f"proc {proc.name} yielded unknown syscall {syscall!r}")
            handler(proc, syscall)
        unfinished = [p for p in self._procs if p.state not in (_DONE, _CRASHED)]
        if unfinished:
            desc = ", ".join(f"{p.name}(pid={p.pid}, state={p.state})" for p in unfinished[:10])
            raise DeadlockError(
                f"{len(unfinished)} proc(s) blocked forever: {desc}"
            )
        result = SimulationResult(
            makespan=max((p.clock for p in self._procs), default=0.0),
            clocks={p.pid: p.clock for p in self._procs},
            results={p.pid: p.result for p in self._procs},
            stats={p.pid: p.stats for p in self._procs},
            n_events=n_events,
            crashed_pids=tuple(p.pid for p in self._procs if p.state == _CRASHED),
            fault_events=tuple(self.faults.events) if self.faults is not None else (),
        )
        if self.metrics is not None:
            # filled once at the end — the event loop itself never touches
            # the registry, so metrics cannot perturb the hot path
            self.metrics.counter("sim.events").value += n_events
            self.metrics.counter("sim.msgs_sent").value += sum(
                s.msgs_sent for s in result.stats.values()
            )
            self.metrics.counter("sim.bytes_sent").value += sum(
                s.bytes_sent for s in result.stats.values()
            )
            self.metrics.counter("sim.rma_ops").value += sum(
                s.rma_ops for s in result.stats.values()
            )
            self.metrics.gauge("sim.makespan_seconds").set(result.makespan)
        return result

    # -- internals ---------------------------------------------------------------

    def _push(self, proc: _Proc) -> None:
        proc.state = _RUNNABLE
        proc.heap_token = next(self._seq)
        heapq.heappush(self._runq, (proc.clock, proc.heap_token, proc.pid))

    def _block(self, proc: _Proc, timeout: float | None = None) -> None:
        proc.state = _BLOCKED
        proc._block_start = proc.clock
        if timeout is not None:
            # arm a deadline: a heap entry keyed to timeout_token; completion
            # of any waitable clears the token, making the entry inert
            proc.timeout_token = next(self._seq)
            heapq.heappush(self._runq, (proc.clock + timeout, proc.timeout_token, proc.pid))

    def _unblock(self, proc: _Proc, at_time: float) -> None:
        proc.timeout_token = None  # a pending wait deadline no longer applies
        new_clock = max(proc.clock, at_time)
        proc.stats.comm_wait += new_clock - proc._block_start
        proc.clock = new_clock
        self._push(proc)

    def _fire_timeout(self, proc: _Proc, deadline: float) -> None:
        """A ``wait_any`` or ``recv`` deadline passed with nothing completed."""
        entries = proc._wait_entries
        proc._wait_entries = []
        recv = proc._wake == _WAKE_RECV
        for w in entries:
            if isinstance(w, Request):
                if recv:
                    _withdraw(w)
                else:
                    # leave a wait_any's requests posted on their mailboxes
                    # (the caller may wait again or cancel); only detach
                    # this proc as the waiter
                    w._waiter = None
            elif isinstance(w, Event) and proc in w._waiters:
                w._waiters.remove(proc)
        proc.sendval = None if recv else (WAIT_TIMED_OUT, None)
        self._unblock(proc, deadline)

    # -- fault enactment ---------------------------------------------------------

    def _enact_crash(self, node: int, at: float) -> None:
        """Fail-stop crash of ``node``: every proc on it dies at time ``at``."""
        self.faults.record("crash", at, node=node)
        for proc in self._procs:
            if proc.node == node and proc.state not in (_DONE, _CRASHED):
                self._kill(proc, at)

    def _kill(self, proc: _Proc, at: float) -> None:
        # withdraw every posted receive and wait registration — a dead rank
        # must never consume a message or wake from an event
        for req in list(proc.mailbox._pending):
            if req._waiter is proc:
                proc.mailbox._pending.remove(req)
        for w in proc._wait_entries:
            if isinstance(w, Request):
                w._waiter = None
                if w in w._mailbox._pending:
                    w._mailbox._pending.remove(w)
            elif isinstance(w, Event) and proc in w._waiters:
                w._waiters.remove(proc)
        proc._wait_entries = []
        proc.timeout_token = None
        proc.state = _CRASHED
        proc.clock = max(proc.clock, at)
        try:
            proc.gen.close()
        except Exception:
            pass  # cleanup code in the dying proc must not sink the engine

    # -- syscall handlers ------------------------------------------------------

    def _do_compute(self, proc: _Proc, sc: _Compute) -> None:
        seconds = sc.seconds
        if self.faults is not None:
            seconds *= self.faults.compute_factor(proc.node)
        proc.clock += seconds
        proc.stats.add_compute(sc.kind, seconds)
        self._push(proc)

    def _do_cancel(self, proc: _Proc, sc: _Cancel) -> None:
        req = sc.request
        req.cancelled = True
        if not req.done and req in req._mailbox._pending:
            req._mailbox._pending.remove(req)
        self._push(proc)

    def _do_set_event(self, proc: _Proc, sc: _EventSet) -> None:
        ev = sc.event
        if not ev.done:
            ev.done = True
            ev.set_time = proc.clock
            waiters, ev._waiters = ev._waiters, []
            for waiter in waiters:
                self._finish_wait_any(waiter, ev, None)
        self._push(proc)

    def _do_rma(self, proc: _Proc, sc: _RmaOp) -> None:
        proc.clock += sc.seconds
        proc.stats.rma_time += sc.seconds
        proc.stats.rma_ops += 1
        proc.stats.bytes_sent += sc.nbytes
        proc.sendval = sc.apply()
        self._push(proc)

    # -- messaging ----------------------------------------------------------------

    def _do_send(self, proc: _Proc, sc: _SendMsg) -> None:
        overhead = self.network.send_overhead()
        proc.clock += overhead
        proc.stats.send_time += overhead
        proc.stats.msgs_sent += 1
        proc.stats.bytes_sent += sc.nbytes
        if self.faults is None:
            transfers = [self.network.p2p_time(sc.nbytes, sc.same_node)]
        else:
            # the sender is always charged its overhead above — a dropped
            # message costs the origin the same CPU time as a delivered one
            transfers = self.faults.transfer_times(
                proc.node, sc.mailbox.node, sc.nbytes, sc.same_node, self.network, proc.clock
            )
        for wire in transfers:
            arrival = proc.clock + wire
            if self.faults is not None and self.faults.node_down(sc.mailbox.node, arrival):
                self.faults.record(
                    "msg_lost_node_down", arrival, src=proc.node, dst=sc.mailbox.node, tag=sc.tag
                )
                continue
            msg = _Message(arrival, next(self._seq), sc.source, sc.tag, sc.payload)
            self._deliver(sc.mailbox, msg)
        self._push(proc)

    def _deliver(self, mailbox: Mailbox, msg: _Message) -> None:
        for req in mailbox._pending:
            if req._matches(msg.source, msg.tag):
                mailbox._pending.remove(req)
                req._complete(msg)
                if req._waiter is not None:
                    self._finish_wait_any(req._waiter, req, msg.payload)
                return
        mailbox._put(msg)

    def _do_recv_post(self, proc: _Proc, sc: _RecvPost) -> Request:
        req = Request(sc.mailbox, sc.source, sc.tag, proc.clock)
        msg = sc.mailbox._take(sc.source, sc.tag)
        if msg is not None:
            req._complete(msg)
        else:
            sc.mailbox._pending.append(req)
        return req

    def _do_post(self, proc: _Proc, sc: _RecvPost) -> None:
        proc.sendval = self._do_recv_post(proc, sc)
        self._push(proc)

    def _resume_received(self, proc: _Proc, req: Request, value: Any) -> None:
        """Resume ``proc`` on an already completed receive, charging the
        receive overhead after the later of now and the completion."""
        overhead = self.network.recv_overhead()
        proc.clock = max(proc.clock, req.completion_time) + overhead
        proc.stats.recv_time += overhead
        proc.sendval = value
        self._push(proc)

    def _do_recv(self, proc: _Proc, sc: _Recv) -> None:
        # the outcomes, clocks and stats of post_recv + wait_any([req,
        # event], timeout) + cancel, in one event
        req = self._do_recv_post(proc, sc)
        if req.done:
            self._resume_received(proc, req, req)
            return
        event = sc.event
        if event is not None and event.done:
            _withdraw(req)
            proc.clock = max(proc.clock, event.set_time)
            self._push(proc)  # resumes with None
            return
        req._waiter = proc
        if event is None:
            proc._wait_entries = [req]
        else:
            proc._wait_entries = [req, event]
            event._waiters.append(proc)
        proc._wake = _WAKE_RECV
        self._block(proc, sc.timeout)

    def _do_wait(self, proc: _Proc, sc: _Wait) -> None:
        req = sc.request
        if req.cancelled:
            raise SimError(f"proc {proc.name} waiting on a cancelled request")
        if req.done:
            self._resume_received(proc, req, req.payload)
        else:
            req._waiter = proc
            proc._wait_entries = [req]
            proc._wake = _WAKE_WAIT
            self._block(proc)

    def _do_wait_any(self, proc: _Proc, sc: _WaitAny) -> None:
        waitables = sc.waitables
        # immediate completion?
        for idx, w in enumerate(waitables):
            if isinstance(w, Request) and w.done and not w.cancelled:
                self._resume_received(proc, w, (idx, w.payload))
                return
            if isinstance(w, Event) and w.done:
                proc.clock = max(proc.clock, w.set_time)
                proc.sendval = (idx, None)
                self._push(proc)
                return
        # none ready: register on all (the list is the syscall's own copy)
        proc._wait_entries = waitables
        proc._wake = _WAKE_ANY
        for w in waitables:
            if isinstance(w, Request):
                w._waiter = proc
            elif isinstance(w, Event):
                w._waiters.append(proc)
            else:
                raise SimError(f"unsupported waitable {w!r}")
        self._block(proc, sc.timeout)

    def _finish_wait_any(self, proc: _Proc, fired: Any, payload: Any) -> None:
        """A registered waitable fired while ``proc`` was blocked."""
        if proc.state != _BLOCKED:
            return
        entries = proc._wait_entries
        proc._wait_entries = []
        wake = proc._wake
        # unregister from the others; a recv whose event won withdraws its
        # receive
        for w in entries:
            if w is fired:
                continue
            if isinstance(w, Request):
                if wake == _WAKE_RECV:
                    _withdraw(w)
                else:
                    w._waiter = None
            elif isinstance(w, Event) and proc in w._waiters:
                w._waiters.remove(proc)
        if isinstance(fired, Request):
            overhead = self.network.recv_overhead()
            at = fired.completion_time + overhead
            proc.stats.recv_time += overhead
            # wait_any always returns (index, payload) — even for one
            # waitable — so a timeout sentinel (-1, None) stays
            # distinguishable; plain wait() returns the bare payload
            if wake == _WAKE_RECV:
                proc.sendval = fired
            elif wake == _WAKE_ANY:
                proc.sendval = (entries.index(fired), payload)
            else:
                proc.sendval = payload
        else:
            at = fired.set_time
            proc.sendval = (entries.index(fired), None) if wake == _WAKE_ANY else None
        self._unblock(proc, at)

    # -- collectives -----------------------------------------------------------------

    def _do_collective(self, proc: _Proc, sc: _CollectiveCall) -> None:
        rec = self._collectives.get(sc.key)
        if rec is None:
            rec = {"members": sc.members, "arrived": {}, "complete": sc.complete}
            self._collectives[sc.key] = rec
        # a Comm passes the same tuple on every call; compare only strangers
        if rec["members"] is not sc.members and rec["members"] != sc.members:
            raise SimError(
                f"collective {sc.key} member mismatch: {rec['members']} vs {sc.members}"
            )
        rec["arrived"][proc.pid] = (proc.clock, sc.data)
        self._block(proc)
        if len(rec["arrived"]) == len(rec["members"]):
            del self._collectives[sc.key]
            outcomes = rec["complete"](rec["arrived"])
            for pid, (finish, result) in outcomes.items():
                member = self._procs[pid]
                member.sendval = result
                self._unblock(member, finish)
