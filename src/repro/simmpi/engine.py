"""Discrete-event engine: procs, mailboxes, requests, events, scheduler.

A *proc* is one simulated execution context — an MPI rank or one OpenMP
thread inside a rank.  Proc code is a generator function taking a
:class:`Context`; every timed interaction is performed with ``yield from``
on a Context/Comm helper, which ultimately yields a syscall object that the
engine services.  :meth:`Simulation.run` dispatches each syscall through
one ``{syscall type: handler}`` table, and every syscall is one engine
event: one resume of the proc's program.  A syscall that charges compute
before it posts or sends (``recv(compute=)``, ``exit(compute=)``)
finishes in a *deferred step* at the run-queue key a separate
``compute`` would have given the post or send — bookkeeping the engine
does without resuming the program, so not an event, like a crash.

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
  how every coordinator receives one message, and the deadline
  fault-tolerant dispatch builds its retries on.  Under a fault model,
  a proc still blocked in such a flag-guarded receive when nothing else
  can run ends with the run (a thread whose every End-of-Queries a lossy
  link dropped); any other proc left blocked, and any at all on a
  perfect fabric, is a ``DeadlockError``.  A ``frozenset`` tag
  receives over several tags at once, in arrival order (a serving
  coordinator taking arrivals and results); ``iprobe`` asks, without
  an event, whether such a match has arrived yet,
- ``recv_n(mailbox, n, ...)`` — ``n`` receives in one event (a master
  counting its threads' exit notices),
- ``wait(request)``     — block until a receive posted with ``post_recv``
  matches,
- collectives and RMA — see :mod:`repro.simmpi.comm` / :mod:`~repro.simmpi.rma`.

``exit(send, compute=, span=)`` ends a proc's run in one event: a last
charge, a last send, and the end.  In a ``Simulation(keep_procs=True)``
the proc parks there instead of returning, and :meth:`Simulation.reset`
starts another run in which it resumes — a session that registers and
starts its thread procs once for many runs.

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
from contextlib import contextmanager
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

_INF = float("inf")


def _tag_matches(pattern, tag) -> bool:
    """Tag matching with wildcard support inside tuple tags.

    The comm layer namespaces user tags as ``(comm_id, user_tag)``; a
    receive for "any tag on this comm" uses ``(comm_id, ANY_TAG)``, so
    tuple patterns are compared elementwise with ``ANY_TAG`` as a
    per-element wildcard.  A ``frozenset`` pattern matches each of its
    members exactly (a receive over several tags).
    """
    if pattern == ANY_TAG:
        return True
    if isinstance(pattern, tuple) and isinstance(tag, tuple) and len(pattern) == len(tag):
        return all(p == ANY_TAG or p == t for p, t in zip(pattern, tag))
    if type(pattern) is frozenset:
        return tag in pattern
    return pattern == tag


def _check_seconds(seconds: float) -> None:
    if not 0.0 <= seconds < _INF:  # also false for NaN
        raise SimError(f"compute time must be finite and non-negative, got {seconds}")


def _check_timeout(timeout: float | None) -> None:
    if timeout is not None and not timeout >= 0:  # also true for NaN
        raise SimError(f"a wait timeout must be >= 0 virtual seconds, got {timeout}")


_RUNNABLE = "runnable"
_BLOCKED = "blocked"
#: waiting in the run queue for a step its last syscall scheduled at a
#: later virtual time (see Simulation._defer)
_DEFERRED = "deferred"
_DONE = "done"
_CRASHED = "crashed"


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload.

    NumPy arrays report their true buffer size; containers recurse; other
    scalars get a small fixed pickle-ish overhead.  Callers that know the
    exact size pass ``nbytes`` explicitly instead.
    """
    # the exact types collectives carry most, before the isinstance ladder
    # (which still sizes their subclasses: bool, np.float64, ...)
    t = type(obj)
    if t is np.ndarray:
        return obj.nbytes + 96
    if t is tuple:
        return 16 + sum([payload_nbytes(x) for x in obj])
    if t is int or t is float:
        return 32
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
    #: (seconds, kind) charged before the post, or None
    compute: tuple | None = None


@dataclass(slots=True)
class _RecvN:
    mailbox: "Mailbox"
    source: int
    tag: int
    n: int


@dataclass(slots=True)
class _Exit:
    send: _SendMsg
    #: (seconds, kind) charged before the send, or None
    compute: tuple | None
    #: span recorded around the send, or None
    span: str | None
    #: the proc's result when it parks instead of returning
    result: Any


@dataclass(slots=True)
class _Wait:
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
        "arrival",
        "deadline",
        "_mailbox",
        "_match_source",
        "_match_tag",
        "_waiter",
        "post_time",
    )

    def __init__(self, mailbox: "Mailbox", source: int, tag: int, post_time: float):
        self.done = False
        self.completion_time = float("inf")
        self.payload: Any = None
        self.source: int | None = None
        self.tag: int | None = None
        #: wire arrival time of the matched message (None until done) — lets
        #: receivers attribute mailbox queueing delay without wire changes
        self.arrival: float | None = None
        #: a match arriving later is not this receive's (a timed ``recv``)
        self.deadline = _INF
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


class _Gather(Request):
    """The posted receive of ``recv_n``: it stays pending until ``need``
    messages have matched it, collecting their payloads in match order."""

    __slots__ = ("need", "payloads")

    def __init__(self, mailbox: "Mailbox", source: int, tag, post_time: float, need: int):
        super().__init__(mailbox, source, tag, post_time)
        self.need = need
        self.payloads: list = []


class Event:
    """A one-shot condition flag (simulated condition variable).

    Models the shared "Done" flag of Algorithm 4: one thread sets it, and
    every thread blocked on it in a ``recv(..., event=)`` wakes at the set
    time.
    """

    __slots__ = ("done", "set_time", "_waiters")

    def __init__(self) -> None:
        self.done = False
        self.set_time = float("inf")
        self._waiters: list[_Proc] = []


def _withdraw(req: Request) -> None:
    """Take a posted, unmatched receive off its mailbox."""
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

    def _find(self, source: int, tag) -> tuple:
        """The queued message with the smallest ``(arrival, seq)`` that a
        receive for ``(source, tag)`` matches, and its heap; ``(None,
        None)`` when none does.  A ``frozenset`` tag looks at each of its
        tags' heaps, as a wildcard looks at every heap it matches."""
        buckets = self._buckets
        if not buckets:
            return None, None
        if tag == ANY_TAG or (isinstance(tag, tuple) and ANY_TAG in tag):
            heaps = [heap for t, heap in buckets.items() if _tag_matches(tag, t)]
        elif type(tag) is frozenset:
            heaps = [buckets[t] for t in tag if t in buckets]
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
        return best, best_heap

    def _take(self, source: int, tag, by: float = _INF) -> _Message | None:
        """Remove and return what :meth:`_find` finds, if it arrives ``by``."""
        best, best_heap = self._find(source, tag)
        if best is None or best.arrival > by:
            return None
        if best is best_heap[0]:
            heapq.heappop(best_heap)
        else:
            best_heap.remove(best)
            heapq.heapify(best_heap)
        if not best_heap:
            del self._buckets[best.tag]
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
        "_waiting",
        "_guard",
        "_deferred",
        "parked",
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
        self.stats = ProcStats()
        self.heap_token = 0
        self.timeout_token: int | None = None
        self._block_start = 0.0
        #: while blocked in ``wait``, ``recv`` or ``recv_n``: the receive
        #: it waits on, and the event that ends a ``recv`` early (or None)
        self._waiting: Request | None = None
        self._guard: Event | None = None
        #: (handler, syscall) of a _DEFERRED proc's pending step
        self._deferred: tuple | None = None
        #: ended its run with ``ctx.exit`` in a keep_procs simulation: the
        #: generator waits inside the exit for the next run
        self.parked = False


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
        yield self.compute_op(seconds, kind)

    def compute_op(self, seconds: float, kind: str = "compute") -> _Compute:
        """The syscall :meth:`compute` yields, for a program that yields it
        itself (``yield ctx.compute_op(s)``), one generator frame fewer."""
        _check_seconds(seconds)
        return _Compute(float(seconds), kind)

    # -- tracing -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a named tracing span: ``with ctx.span("route"): ...``.

        The elapsed virtual interval, blocking included, lands in this
        proc's :attr:`~repro.simmpi.trace.ProcStats.span_time` (see
        :data:`~repro.simmpi.trace.PHASES`); a span charges no virtual time.
        Keyword ``attrs`` (e.g. ``query_id=qid``) are attached to the span
        in the distributed trace when one is being recorded.
        """
        start = self.span_begin(name, attrs or None)
        try:
            yield
        finally:
            self.span_end(name, start)

    def span_begin(self, name: str, attrs: dict | None = None) -> float:
        """Open span ``name`` by hand; returns its start for :meth:`span_end`.
        A per-task path calls the pair around a ``yield`` in ``try`` /
        ``finally``, so a proc killed inside still closes it."""
        proc = self._proc
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.begin_span(proc.pid, name, proc.clock, attrs)
        return proc.clock

    def span_end(self, name: str, start: float) -> None:
        """Close the innermost open span, ``name`` begun at ``start``."""
        proc = self._proc
        spans = proc.stats.span_time
        spans[name] = spans.get(name, 0.0) + (proc.clock - start)
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.end_span(proc.pid, proc.clock)

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
        """Post a non-blocking receive; resumes with a :class:`Request`.
        ``tag`` may be a ``frozenset`` of tags, as for :meth:`recv`."""
        req = yield _RecvPost(mailbox, source, tag)
        return req

    def iprobe(self, mailbox: Mailbox, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Whether the message a receive for ``(source, tag)`` would take
        from ``mailbox`` now has arrived by this proc's clock (MPI_Iprobe).

        A host read, not a syscall: no event, no virtual time.  It is
        causal because the scheduler always resumes the lowest clock, so
        every message due by now has already been delivered.
        """
        msg = mailbox._find(source, tag)[0]
        return msg is not None and msg.arrival <= self._proc.clock

    def recv(
        self,
        mailbox: Mailbox,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        event: Event | None = None,
        timeout: float | None = None,
        compute: tuple | None = None,
    ):
        """Post a receive and block on it, in one engine event.

        Resumes with the completed :class:`Request` (its ``payload``,
        ``source``, ``tag`` and ``arrival`` are set), charged exactly as
        ``post_recv`` followed by ``wait``.  ``tag`` may be a
        ``frozenset`` of exact tags: the receive then takes the queued
        match with the smallest ``(arrival, seq)`` across them, or the
        first one delivered — one receive over several sources of work,
        settled in arrival order (not a tuple: a tuple is a
        comm-namespaced tag).  With an ``event``, or a
        ``timeout`` in virtual seconds, it resumes with ``None`` when the
        event is set first or the deadline passes, and the receive is
        withdrawn in the same step, so a message arriving later stays
        queued for the next receive — one that arrives after the deadline
        is never this receive's, even if it was sent (or queued) before.

        ``compute=(seconds, kind)`` charges that computation first: the
        clocks, stats and matching of ``compute(seconds, kind)`` followed
        by this receive, still in one event (a worker thread's lock epoch
        rides its first receive this way).
        """
        req = yield self.recv_op(mailbox, source, tag, event, timeout, compute)
        return req

    def recv_op(
        self, mailbox, source=ANY_SOURCE, tag=ANY_TAG, event=None, timeout=None, compute=None
    ) -> _Recv:
        """The syscall :meth:`recv` yields, for a program that yields it itself."""
        _check_timeout(timeout)
        if compute is not None:
            _check_seconds(compute[0])
        return _Recv(mailbox, source, tag, event, timeout, compute)

    def recv_n(self, mailbox: Mailbox, n: int, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Receive ``n`` messages in one engine event; resumes with their
        payloads in match order.

        One posted receive takes the queued matches in ``(arrival, seq)``
        order, then the later deliveries in delivery order, until it has
        ``n``; the clock and stats advance as for ``n`` back-to-back
        ``recv`` calls (each waits for its message, then pays the receive
        overhead).  It is those ``n`` calls exactly when this proc is the
        only receiver of these messages and they are delivered in
        ``(arrival, seq)`` order, e.g. equal-size messages on a fault-free
        fabric — how a coordinator counts its threads' exit notices.
        """
        if n < 0:
            raise SimError(f"recv_n needs n >= 0, got {n}")
        payloads = yield _RecvN(mailbox, source, tag, int(n))
        return payloads

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

    def send_op(
        self, mailbox: Mailbox, payload: Any, *, tag: int, nbytes: int, same_node: bool = False
    ) -> _SendMsg:
        """The syscall of a send from this proc, for a program that yields
        it itself (``yield ctx.send_op(...)``) or hands it to :meth:`exit`."""
        return _SendMsg(mailbox, self._proc.pid, tag, payload, int(nbytes), same_node)

    def wait(self, request: Request):
        """Block until ``request`` completes; resumes with its payload."""
        yield _Wait(request)
        return request.payload

    def exit(
        self, send: _SendMsg, *, compute: tuple | None = None, span: str | None = None, result=None
    ):
        """End this proc's run in one engine event: charge ``compute=
        (seconds, kind)``, then make ``send`` — a :meth:`send_op` syscall —
        inside a span named ``span``, then end.

        Clocks, stats, spans and the message are those of ``compute``,
        ``with span(...): send`` and a return.  The program must return
        right after it: in a plain simulation the exit resumes at once
        with False.  In a ``keep_procs`` simulation the proc parks
        instead, with ``result`` as its result; the exit returns True when
        the next run resumes it, and False when the simulation closes.
        """
        if type(send) is not _SendMsg:
            raise SimError(f"exit takes a send syscall (ctx.send_op), got {send!r}")
        if compute is not None:
            _check_seconds(compute[0])
        again = yield _Exit(send, compute, span, result)
        return again

    def collective(self, key: tuple, members: tuple, data: Any, complete: Callable):
        result = yield _CollectiveCall(key, members, data, complete)
        return result


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------


def _proc_error(proc: _Proc, exc: Exception) -> ProcError:
    """``exc`` raised by proc code, annotated with simulation context —
    "which rank died at what virtual time" is the first thing one needs
    to debug a distributed algorithm."""
    return ProcError(
        f"proc {proc.name!r} (pid={proc.pid}, node={proc.node}) raised "
        f"{type(exc).__name__} at virtual t={proc.clock:.6f}: {exc}",
        proc_name=proc.name,
        pid=proc.pid,
        node=proc.node,
        virtual_time=proc.clock,
    )


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
    """Owns procs, mailboxes, the event loop, and the timing models.

    A simulation runs once.  Built with ``keep_procs=True`` it is a
    session: procs that end their run with ``ctx.exit`` park inside it,
    and :meth:`reset` re-arms the simulation for another :meth:`run` in
    which they resume there, so a pool of threads is registered and
    started once for many runs.  :meth:`close` lets the parked programs
    return.
    """

    def __init__(
        self,
        network: NetworkModel | None = None,
        cost: CostModel | None = None,
        max_events: int = 200_000_000,
        faults=None,
        recorder=None,
        metrics=None,
        keep_procs: bool = False,
    ) -> None:
        self.max_events = max_events
        self.keep_procs = keep_procs
        self._arm(network, cost, faults, recorder, metrics)
        self._procs: list[_Proc] = []
        self._mailboxes: list[Mailbox] = []
        self._finished = False

    def _arm(self, network, cost, faults, recorder, metrics) -> None:
        """The per-run state: models, observers and an empty run queue."""
        self.network = network or NetworkModel()
        self.cost = cost or CostModel()
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
        self._runq: list[tuple[float, int, int]] = []
        self._seq = itertools.count()
        self._collectives: dict[tuple, dict] = {}
        self._started = False

    # -- construction --------------------------------------------------------

    def new_mailbox(self, name: str = "", node: int | None = None) -> Mailbox:
        mailbox = Mailbox(name, node)
        self._mailboxes.append(mailbox)
        return mailbox

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
            mailbox = self.new_mailbox(f"mb{pid}", node)
        proc = _Proc(pid, name or f"proc{pid}", node, mailbox)
        self._start(proc, program, args)
        self._procs.append(proc)
        if self.recorder is not None:
            self.recorder.register_proc(pid, proc.name, node)
        return pid

    def respawn(self, pid: int, program: Callable[..., Generator], *args: Any) -> None:
        """Give proc ``pid``, which returned or crashed in the last run, a
        new program for the next one (after :meth:`reset`).  It keeps its
        pid, node, name and mailbox — and so its place in the tie-break."""
        if self._started:
            raise SimError("cannot respawn procs after run() started")
        proc = self._procs[pid]
        if proc.gen is not None:
            raise SimError(f"proc {proc.name!r} (pid={pid}) still has a program")
        self._start(proc, program, args)

    def _start(self, proc: _Proc, program: Callable[..., Generator], args: tuple) -> None:
        gen = program(Context(self, proc), *args)
        if not hasattr(gen, "send"):
            raise SimConfigError(
                f"program {program!r} did not return a generator; "
                "proc bodies must be generator functions (use `yield from ctx...`)"
            )
        proc.gen = gen

    def mailbox_of(self, pid: int) -> Mailbox:
        return self._procs[pid].mailbox

    def node_of(self, pid: int) -> int:
        return self._procs[pid].node

    # -- sessions ----------------------------------------------------------------

    def reset(
        self,
        network: NetworkModel | None = None,
        cost: CostModel | None = None,
        faults=None,
        recorder=None,
        metrics=None,
    ) -> list[int]:
        """Re-arm a finished ``keep_procs`` simulation for another run.

        The arguments replace the constructor's.  Every mailbox empties,
        every clock returns to 0 with fresh :class:`ProcStats`, and a proc
        parked by ``ctx.exit`` resumes there (the exit returns True) as
        its first event.  Returns the pids that ended any other way —
        returned or crashed — each of which needs :meth:`respawn` before
        :meth:`run`.
        """
        if not self.keep_procs:
            raise SimError("reset() needs a Simulation(keep_procs=True)")
        if not self._finished:
            raise SimError("reset() needs a run that finished")
        self._arm(network, cost, faults, recorder, metrics)
        self._finished = False
        for mailbox in self._mailboxes:
            mailbox._buckets.clear()
            mailbox._pending.clear()
        ended = []
        for proc in self._procs:
            # a finished run leaves no timeout armed and no wait registered
            proc.clock = 0.0
            proc.stats = ProcStats()
            proc.result = None
            if proc.parked:  # until the run starts: close() may still end it
                proc.sendval = True
            else:
                proc.gen = None
                proc.sendval = None
                ended.append(proc.pid)
            if recorder is not None:
                recorder.register_proc(proc.pid, proc.name, proc.node)
        return ended

    def close(self) -> None:
        """Let every parked program return (its exit returns False)."""
        for proc in self._procs:
            if proc.parked:
                proc.parked = False
                gen, proc.gen = proc.gen, None
                self._return_after_exit(proc, gen, False)

    # -- event loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._started:
            raise SimError("Simulation.run() may only be called once per reset()")
        procs = self._procs
        for proc in procs:
            if proc.gen is None:
                raise SimError(f"proc {proc.name!r} (pid={proc.pid}) has no program; respawn() it")
        self._started = True
        for proc in procs:
            proc.state = _RUNNABLE
            proc.parked = False
            proc.heap_token = next(self._seq)
        # one heapify, not a push per proc
        runq = self._runq
        runq[:] = [(p.clock, p.heap_token, p.pid) for p in procs]
        heapq.heapify(runq)
        crash_schedule: list[tuple[int, float]] = []
        if self.faults is not None:
            # crashes are first-class engine events: one marker per crash,
            # with a negative pid, popped at exactly the crash instant
            crash_schedule = self.faults.crash_schedule()
            for i, (_, at) in enumerate(crash_schedule):
                heapq.heappush(runq, (at, next(self._seq), -(i + 1)))
        # one handler per syscall type, each taking (proc, syscall)
        dispatch = {
            _Compute: self._do_compute,
            _SendMsg: self._do_send,
            _RecvPost: self._do_post,
            _Recv: self._do_recv,
            _RecvN: self._do_recv_n,
            _Wait: self._do_wait,
            _EventSet: self._do_set_event,
            _CollectiveCall: self._do_collective,
            _RmaOp: self._do_rma,
            _Exit: self._do_exit,
        }
        heappop = heapq.heappop
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
                if token == proc.heap_token and proc.state == _DEFERRED:
                    # the rest of the proc's last syscall, due now; the
                    # program does not run, so this is not an event
                    handler, syscall = proc._deferred
                    proc._deferred = None
                    handler(proc, syscall)
                elif token == proc.timeout_token and proc.state == _BLOCKED:
                    n_events += 1
                    self._fire_timeout(proc, clock)
                continue  # otherwise a stale heap entry
            n_events += 1
            if n_events > max_events:
                raise SimError(
                    f"exceeded max_events={max_events}; "
                    "likely a loop that never blocks — use recv/wait"
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
                raise _proc_error(proc, exc) from exc
            proc.sendval = None
            handler = dispatch.get(type(syscall))
            if handler is None:
                raise SimError(f"proc {proc.name} yielded unknown syscall {syscall!r}")
            handler(proc, syscall)
        if self.faults is not None:
            for proc in procs:
                if proc.state == _BLOCKED and proc._guard is not None:
                    # a receive guarded by a stop flag: a server waiting
                    # for work or for the word to stop, which a faulty
                    # fabric may have dropped, and nothing is left to send
                    # either — it ends with the run
                    self._end(proc, _DONE, proc.clock)
        unfinished = [p for p in procs if p.state not in (_DONE, _CRASHED)]
        if unfinished:
            desc = ", ".join(f"{p.name}(pid={p.pid}, state={p.state})" for p in unfinished[:10])
            raise DeadlockError(
                f"{len(unfinished)} proc(s) blocked forever: {desc}"
            )
        self._finished = True
        result = SimulationResult(
            makespan=max((p.clock for p in procs), default=0.0),
            clocks={p.pid: p.clock for p in procs},
            results={p.pid: p.result for p in procs},
            stats={p.pid: p.stats for p in procs},
            n_events=n_events,
            crashed_pids=tuple(p.pid for p in procs if p.state == _CRASHED),
            fault_events=tuple(self.faults.events) if self.faults is not None else (),
        )
        if self.metrics is not None:
            # filled once at the end — the event loop itself never touches
            # the registry, so metrics cannot perturb the hot path
            self.metrics.counter("sim.events").value += n_events
            self.metrics.counter("sim.procs").value += len(procs)
            msgs = nbytes = rma_ops = 0
            for proc in procs:
                msgs += proc.stats.msgs_sent
                nbytes += proc.stats.bytes_sent
                rma_ops += proc.stats.rma_ops
            self.metrics.counter("sim.msgs_sent").value += msgs
            self.metrics.counter("sim.bytes_sent").value += nbytes
            self.metrics.counter("sim.rma_ops").value += rma_ops
            self.metrics.gauge("sim.makespan_seconds").set(result.makespan)
        return result

    # -- internals ---------------------------------------------------------------

    def _push(self, proc: _Proc) -> None:
        proc.state = _RUNNABLE
        proc.heap_token = next(self._seq)
        heapq.heappush(self._runq, (proc.clock, proc.heap_token, proc.pid))

    def _defer(self, proc: _Proc, handler: Callable, syscall: Any) -> None:
        """Finish ``syscall`` with ``handler`` where a push would next resume
        ``proc``: the same run-queue key — clock and tie-break — at which a
        syscall split in two (a compute, then a post or a send) would make
        its second call, so every message meets the same receives."""
        proc.state = _DEFERRED
        proc._deferred = (handler, syscall)
        proc.heap_token = next(self._seq)
        heapq.heappush(self._runq, (proc.clock, proc.heap_token, proc.pid))

    def _charge_then(self, proc: _Proc, sc: _Recv | _Exit, handler: Callable) -> None:
        """Charge the syscall's ``compute``, then hand the rest of it — the
        same syscall with nothing left to charge — to ``handler`` in a
        deferred step."""
        seconds, kind = sc.compute
        sc.compute = None
        if self.faults is not None:
            seconds *= self.faults.compute_factor(proc.node)
        proc.clock += seconds
        compute = proc.stats.compute
        compute[kind] = compute.get(kind, 0.0) + seconds
        self._defer(proc, handler, sc)

    def _block(self, proc: _Proc, timeout: float | None = None) -> None:
        proc.state = _BLOCKED
        proc._block_start = proc.clock
        if timeout is not None:
            # arm a deadline: a heap entry keyed to timeout_token; a match
            # or the event clears the token, making the entry inert
            proc.timeout_token = next(self._seq)
            heapq.heappush(self._runq, (proc.clock + timeout, proc.timeout_token, proc.pid))

    def _unblock(self, proc: _Proc, at_time: float) -> None:
        """Wake ``proc`` at ``at_time``; the blocked interval is its wait."""
        proc.timeout_token = None  # a pending wait deadline no longer applies
        new_clock = max(proc.clock, at_time)
        proc.stats.comm_wait += new_clock - proc._block_start
        proc.clock = new_clock
        self._push(proc)

    def _charge_receive(self, proc: _Proc, completion: float) -> None:
        """The clock and stats of one receive completing at ``completion``:
        the proc waits (``comm_wait``) from its clock until the completion
        if that is still ahead, then pays the receive overhead once
        (``recv_time``) — whether it blocked on the receive or found it
        already complete."""
        overhead = self.network.recv_overhead()
        stats = proc.stats
        start = max(proc.clock, completion)
        stats.comm_wait += start - proc.clock
        stats.recv_time += overhead
        proc.clock = start + overhead

    def _fire_timeout(self, proc: _Proc, deadline: float) -> None:
        """A ``recv`` deadline passed with nothing matched."""
        if proc._guard is not None:
            proc._guard._waiters.remove(proc)
        self._stop_receive(proc, deadline)

    def _stop_receive(self, proc: _Proc, at: float) -> None:
        """End ``proc``'s blocked ``recv`` unmatched at ``at`` (its event
        was set or its deadline passed): withdraw it, resume with None."""
        _withdraw(proc._waiting)
        proc._waiting = proc._guard = None
        proc.sendval = None
        self._unblock(proc, at)

    # -- fault enactment ---------------------------------------------------------

    def _enact_crash(self, node: int, at: float) -> None:
        """Fail-stop crash of ``node``: every proc on it dies at time ``at``."""
        self.faults.record("crash", at, node=node)
        for proc in self._procs:
            if proc.node == node and proc.state not in (_DONE, _CRASHED):
                self._end(proc, _CRASHED, at)

    def _end(self, proc: _Proc, state: str, at: float) -> None:
        """End ``proc``'s program where it stands, in ``state`` at time
        ``at`` or its own clock if later: withdraw the receive it is
        blocked on and its event registration — an ended proc must never
        consume a message or wake from an event — then close the
        generator."""
        req = proc._waiting
        if req is not None:
            req._waiter = None
            if req in req._mailbox._pending:
                req._mailbox._pending.remove(req)
        if proc._guard is not None:
            proc._guard._waiters.remove(proc)
        proc._waiting = proc._guard = None
        proc._deferred = None  # a deferred post or send dies unmade
        proc.timeout_token = None
        proc.state = state
        proc.clock = max(proc.clock, at)
        try:
            proc.gen.close()
        except Exception:
            pass  # cleanup code in the ending proc must not sink the engine

    # -- syscall handlers ------------------------------------------------------

    def _do_compute(self, proc: _Proc, sc: _Compute) -> None:
        seconds = sc.seconds
        if self.faults is not None:
            seconds *= self.faults.compute_factor(proc.node)
        proc.clock += seconds
        compute = proc.stats.compute
        compute[sc.kind] = compute.get(sc.kind, 0.0) + seconds
        self._push(proc)

    def _do_set_event(self, proc: _Proc, sc: _EventSet) -> None:
        ev = sc.event
        if not ev.done:
            ev.done = True
            ev.set_time = proc.clock
            waiters, ev._waiters = ev._waiters, []
            for waiter in waiters:
                self._stop_receive(waiter, ev.set_time)
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
        self._transmit(proc, sc)
        self._push(proc)

    def _transmit(self, proc: _Proc, sc: _SendMsg) -> None:
        network, faults, stats = self.network, self.faults, proc.stats
        overhead = network.send_overhead()
        proc.clock += overhead
        stats.send_time += overhead
        stats.msgs_sent += 1
        stats.bytes_sent += sc.nbytes
        if faults is None:
            arrival = proc.clock + network.p2p_time(sc.nbytes, sc.same_node)
            msg = _Message(arrival, next(self._seq), sc.source, sc.tag, sc.payload)
            self._deliver(sc.mailbox, msg)
            return
        # the sender is always charged its overhead above — a dropped
        # message costs the origin the same CPU time as a delivered one
        for wire in faults.transfer_times(
            proc.node, sc.mailbox.node, sc.nbytes, sc.same_node, network, proc.clock
        ):
            arrival = proc.clock + wire
            if faults.node_down(sc.mailbox.node, arrival):
                faults.record(
                    "msg_lost_node_down", arrival, src=proc.node, dst=sc.mailbox.node, tag=sc.tag
                )
                continue
            msg = _Message(arrival, next(self._seq), sc.source, sc.tag, sc.payload)
            self._deliver(sc.mailbox, msg)

    def _deliver(self, mailbox: Mailbox, msg: _Message) -> None:
        for req in mailbox._pending:
            if req._matches(msg.source, msg.tag):
                if msg.arrival > req.deadline:
                    continue  # the receive times out first; the message is not its
                if type(req) is _Gather:
                    self._gather(req, msg)
                    return
                mailbox._pending.remove(req)
                req._complete(msg)
                if req._waiter is not None:
                    self._wake_receiver(req._waiter, req)
                return
        mailbox._put(msg)

    def _do_recv_post(self, proc: _Proc, sc: _RecvPost, deadline: float = _INF) -> Request:
        req = Request(sc.mailbox, sc.source, sc.tag, proc.clock)
        msg = sc.mailbox._take(sc.source, sc.tag, deadline)
        if msg is not None:
            req._complete(msg)
        else:
            req.deadline = deadline
            sc.mailbox._pending.append(req)
        return req

    def _do_post(self, proc: _Proc, sc: _RecvPost) -> None:
        proc.sendval = self._do_recv_post(proc, sc)
        self._push(proc)

    def _resume_received(self, proc: _Proc, req: Request) -> None:
        """Resume ``proc`` with an already completed receive."""
        self._charge_receive(proc, req.completion_time)
        proc.sendval = req
        self._push(proc)

    def _do_recv(self, proc: _Proc, sc: _Recv) -> None:
        if sc.compute is not None:
            self._charge_then(proc, sc, self._do_recv)
            return
        # a post, a wait for the match, the event or the deadline, and the
        # withdrawal of an unmatched receive, in one event; a match that
        # arrives after the deadline stays queued
        timeout = sc.timeout
        req = self._do_recv_post(proc, sc, _INF if timeout is None else proc.clock + timeout)
        if req.done:
            self._resume_received(proc, req)
            return
        event = sc.event
        if event is not None and event.done:
            _withdraw(req)
            proc.clock = max(proc.clock, event.set_time)
            self._push(proc)  # resumes with None
            return
        req._waiter = proc
        proc._waiting = req
        if event is not None:
            proc._guard = event
            event._waiters.append(proc)
        self._block(proc, timeout)

    def _do_recv_n(self, proc: _Proc, sc: _RecvN) -> None:
        gather = _Gather(sc.mailbox, sc.source, sc.tag, proc.clock, sc.n)
        gather._waiter = proc
        while len(gather.payloads) < gather.need:
            msg = sc.mailbox._take(sc.source, sc.tag)
            if msg is None:
                sc.mailbox._pending.append(gather)
                proc._waiting = gather
                self._block(proc)
                return
            self._gather(gather, msg)
        proc.sendval = gather.payloads
        self._push(proc)

    def _gather(self, gather: _Gather, msg: _Message) -> None:
        """One match of a ``recv_n``: the clock and stats of one receive
        posted now (its wait, then its overhead); the last wakes the proc."""
        proc = gather._waiter
        self._charge_receive(proc, msg.arrival)
        gather.payloads.append(msg.payload)
        if len(gather.payloads) == gather.need and proc.state == _BLOCKED:
            gather.done = True
            gather._mailbox._pending.remove(gather)
            proc._waiting = None
            proc.sendval = gather.payloads
            self._push(proc)

    def _do_exit(self, proc: _Proc, sc: _Exit) -> None:
        if sc.compute is not None:
            self._charge_then(proc, sc, self._do_exit)
            return
        recorder = self.recorder
        start = proc.clock
        if sc.span is not None and recorder is not None:
            recorder.begin_span(proc.pid, sc.span, start)
        self._transmit(proc, sc.send)
        if sc.span is not None:
            spans = proc.stats.span_time
            spans[sc.span] = spans.get(sc.span, 0.0) + (proc.clock - start)
            if recorder is not None:
                recorder.end_span(proc.pid, proc.clock)
        if self.faults is not None and self.faults.node_down(proc.node, proc.clock):
            # a crash before the proc's end still finds it alive: the end
            # is a step of its own, which the crash then pre-empts
            self._defer(proc, self._end_run, sc)
        else:
            self._end_run(proc, sc)

    def _end_run(self, proc: _Proc, sc: _Exit) -> None:
        proc.state = _DONE
        if self.keep_procs:
            proc.parked = True
            proc.result = sc.result
        else:
            proc.result = self._return_after_exit(proc, proc.gen, False)

    @staticmethod
    def _return_after_exit(proc: _Proc, gen: Generator, again: bool) -> Any:
        """Resume ``gen`` out of its ``ctx.exit``; it must return."""
        try:
            syscall = gen.send(again)
        except StopIteration as stop:
            return stop.value
        except SimError:
            raise
        except Exception as exc:
            raise _proc_error(proc, exc) from exc
        raise SimError(f"proc {proc.name!r} yielded {syscall!r} after ctx.exit; it must return")

    def _do_wait(self, proc: _Proc, sc: _Wait) -> None:
        req = sc.request
        if req.done:
            self._resume_received(proc, req)
        else:
            req._waiter = proc
            proc._waiting = req
            self._block(proc)

    def _wake_receiver(self, proc: _Proc, req: Request) -> None:
        """``req``, the receive ``proc`` is blocked on, has matched."""
        proc._waiting = None
        if proc._guard is not None:
            proc._guard._waiters.remove(proc)
            proc._guard = None
        proc.timeout_token = None  # a pending deadline no longer applies
        self._resume_received(proc, req)

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
