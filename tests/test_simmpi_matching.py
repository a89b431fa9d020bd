"""Message matching: the indexed mailbox against the scan it replaced.

``Mailbox`` buckets queued messages by tag and keeps a heap per bucket so a
receive does not depend on how many messages wait.  What a receive *gets*
must be exactly what the two linear scans of the original engine gave:
the first posted request a delivered message matches, and for a posted
receive the queued match with the smallest ``(arrival, seq)`` — each
bounded by a timed receive's deadline.  The reference below is those two
loops over one plain list per mailbox; random scripts of posts, waits,
timed and event-guarded receives are run on both and must agree on every
request's message, every clock and the event count.

The second half guards the cost: matcher work per receive may not grow
with the queue, on a bare engine and on the real coordinator.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedANN, SystemConfig
from repro.core.messages import TAG_RESULT, TAG_THREAD_DONE
from repro.simmpi import engine
from repro.simmpi.engine import ANY_SOURCE, ANY_TAG, Event, Request, Simulation
from repro.simmpi.errors import DeadlockError

# --------------------------------------------------------------------------
# reference matcher: the pre-index engine's loops
# --------------------------------------------------------------------------


def _ref_tag_matches(pattern, tag) -> bool:
    if pattern == ANY_TAG:
        return True
    if isinstance(pattern, tuple) and isinstance(tag, tuple) and len(pattern) == len(tag):
        return all(p == ANY_TAG or p == t for p, t in zip(pattern, tag))
    return pattern == tag


def _ref_matches(req, source, tag) -> bool:
    if req._match_source not in (ANY_SOURCE, source):
        return False
    return _ref_tag_matches(req._match_tag, tag)


class ReferenceSimulation(Simulation):
    """``Simulation`` with the original mailbox: one list, scanned in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: dict = {}

    def _deliver(self, mailbox, msg):
        for req in mailbox._pending:
            if _ref_matches(req, msg.source, msg.tag) and msg.arrival <= req.deadline:
                mailbox._pending.remove(req)
                req._complete(msg)
                if req._waiter is not None:
                    self._wake_receiver(req._waiter, req)
                return
        self._queues.setdefault(mailbox, []).append(msg)

    def _do_recv_post(self, proc, sc, deadline=float("inf")):
        req = Request(sc.mailbox, sc.source, sc.tag, proc.clock)
        queue = self._queues.setdefault(sc.mailbox, [])
        best_idx, best = -1, None
        for idx, msg in enumerate(queue):
            if _ref_matches(req, msg.source, msg.tag):
                if best is None or (msg.arrival, msg.seq) < (best.arrival, best.seq):
                    best_idx, best = idx, msg
        if best is not None and best.arrival <= deadline:
            del queue[best_idx]
            req._complete(best)
        else:
            req.deadline = deadline
            sc.mailbox._pending.append(req)
        return req


# --------------------------------------------------------------------------
# random scripts
# --------------------------------------------------------------------------

N_MAILBOXES = 2
SEND_TAGS = [0, 1, (7, 0), (7, 1), (8, 0)]
RECV_TAGS = [*SEND_TAGS, ANY_TAG, (7, ANY_TAG), (ANY_TAG, 0), (ANY_TAG, ANY_TAG), (9, ANY_TAG)]
OP_WEIGHTS = {"compute": 3, "send": 6, "post": 5, "wait": 1, "recv": 4, "set": 1}


def make_script(rng: random.Random) -> list[list[tuple]]:
    """Per proc, a list of ops.  Hypothesis supplies the seed only: drawing
    every field through it costs ~0.1 ms a draw, which at 5 s buys a tenth
    of the messages this does."""
    n_procs = rng.randint(2, 5)
    # few tags on one mailbox make deep buckets, many make wide wildcards
    send_tags = rng.sample(SEND_TAGS, rng.choice([1, 2, len(SEND_TAGS)]))
    n_mailboxes = rng.randint(1, N_MAILBOXES)

    def slot() -> int:  # index into the proc's own requests, modulo their count
        return rng.randrange(8)

    script = []
    for _ in range(n_procs):
        ops = []
        for kind in rng.choices(list(OP_WEIGHTS), list(OP_WEIGHTS.values()), k=rng.randint(8, 60)):
            if kind == "compute":
                # long enough that whole runs of messages queue before a post
                ops.append((kind, rng.choice([0.0, 2e-6, 5e-5, 5e-4])))
            elif kind == "send":
                # a large message sent first arrives after a small one sent
                # later, and an intra-node hop overtakes an inter-node one
                ops.append(
                    (kind, rng.randrange(n_mailboxes), rng.choice(send_tags),
                     rng.choice([8, 4096, 1 << 20]), rng.random() < 0.5)
                )
            elif kind == "post":
                source = rng.choice([ANY_SOURCE, ANY_SOURCE, *range(n_procs)])
                ops.append((kind, rng.randrange(n_mailboxes), source, rng.choice(RECV_TAGS)))
            elif kind == "recv":
                # timed, guarded by the script's event, or both
                source = rng.choice([ANY_SOURCE, ANY_SOURCE, *range(n_procs)])
                guarded = rng.random() < 0.5
                timeout = rng.choice([None, 0.0, 1e-6, 1e-4]) if guarded else rng.choice(
                    [0.0, 1e-6, 1e-4]
                )
                ops.append((kind, rng.randrange(n_mailboxes), source, rng.choice(RECV_TAGS),
                            guarded, timeout))
            elif kind == "wait":
                # blocking on a receive nothing will match is a deadlock, which
                # ends the comparison early: most waits only block when asked to
                ops.append((kind, slot(), rng.random() < 0.2))
            else:
                ops.append((kind,))
        script.append(ops)
    return script


def run_script(sim_cls, script):
    """Run ``script`` on ``sim_cls``; everything observable, as plain data."""
    sim = sim_cls()
    boxes = [sim.new_mailbox(f"mb{i}") for i in range(N_MAILBOXES)]
    log: list = []  # (pid, op index, virtual time, outcome), in engine order
    posted: list = []  # (pid, op index, Request)
    event = Event()

    def program(ctx, ops):
        reqs: list[Request] = []
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "compute":
                yield from ctx.compute(op[1])
            elif kind == "send":
                _, mb, tag, nbytes, same_node = op
                yield from ctx.send_to_mailbox(
                    boxes[mb], (ctx.pid, i), source=ctx.pid, tag=tag, nbytes=nbytes,
                    same_node=same_node,
                )
            elif kind == "post":
                _, mb, source, tag = op
                req = yield from ctx.post_recv(boxes[mb], source=source, tag=tag)
                reqs.append(req)
                posted.append((ctx.pid, i, req))
            elif kind == "recv":
                _, mb, source, tag, guarded, timeout = op
                req = yield from ctx.recv(
                    boxes[mb], source=source, tag=tag, event=event if guarded else None,
                    timeout=timeout,
                )
                got = None if req is None else (req.source, req.tag, req.payload, req.arrival)
                log.append((ctx.pid, i, ctx.now, got))
            elif kind == "set":
                yield from ctx.set_event(event)
            elif kind == "wait" and reqs:
                req = reqs[op[1] % len(reqs)]
                if not (req.done or op[2]):
                    continue
                payload = yield from ctx.wait(req)
                log.append((ctx.pid, i, ctx.now, payload))
        return ctx.now

    for pid, ops in enumerate(script):
        sim.add_proc(program, ops, node=pid % 2, name=f"p{pid}")
    try:
        out = sim.run()
        outcome = (out.n_events, out.makespan, out.clocks, out.results)
    except DeadlockError as exc:
        outcome = ("deadlock", str(exc))
    pairing = [
        (pid, i, r.done, r.source, r.tag, r.payload, r.arrival, r.completion_time)
        for pid, i, r in posted
    ]
    return outcome, log, pairing


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_matching_equals_the_reference_scan(seed):
    script = make_script(random.Random(seed))
    outcome, log, pairing = run_script(Simulation, script)
    ref_outcome, ref_log, ref_pairing = run_script(ReferenceSimulation, script)
    assert pairing == ref_pairing
    assert log == ref_log
    assert outcome == ref_outcome


def test_len_counts_queued_messages_across_tags():
    sim = Simulation()
    sink = sim.new_mailbox("sink")

    def sender(ctx):
        for tag in (3, 3, (7, 1)):
            yield from ctx.send_to_mailbox(sink, "x", source=0, tag=tag, nbytes=8, same_node=True)
        req = yield from ctx.post_recv(sink, tag=3)
        yield from ctx.wait(req)

    sim.add_proc(sender)
    sim.run()
    assert len(sink) == 2


# --------------------------------------------------------------------------
# cost: matcher work per receive does not grow with the queue
# --------------------------------------------------------------------------


@pytest.fixture
def matcher_calls(monkeypatch):
    """Counts every tag comparison the engine makes."""
    calls = [0]
    real = engine._tag_matches

    def counting(pattern, tag):
        calls[0] += 1
        return real(pattern, tag)

    monkeypatch.setattr(engine, "_tag_matches", counting)
    return calls


def _drain(n_threads: int, results_per_thread: int) -> int:
    """The coordinator's collection pattern on a bare engine.

    ``n_threads`` workers each send ``results_per_thread`` results and one
    thread-done notice while the master is still busy, so everything
    queues; the master then receives each with ``post_recv`` + ``wait``,
    results first — the order ``CoordinatorPipeline.run`` uses.
    """
    sim = Simulation()
    master_box = sim.new_mailbox("master")
    n_results = n_threads * results_per_thread

    def master(ctx):
        yield from ctx.compute(1.0)
        for tag, count in ((TAG_RESULT, n_results), (TAG_THREAD_DONE, n_threads)):
            for _ in range(count):
                req = yield from ctx.post_recv(ctx.mailbox, tag=tag)
                yield from ctx.wait(req)

    def worker(ctx):
        for tag in (TAG_RESULT,) * results_per_thread + (TAG_THREAD_DONE,):
            yield from ctx.send_to_mailbox(
                master_box, None, source=ctx.pid, tag=tag, nbytes=24, same_node=False
            )

    sim.add_proc(master, mailbox=master_box, name="master")
    for t in range(n_threads):
        sim.add_proc(worker, node=1 + t // 16, name=f"w{t}")
    sim.run()
    return n_results + n_threads


class TestScaling:
    """4x the input may cost at most 6x the matcher work (a scan costs 16x)."""

    def test_one_sided_drain(self, matcher_calls):
        work = {}
        for n_threads in (512, 2048):
            matcher_calls[0] = 0
            received = _drain(n_threads, results_per_thread=0)
            work[n_threads] = matcher_calls[0] + received
        assert work[2048] <= 6 * work[512]

    def test_two_sided_eager_collect(self, matcher_calls):
        work = {}
        for n_results in (1000, 4000):
            matcher_calls[0] = 0
            received = _drain(50, results_per_thread=n_results // 50)
            work[n_results] = matcher_calls[0] + received
        assert work[4000] <= 6 * work[1000]


# --------------------------------------------------------------------------
# the scale-out path's own golden point (values computed before the index)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scale_out_corpus():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(2048, 16)).astype(np.float32)
    Q = rng.normal(size=(96, 16)).astype(np.float32)
    return X, Q


GOLDEN_SHA = "b5cc681305914a07116263488b9b776709581363ee6b7dba3ca6313c49039c1c"


# n_events recomputed (3857 -> 2817, 4209 -> 2881) when ``Context.recv``
# made a receive one engine event, and again (2817 -> 1794, 2881 -> 2370)
# when a thread's start and stop became two events and the master counted
# the exit notices with one ``recv_n``; makespans and answers are unchanged
@pytest.mark.parametrize(
    "mode, n_events, total_seconds",
    [
        (dict(one_sided=True), 1794, 0.00019598000000000103),
        (dict(one_sided=False, dispatch_window=4), 2370, 0.0002847568000000013),
    ],
    ids=["one_sided", "two_sided_window4"],
)
def test_scale_out_golden(scale_out_corpus, matcher_calls, mode, n_events, total_seconds):
    """256 cores x 16 per node, modeled searcher: events, makespan and
    answers are pinned, and the whole call stays linear in its messages."""
    X, Q = scale_out_corpus
    cfg = SystemConfig(
        n_cores=256, cores_per_node=16, k=5, n_probe=3, seed=0, searcher="modeled",
        modeled_partition_points=10**6, modeled_sample_points=8, **mode,
    )
    ann = DistributedANN(cfg)
    ann.fit(X)
    matcher_calls[0] = 0
    D, I, rep = ann.query(Q)
    counters = rep.metrics["counters"]
    assert counters["sim.events"] == n_events
    assert rep.total_seconds == total_seconds
    assert hashlib.sha256(D.tobytes() + I.tobytes()).hexdigest() == GOLDEN_SHA
    # the scan made 256^2 / 2 = 32k comparisons for the thread-done drain alone
    assert matcher_calls[0] <= 2 * counters["sim.msgs_sent"]
