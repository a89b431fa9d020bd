"""Unit tests for the discrete-event engine: clocks, matching, blocking."""

import dataclasses
import random

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSpec, LinkFault, RankCrash, SlowNode
from repro.obs.trace import TraceRecorder
from repro.simmpi import DeadlockError, ProcError, SimError, Simulation
from repro.simmpi.engine import ANY_SOURCE, ANY_TAG, Event, Request, payload_nbytes


def run_single(program, *args, **kwargs):
    sim = Simulation()
    pid = sim.add_proc(program, *args, **kwargs)
    out = sim.run()
    return out, pid


class TestBasics:
    def test_compute_advances_clock(self):
        def p(ctx):
            yield from ctx.compute(1.5, kind="work")
            yield from ctx.compute(0.5, kind="other")
            return ctx.now

        out, pid = run_single(p)
        assert out.results[pid] == pytest.approx(2.0)
        assert out.stats[pid].compute == {"work": 1.5, "other": 0.5}

    def test_negative_compute_rejected(self):
        def p(ctx):
            yield from ctx.compute(-1.0)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(Exception, match="negative"):
            sim.run()

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_compute_rejected(self, seconds):
        """A NaN charge used to pass the sign check and end the run with a
        NaN clock and makespan."""

        def p(ctx):
            yield from ctx.compute(seconds)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(SimError, match="finite"):
            sim.run()

    @pytest.mark.parametrize("how", ["recv", "recv_op"])
    @pytest.mark.parametrize("timeout", [float("nan"), -1.0])
    def test_bad_timeout_rejected(self, how, timeout):
        def p(ctx):
            if how == "recv":
                yield from ctx.recv(ctx.mailbox, timeout=timeout)
            else:  # the syscall a worker yields itself
                yield ctx.recv_op(ctx.mailbox, timeout=timeout)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(SimError, match="timeout"):
            sim.run()

    def test_non_generator_program_rejected(self):
        sim = Simulation()
        with pytest.raises(Exception, match="generator"):
            sim.add_proc(lambda ctx: 42)

    def test_run_twice_rejected(self):
        def p(ctx):
            yield from ctx.compute(0.0)

        sim = Simulation()
        sim.add_proc(p)
        sim.run()
        with pytest.raises(Exception, match="once"):
            sim.run()

    def test_makespan_is_max_clock(self):
        sim = Simulation()

        def slow(ctx):
            yield from ctx.compute(3.0)

        def fast(ctx):
            yield from ctx.compute(1.0)

        sim.add_proc(slow)
        sim.add_proc(fast)
        assert sim.run().makespan == pytest.approx(3.0)


class TestMessaging:
    def test_send_recv_payload_and_timing(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.compute(1.0)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), {"x": 1}, source=0, tag=5, nbytes=100, same_node=False
            )

        def receiver(ctx):
            req = yield from ctx.post_recv(ctx.mailbox, source=0, tag=5)
            payload = yield from ctx.wait(req)
            return payload, ctx.now

        sim.add_proc(sender, name="s")
        sim.add_proc(receiver, name="r")
        out = sim.run()
        payload, t = out.results[1]
        assert payload == {"x": 1}
        assert t > 1.0  # receiver resumed after the send time plus latency

    def test_tag_mismatch_blocks_until_match(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "wrong", source=0, tag=1, nbytes=8, same_node=True
            )
            yield from ctx.compute(1.0)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "right", source=0, tag=2, nbytes=8, same_node=True
            )

        def receiver(ctx):
            req = yield from ctx.post_recv(ctx.mailbox, tag=2)
            return (yield from ctx.wait(req))

        sim.add_proc(sender)
        sim.add_proc(receiver)
        out = sim.run()
        assert out.results[1] == "right"

    def test_any_source_any_tag(self):
        sim = Simulation()

        def sender(ctx, tag):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(2), tag, source=ctx.pid, tag=tag, nbytes=8, same_node=True
            )

        def receiver(ctx):
            got = []
            for _ in range(2):
                req = yield from ctx.post_recv(ctx.mailbox, source=ANY_SOURCE, tag=ANY_TAG)
                got.append((yield from ctx.wait(req)))
            return sorted(got)

        sim.add_proc(sender, 10)
        sim.add_proc(sender, 20)
        sim.add_proc(receiver)
        assert sim.run().results[2] == [10, 20]

    def test_earliest_arrival_matched_first(self):
        sim = Simulation()

        def sender(ctx):
            # sent in order; arrivals ordered the same (same route)
            for i in range(3):
                yield from ctx.send_to_mailbox(
                    sim.mailbox_of(1), i, source=0, tag=0, nbytes=8, same_node=True
                )

        def receiver(ctx):
            yield from ctx.compute(1.0)  # let everything queue up
            got = []
            for _ in range(3):
                req = yield from ctx.post_recv(ctx.mailbox)
                got.append((yield from ctx.wait(req)))
            return got

        sim.add_proc(sender)
        sim.add_proc(receiver)
        assert sim.run().results[1] == [0, 1, 2]

    def test_cancelled_recv_does_not_consume_message(self):
        """A message sent after a receive timed out must land in the
        queue, not the withdrawn receive — a later receive picks it up."""
        sim = Simulation()

        def p(ctx):
            first = yield from ctx.recv(ctx.mailbox, tag=7, timeout=0.25)
            withdrawn = not ctx.mailbox._pending
            yield from ctx.compute(1.0)  # let the message arrive meanwhile
            second = yield from ctx.post_recv(ctx.mailbox, tag=7)
            payload = yield from ctx.wait(second)
            return first, withdrawn, payload

        def sender(ctx):
            yield from ctx.compute(0.5)  # send strictly after the timeout
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), "kept", source=1, tag=7, nbytes=8, same_node=True
            )

        pid = sim.add_proc(p)
        sim.add_proc(sender)
        out = sim.run()
        assert out.results[pid] == (None, True, "kept")


class TestSharedMailbox:
    def test_threads_pull_from_shared_queue(self):
        """Two procs share a mailbox; each message is consumed exactly once."""
        sim = Simulation()
        shared = sim.new_mailbox("shared")

        def sender(ctx):
            for i in range(6):
                yield from ctx.send_to_mailbox(
                    shared, i, source=0, tag=0, nbytes=8, same_node=True
                )

        def worker(ctx):
            got = []
            for _ in range(3):
                req = yield from ctx.post_recv(shared)
                got.append((yield from ctx.wait(req)))
                yield from ctx.compute(0.01)
            return got

        sim.add_proc(sender)
        a = sim.add_proc(worker, mailbox=shared)
        b = sim.add_proc(worker, mailbox=shared)
        out = sim.run()
        all_got = sorted(out.results[a] + out.results[b])
        assert all_got == [0, 1, 2, 3, 4, 5]


class TestEvents:
    def test_event_set_before_any_message_wins(self):
        sim = Simulation()
        ev = Event()

        def setter(ctx):
            yield from ctx.compute(2.0)
            yield from ctx.set_event(ev)

        def waiter(ctx):
            req = yield from ctx.recv(ctx.mailbox, event=ev)
            return req, ctx.now

        sim.add_proc(setter)
        sim.add_proc(waiter)
        req, t = sim.run().results[1]
        assert req is None and t == 2.0

    def test_event_already_set_returns_immediately(self):
        sim = Simulation()
        ev = Event()

        def setter_then_waiter(ctx):
            yield from ctx.compute(1.0)
            yield from ctx.set_event(ev)
            req = yield from ctx.recv(ctx.mailbox, event=ev)
            return req, ctx.now

        out, pid = run_single_sim(sim, setter_then_waiter)
        assert out.results[pid] == (None, 1.0)

    def test_multiple_waiters_all_wake(self):
        sim = Simulation()
        ev = Event()

        def setter(ctx):
            yield from ctx.compute(1.0)
            yield from ctx.set_event(ev)

        def waiter(ctx):
            yield from ctx.recv(ctx.mailbox, event=ev)
            return ctx.now

        sim.add_proc(setter)
        w = [sim.add_proc(waiter) for _ in range(3)]
        out = sim.run()
        assert all(out.results[pid] == pytest.approx(1.0) for pid in w)


class TestRecv:
    """``Context.recv``: post, wait and, when the event or the deadline
    wins, withdraw — one engine event."""

    @staticmethod
    def _send_at(sim, t, payload, dest=0, tag=0):
        def sender(ctx):
            yield from ctx.compute(t)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(dest), payload, source=ctx.pid, tag=tag, nbytes=8, same_node=True
            )

        return sender

    def test_immediate_match(self):
        sim = Simulation()

        def receiver(ctx):
            yield from ctx.compute(1.0)  # the message is already queued
            req = yield from ctx.recv(ctx.mailbox, tag=4)
            return req.payload, req.source, req.tag, ctx.now

        pid = sim.add_proc(receiver)
        sim.add_proc(self._send_at(sim, 0.0, "early", tag=4))
        out = sim.run()
        payload, source, tag, now = out.results[pid]
        assert (payload, source, tag) == ("early", 1, 4)
        overhead = sim.network.recv_overhead()
        assert now == 1.0 + overhead
        assert out.stats[pid].recv_time == overhead
        assert out.stats[pid].comm_wait == 0.0
        # compute, recv, return: the receive was one event
        assert out.n_events == 3 + 3

    def test_event_wins_and_later_message_stays_queued(self):
        sim = Simulation()
        ev = Event()

        def receiver(ctx):
            first = yield from ctx.recv(ctx.mailbox, event=ev)
            withdrawn = not ctx.mailbox._pending
            t_event = ctx.now
            yield from ctx.compute(5.0)  # the message lands meanwhile
            second = yield from ctx.recv(ctx.mailbox, event=ev)
            return first, withdrawn, t_event, second.payload

        def setter(ctx):
            yield from ctx.compute(2.0)
            yield from ctx.set_event(ev)

        pid = sim.add_proc(receiver)
        sim.add_proc(setter)
        sim.add_proc(self._send_at(sim, 3.0, "kept"))
        first, withdrawn, t_event, payload = sim.run().results[pid]
        assert first is None and withdrawn
        assert t_event == 2.0
        # a queued message beats an already set event
        assert payload == "kept"

    def test_set_event_returns_none_without_blocking(self):
        sim = Simulation()
        ev = Event()

        def p(ctx):
            yield from ctx.set_event(ev)
            req = yield from ctx.recv(ctx.mailbox, event=ev)
            return req, len(ctx.mailbox._pending)

        out, pid = run_single_sim(sim, p)
        assert out.results[pid] == (None, 0)

    def test_timeout_returns_none_at_the_deadline(self):
        sim = Simulation()

        def receiver(ctx):
            yield from ctx.compute(0.5)
            req = yield from ctx.recv(ctx.mailbox, timeout=1.25)
            withdrawn = not ctx.mailbox._pending
            return req, ctx.now, withdrawn

        pid = sim.add_proc(receiver)
        sim.add_proc(self._send_at(sim, 4.0, "late"))
        out = sim.run()
        assert out.results[pid] == (None, 1.75, True)
        assert out.stats[pid].comm_wait == 1.25
        assert len(sim.mailbox_of(pid)) == 1  # the late message stays queued

    @pytest.mark.parametrize("send_first", [True, False])
    def test_a_match_arriving_after_the_deadline_stays_queued(self, send_first):
        """A 50 MB message, on the wire until ~5 ms, is not the match of a
        receive that times out at 1 ms — whether it was queued before the
        post or delivered while the receive waited."""
        sim = Simulation()

        def receiver(ctx):
            if send_first:
                yield from ctx.compute(1e-6)
            req = yield from ctx.recv(ctx.mailbox, timeout=1e-3)
            return req, ctx.now

        def sender(ctx):
            if not send_first:
                yield from ctx.compute(1e-6)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), "big", source=ctx.pid, tag=0, nbytes=50 << 20,
                same_node=False,
            )

        sim.add_proc(receiver)
        sim.add_proc(sender)
        out = sim.run()
        assert out.results[0] == (None, (1e-6 if send_first else 0.0) + 1e-3)
        assert len(sim.mailbox_of(0)) == 1 and not sim.mailbox_of(0)._pending
        (msg,) = sim.mailbox_of(0)._buckets[0]
        assert msg.arrival > 4e-3

    def test_message_before_deadline_disarms_the_timer(self):
        sim = Simulation()

        def receiver(ctx):
            req = yield from ctx.recv(ctx.mailbox, timeout=100.0)
            return req.payload, ctx.now

        pid = sim.add_proc(receiver)
        sim.add_proc(self._send_at(sim, 1.0, "fast"))
        payload, now = sim.run().results[pid]
        assert payload == "fast" and now < 100.0

    def test_crash_while_blocked_leaves_no_pending_receive(self):
        sim = Simulation(faults=FaultInjector(FaultSpec(crashes=(RankCrash(node=1, at=1.0),))))
        shared = sim.new_mailbox("node1", node=1)
        ev = Event()

        def stuck(ctx):
            yield from ctx.recv(shared, event=ev)

        pid = sim.add_proc(stuck, node=1, mailbox=shared)
        out = sim.run()  # not a DeadlockError
        assert out.crashed_pids == (pid,)
        assert shared._pending == [] and ev._waiters == []


class TestTagSets:
    """A ``frozenset`` tag receives over several tags at once, taking the
    match with the smallest ``(arrival, seq)`` across them; ``iprobe``
    reads that match without an event."""

    @staticmethod
    def _receive(tag, sent_tags, n_recv):
        """One sender spreads ``sent_tags`` over time, one receiver makes
        ``n_recv`` receives with ``tag`` — the first few find their match
        queued, the rest block for it.  Returns what each receive got,
        the receiver's clock and what stays queued."""
        sim = Simulation()

        def receiver(ctx):
            yield from ctx.compute(0.35)
            got = []
            for _ in range(n_recv):
                req = yield from ctx.recv(ctx.mailbox, tag=tag)
                got.append((req.payload, req.tag, req.arrival))
            return got, ctx.now

        def sender(ctx):
            for i, t in enumerate(sent_tags):
                yield from ctx.compute(0.1)
                # sizes vary, so arrival order is not send order
                yield from ctx.send_to_mailbox(
                    sim.mailbox_of(0), i, source=ctx.pid, tag=t, nbytes=(1 << 20) * (i % 3),
                    same_node=False,
                )

        sim.add_proc(receiver)
        sim.add_proc(sender)
        out = sim.run()
        return out.results[0], sorted(m.tag for b in sim.mailbox_of(0)._buckets.values() for m in b)

    def test_a_set_of_every_tag_present_is_any_tag(self):
        sent = [1, 0, 0, 1, 1, 0, 1, 0, 0]
        assert self._receive(frozenset({0, 1}), sent, 9) == self._receive(ANY_TAG, sent, 9)

    def test_other_tags_stay_queued(self):
        sent = [1, 2, 0, 2, 1, 0, 2, 0, 1]
        (got, _), queued = self._receive(frozenset({0, 1}), sent, 6)
        assert sorted(p for p, _, _ in got) == [i for i, t in enumerate(sent) if t != 2]
        arrivals = [at for _, _, at in got]
        assert arrivals == sorted(arrivals)
        assert queued == [2, 2, 2]

    def test_a_tuple_tag_still_matches_elementwise(self):
        sent = [(7, 0), (8, 0), (7, 1)]
        (got, _), queued = self._receive((7, ANY_TAG), sent, 2)
        assert sorted(t for _, t, _ in got) == [(7, 0), (7, 1)] and queued == [(8, 0)]
        (got, _), queued = self._receive(frozenset({(8, 0)}), sent, 1)
        assert [t for _, t, _ in got] == [(8, 0)] and queued == [(7, 0), (7, 1)]

    def test_iprobe_sees_only_what_has_arrived(self):
        sim = Simulation()

        def receiver(ctx):
            yield from ctx.compute(1e-6)  # the message is queued, still on the wire
            early = ctx.iprobe(ctx.mailbox, tag=frozenset({0, 3}))
            yield from ctx.compute(1.0)
            return (early, ctx.iprobe(ctx.mailbox, tag=frozenset({0, 3})),
                    ctx.iprobe(ctx.mailbox, tag=0), ctx.iprobe(ctx.mailbox, source=5),
                    ctx.now)

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), "big", source=ctx.pid, tag=3, nbytes=1 << 20, same_node=False,
            )

        sim.add_proc(receiver)
        sim.add_proc(sender)
        out = sim.run()
        # a host read: no event and no virtual time
        assert out.results[0] == (False, True, False, False, 1.0 + 1e-6)
        assert len(sim.mailbox_of(0)) == 1


class TestWaitAccounting:
    """A receive's wait is the time from the post to the completion, and
    its overhead is ``recv_time`` only: the buckets sum to the clock
    however the host happened to order the send and the post."""

    NBYTES = 1 << 20  # a 1 MB message, ~100 us on the default fabric

    def _run(self, send_first: bool):
        sim = Simulation()

        def receiver(ctx):
            if send_first:  # the send is serviced before the post
                yield from ctx.compute(1e-6)
            req = yield from ctx.recv(ctx.mailbox, tag=0)
            return req.completion_time

        def sender(ctx):
            if not send_first:  # the post is serviced before the send
                yield from ctx.compute(1e-6)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), None, source=ctx.pid, tag=0, nbytes=self.NBYTES,
                same_node=False,
            )

        sim.add_proc(receiver)
        sim.add_proc(sender)
        out = sim.run()
        return out, sim.network.recv_overhead()

    @pytest.mark.parametrize("send_first", [True, False])
    def test_wait_is_completion_minus_post(self, send_first):
        out, overhead = self._run(send_first)
        s = out.stats[0]
        completion = out.results[0]
        assert completion > 50e-6  # the message is still on the wire at the post
        assert s.comm_wait == pytest.approx(completion - 1e-6 if send_first else completion,
                                            rel=1e-12)
        assert s.recv_time == overhead
        busy = sum(s.compute.values()) + s.send_time + s.recv_time + s.comm_wait + s.rma_time
        assert busy == pytest.approx(out.clocks[0], rel=1e-12)


# --------------------------------------------------------------------------
# recv against a direct model of post, wait for any of match / event /
# deadline, and cancel, on random schedules
# --------------------------------------------------------------------------


class ReferenceSimulation(Simulation):
    """``Simulation`` whose ``recv`` keeps its blocked receives in one
    table, ``proc -> (request, event, deadline)``, which every match,
    event set and deadline looks up — in place of the engine's per-proc
    wait state, per-event waiter lists and per-request deadlines.  Clocks
    are charged by the engine's helpers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._blocked: dict = {}

    def _do_recv(self, proc, sc):
        deadline = float("inf") if sc.timeout is None else proc.clock + sc.timeout
        first = sc.mailbox._find(sc.source, sc.tag)[0]
        if first is not None and first.arrival <= deadline:
            req = self._do_recv_post(proc, sc)
        else:  # nothing queued arrives in time: post an empty receive
            req = Request(sc.mailbox, sc.source, sc.tag, proc.clock)
            sc.mailbox._pending.append(req)
        event = sc.event
        if req.done:  # a match is queued: take it
            self._charge_receive(proc, req.completion_time)
            proc.sendval = req
            self._push(proc)
        elif event is not None and event.done:  # cancelled at once
            self._cancel(req)
            proc.clock = max(proc.clock, event.set_time)
            self._push(proc)
        else:
            req._waiter = proc
            self._blocked[proc] = (req, event, deadline)
            self._block(proc, sc.timeout)

    def _deliver(self, mailbox, msg):
        for req in mailbox._pending:
            if req._matches(msg.source, msg.tag):
                if msg.arrival > self._blocked[req._waiter][2]:
                    continue  # its receive times out before the message lands
                mailbox._pending.remove(req)
                req._complete(msg)
                self._wake_receiver(req._waiter, req)
                return
        mailbox._put(msg)

    def _wake_receiver(self, proc, req):  # the match came first
        del self._blocked[proc]
        proc.timeout_token = None
        self._resume_received(proc, req)

    def _fire_timeout(self, proc, deadline):  # the deadline came first
        req, _, _ = self._blocked.pop(proc)
        self._give_up(proc, req, deadline)

    def _do_set_event(self, proc, sc):  # the event came first
        ev = sc.event
        if not ev.done:
            ev.done, ev.set_time = True, proc.clock
            for waiter, (req, event, _) in list(self._blocked.items()):
                if event is ev:
                    del self._blocked[waiter]
                    self._give_up(waiter, req, ev.set_time)
        self._push(proc)

    def _give_up(self, proc, req, at):
        self._cancel(req)
        proc.sendval = None
        self._unblock(proc, at)

    @staticmethod
    def _cancel(req):
        req._mailbox._pending.remove(req)
        req._waiter = None


def _random_schedule(seed: int, sim_cls):
    """Senders, receivers sharing two mailboxes, and an event setter, all
    timed by one seeded draw, on ``sim_cls``."""
    rng = random.Random(seed)
    sim = sim_cls()
    boxes = [sim.new_mailbox(f"mb{i}") for i in range(2)]
    ev = Event()
    n_recv = rng.randint(1, 4)
    plans = []
    for _ in range(n_recv):
        steps = []
        for _ in range(rng.randint(3, 12)):
            with_event = rng.random() < 0.6
            # a receive without the event needs a deadline once senders stop
            timeout = rng.expovariate(1e5) if not with_event or rng.random() < 0.3 else None
            steps.append((
                rng.expovariate(2e5),  # think time
                rng.randrange(2),  # mailbox
                rng.choice([ANY_TAG, 0, 1, frozenset({0, 1})]),
                with_event,
                timeout,
            ))
        plans.append(steps)

    def receiver(ctx, steps):
        got = []
        for think, mb, tag, with_event, timeout in steps:
            yield from ctx.compute(think)
            req = yield from ctx.recv(
                boxes[mb], tag=tag, event=ev if with_event else None, timeout=timeout
            )
            got.append(None if req is None else (req.payload, req.source, req.tag, req.arrival))
        return got

    def sender(ctx, sends):
        for gap, mb, tag, nbytes, same_node in sends:
            yield from ctx.compute(gap)
            yield from ctx.send_to_mailbox(
                boxes[mb], (ctx.pid, gap), source=ctx.pid, tag=tag, nbytes=nbytes,
                same_node=same_node,
            )

    def setter(ctx, at):
        yield from ctx.compute(at)
        yield from ctx.set_event(ev)

    for steps in plans:
        sim.add_proc(receiver, steps, node=0)
    for s in range(rng.randint(1, 3)):
        sends = [
            (rng.expovariate(1e5), rng.randrange(2), rng.randrange(2),
             rng.choice([8, 4096, 1 << 16]), rng.random() < 0.5)
            for _ in range(rng.randint(2, 15))
        ]
        sim.add_proc(sender, sends, node=1 + s)
    sim.add_proc(setter, rng.expovariate(2e4), node=0)
    out = sim.run()
    stats = {pid: (s.comm_wait, s.recv_time) for pid, s in out.stats.items()}
    return out.clocks, out.results, stats, [len(b) for b in boxes], out.n_events


@pytest.mark.parametrize("seed", range(60))
def test_recv_equals_post_wait_any_cancel(seed):
    clocks, results, stats, queued, n_events = _random_schedule(seed, Simulation)
    ref_clocks, ref_results, ref_stats, ref_queued, ref_events = _random_schedule(
        seed, ReferenceSimulation
    )
    assert results == ref_results
    assert clocks == ref_clocks
    assert stats == ref_stats
    assert queued == ref_queued
    assert n_events == ref_events  # one event per receive, whatever came first


def run_single_sim(sim, program, *args):
    pid = sim.add_proc(program, *args)
    return sim.run(), pid


class TestDeadlock:
    def test_unmatched_recv_raises_deadlock(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.wait(req)

        sim.add_proc(p, name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_deadlock_lists_blocked_count(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.wait(req)

        sim.add_proc(p)
        sim.add_proc(p)
        with pytest.raises(DeadlockError, match="2 proc"):
            sim.run()


class TestStopFlagReceives:
    @staticmethod
    def _guarded(sim):
        flag = Event()

        def server(ctx):
            yield from ctx.compute(1.0)
            req = yield from ctx.recv(ctx.mailbox, event=flag)
            return req  # never reached

        def coordinator(ctx):
            yield from ctx.compute(3.0)
            return "done"

        pid = sim.add_proc(server, name="server")
        sim.add_proc(coordinator)
        return pid

    def test_a_flag_guarded_receive_ends_with_a_lossy_run(self):
        """Under a fault model that drops messages, a receive guarded by
        a stop flag that nothing is left to set or to match ends with
        the run, at the proc's own clock; its message box keeps no
        posted receive."""
        sim = Simulation(faults=FaultInjector(FaultSpec(links=(LinkFault(drop_prob=0.5),))))
        pid = self._guarded(sim)
        out = sim.run()
        assert out.clocks[pid] == 1.0 and out.results[pid] is None
        assert not sim.mailbox_of(pid)._pending

    def test_a_flag_guarded_receive_deadlocks_on_a_perfect_fabric(self):
        """With no fault model nothing was lost, so a server left waiting
        for work or its stop flag is a bug the run must report."""
        sim = Simulation()
        self._guarded(sim)
        with pytest.raises(DeadlockError, match="server"):
            sim.run()

    def test_a_plain_receive_still_deadlocks_on_a_lossy_fabric(self):
        sim = Simulation(faults=FaultInjector(FaultSpec(links=(LinkFault(drop_prob=0.5),))))

        def server(ctx):
            yield from ctx.recv(ctx.mailbox)

        sim.add_proc(server, name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_a_collective_after_a_timed_receive_deadlocks_on_a_lossy_fabric(self):
        """A proc left in a collective holds no receive, whatever receives
        it made before: on a lossy fabric too, that is a deadlock."""
        from repro.simmpi import Comm

        sim = Simulation(faults=FaultInjector(FaultSpec(links=(LinkFault(drop_prob=0.5),))))
        holder = {}

        def member(ctx):
            yield from ctx.recv(ctx.mailbox, timeout=1.0)
            yield from holder["comm"].barrier(ctx)

        def absent(ctx):
            yield from ctx.compute(1.0)

        holder["comm"] = Comm(sim, [sim.add_proc(member, name="stuck"), sim.add_proc(absent)])
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()


class TestProcError:
    def test_proc_exception_carries_typed_context(self):
        def p(ctx):
            yield from ctx.compute(2.5)
            raise ValueError("boom")

        sim = Simulation()
        sim.add_proc(p, node=3, name="exploder")
        with pytest.raises(ProcError) as exc_info:
            sim.run()
        err = exc_info.value
        assert err.proc_name == "exploder"
        assert err.pid == 0
        assert err.node == 3
        assert err.virtual_time == pytest.approx(2.5)
        assert "ValueError" in str(err) and "boom" in str(err)

    def test_proc_error_is_a_sim_error(self):
        assert issubclass(ProcError, SimError)

    def test_original_exception_chained(self):
        def p(ctx):
            yield from ctx.compute(0.1)
            raise KeyError("missing")

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(ProcError) as exc_info:
            sim.run()
        assert isinstance(exc_info.value.__cause__, KeyError)


class TestPayloadNbytes:
    def test_numpy_array_true_size(self):
        x = np.zeros(100, dtype=np.float32)
        assert payload_nbytes(x) >= 400

    def test_containers_recurse(self):
        assert payload_nbytes([np.zeros(10), np.zeros(10)]) > 2 * 40

    def test_none_small(self):
        assert payload_nbytes(None) == 8

    def test_sizes_equal_the_isinstance_ladder(self):
        """The exact-type fast path changes no size: every payload kind,
        subclasses included, against the ladder it short-cuts."""

        def ladder(obj):
            if obj is None:
                return 8
            if isinstance(obj, np.ndarray):
                return int(obj.nbytes) + 96
            if isinstance(obj, (bytes, bytearray)):
                return len(obj) + 32
            if isinstance(obj, (tuple, list)):
                return 16 + sum(ladder(x) for x in obj)
            if isinstance(obj, dict):
                return 32 + sum(ladder(k) + ladder(v) for k, v in obj.items())
            if isinstance(obj, str):
                return len(obj) + 40
            return 32

        class Sub(np.ndarray):
            pass

        class IntTuple(tuple):
            pass

        arr = np.arange(12, dtype=np.float32)
        corpus = [
            None, 0, -7, 2**70, 1.5, float("nan"), True, False, np.float64(2.0),
            np.int64(3), np.float32(1.0), arr, arr.view(Sub), arr[::2], np.empty((0, 3)),
            (), (1, 2.0), (1, (2, (3, None)), arr), IntTuple((1, 2)), [1, [2.0, arr]],
            {"a": 1, 2: (3, arr)}, "", "hello", b"xyz", bytearray(5), object(), 1j,
            [(np.int64(1), True)] * 3,
        ]
        for obj in corpus:
            assert payload_nbytes(obj) == ladder(obj), obj


# --------------------------------------------------------------------------
# the one-event forms of a thread's start and stop, against the syscalls
# they stand for, on random schedules: same clocks, stats, matches, faults
# and spans, fewer events
# --------------------------------------------------------------------------


def _lifecycle_world(seed: int, merged: bool):
    """Receivers that think before every receive and end with an exit
    notice to a collector, plus senders, an event setter, and on odd seeds
    a lossy, slow and crashing fabric.  ``merged`` uses ``recv(compute=)``
    and ``exit``; otherwise ``compute`` + ``recv`` and ``compute`` + a
    spanned send + return."""
    rng = random.Random(seed)
    faults = None
    if seed % 2:
        faults = FaultInjector(FaultSpec(
            links=(LinkFault(dup_prob=0.2, drop_prob=0.1, delay_prob=0.3, delay_seconds=2e-5),),
            slow_nodes=(SlowNode(node=1, factor=1.5),),
            crashes=(RankCrash(node=2, at=rng.expovariate(1e5)),),
            seed=seed,
        ))
    recorder = TraceRecorder()
    sim = Simulation(faults=faults, recorder=recorder)
    boxes = [sim.new_mailbox(f"mb{i}", node=i) for i in range(3)]
    collect_box = sim.new_mailbox("collect", node=4)
    ev = Event()

    def receiver(ctx, node, steps, unlock):
        got = []
        for think, tag, with_event, timeout in steps:
            if merged:
                req = yield from ctx.recv(
                    boxes[node], tag=tag, event=ev if with_event else None, timeout=timeout,
                    compute=None if think is None else (think, "think"),
                )
            else:
                if think is not None:
                    yield from ctx.compute(think, kind="think")
                req = yield from ctx.recv(
                    boxes[node], tag=tag, event=ev if with_event else None, timeout=timeout
                )
            got.append(None if req is None else (req.payload, req.source, req.arrival))
        notice = ctx.send_op(collect_box, ("bye", ctx.pid), tag=7, nbytes=24)
        if merged:
            yield from ctx.exit(
                notice, compute=None if unlock is None else (unlock, "rma_sync"), span="drain"
            )
        else:
            if unlock is not None:
                yield from ctx.compute(unlock, kind="rma_sync")
            with ctx.span("drain"):
                yield notice
        return got

    def sender(ctx, sends):
        for gap, node, tag, nbytes in sends:
            yield from ctx.compute(gap)
            yield from ctx.send_to_mailbox(
                boxes[node], (ctx.pid, gap), source=ctx.pid, tag=tag, nbytes=nbytes,
                same_node=False,
            )

    def setter(ctx, at):
        yield from ctx.compute(at)
        yield from ctx.set_event(ev)

    def collector(ctx, tag, timeout):
        got = []
        while True:
            req = yield from ctx.recv(collect_box, tag=tag, timeout=timeout)
            if req is None:
                return got
            got.append((req.payload, repr(req.arrival), repr(ctx.now)))

    for _ in range(rng.randint(2, 6)):
        node = rng.randrange(3)
        steps = []
        for _ in range(rng.randint(1, 5)):
            with_event = rng.random() < 0.6
            steps.append((
                # None: no compute at all; 0.0: a zero-second compute
                rng.choice([None, 0.0, rng.expovariate(2e5), rng.expovariate(2e5)]),
                rng.choice([ANY_TAG, 0, 1, frozenset({0, 1})]),
                with_event,
                rng.expovariate(1e5) if not with_event or rng.random() < 0.3 else None,
            ))
        unlock = rng.choice([None, 0.0, 1e-6, rng.expovariate(5e5)])
        sim.add_proc(receiver, node, steps, unlock, node=node, mailbox=boxes[node])
    for s in range(rng.randint(1, 3)):
        sends = [
            (rng.expovariate(1e5), rng.randrange(3), rng.randrange(2), rng.choice([8, 4096]))
            for _ in range(rng.randint(2, 10))
        ]
        sim.add_proc(sender, sends, node=5 + s)
    sim.add_proc(setter, rng.expovariate(5e4), node=0)
    # two collectors share the notice box: which receive gets which notice
    # depends on when each notice is delivered
    sim.add_proc(collector, 7, 4e-5, node=4, mailbox=collect_box)
    sim.add_proc(collector, ANY_TAG, 3e-5, node=4, mailbox=collect_box)
    out = sim.run()
    stats = {pid: dataclasses.asdict(s) for pid, s in out.stats.items()}
    spans = [(s.pid, s.name, s.start, s.end, s.parent) for s in recorder.spans]
    return (
        out.clocks, out.results, stats, out.crashed_pids, out.fault_events, spans,
        [len(b) for b in boxes + [collect_box]],
    ), out.n_events


@pytest.mark.parametrize("seed", range(80))
def test_start_and_exit_steps_equal_the_syscalls_they_merge(seed):
    merged, n_merged = _lifecycle_world(seed, merged=True)
    split, n_split = _lifecycle_world(seed, merged=False)
    assert merged == split
    assert n_merged < n_split


def _gather_world(seed: int, merged: bool):
    """Senders on several nodes send equal-size notices to one collector,
    which takes all of them with ``recv_n`` or with one ``recv`` each."""
    rng = random.Random(seed)
    sim = Simulation()
    n_senders = rng.randint(1, 6)
    per_sender = [rng.randint(0, 4) for _ in range(n_senders)]
    n = sum(per_sender)

    def collector(ctx):
        yield from ctx.compute(rng_start)
        if merged:
            payloads = yield from ctx.recv_n(ctx.mailbox, n, tag=3)
        else:
            payloads = []
            for _ in range(n):
                req = yield from ctx.recv(ctx.mailbox, tag=3)
                payloads.append(req.payload)
        return payloads, ctx.now

    def sender(ctx, gaps):
        for gap in gaps:
            yield from ctx.compute(gap)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), (ctx.pid, gap), source=ctx.pid, tag=3, nbytes=24,
                same_node=False,
            )
            # other traffic on the collector's mailbox, which it never takes
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), "noise", source=ctx.pid, tag=4, nbytes=8, same_node=False
            )

    rng_start = rng.expovariate(1e5)
    sim.add_proc(collector, node=0)
    for s, count in enumerate(per_sender):
        # constant gaps repeat clocks exactly, as constant modeled costs do
        gaps = [rng.choice([1e-6, 2e-6, rng.expovariate(2e5)]) for _ in range(count)]
        sim.add_proc(sender, gaps, node=1 + s)
    out = sim.run()
    stats = {pid: (s.comm_wait, s.recv_time) for pid, s in out.stats.items()}
    return (out.clocks, out.results, stats, len(sim.mailbox_of(0))), out.n_events, n


@pytest.mark.parametrize("seed", range(60))
def test_recv_n_equals_n_receives_of_in_order_notices(seed):
    merged, n_merged, n = _gather_world(seed, merged=True)
    split, n_split, _ = _gather_world(seed, merged=False)
    assert merged == split
    assert n_merged == n_split - n + 1  # one event for all n


NETWORK = Simulation().network


class TestThreadLifecycleBudget:
    """A worker thread that gets no task costs two engine events — its
    start and its exit — and the master takes every exit notice in one."""

    @staticmethod
    def _idle_pool(n_nodes: int, threads: int, one_sided: bool):
        from repro.core.coordinator.drain import await_thread_exits, broadcast_end
        from repro.core.worker import NodeWiring, worker_thread_program
        from repro.simmpi.rma import Window

        sim = Simulation()
        boxes = [sim.new_mailbox(f"node{n}", node=n) for n in range(n_nodes)]

        def master(ctx):
            yield from broadcast_end(ctx, boxes)
            payloads = yield from ctx.recv_n(ctx.mailbox, 0)  # a no-op gather
            yield from await_thread_exits(ctx, n_nodes * threads)
            return payloads

        pid = sim.add_proc(master, node=n_nodes, name="master")
        window = Window(pid, n_nodes, {}, lambda old, new: new) if one_sided else None
        for n in range(n_nodes):
            wiring = NodeWiring(boxes[n])
            wiring.done, wiring.master_mailbox, wiring.window = Event(), sim.mailbox_of(pid), window
            for _ in range(threads):
                sim.add_proc(worker_thread_program, wiring, node=n)
        return sim.run()

    @pytest.mark.parametrize("one_sided", [True, False])
    @pytest.mark.parametrize("n_nodes, threads", [(1, 1), (3, 2), (3, 7), (5, 4)])
    def test_two_events_per_idle_thread(self, one_sided, n_nodes, threads):
        out = self._idle_pool(n_nodes, threads, one_sided)
        n_threads = n_nodes * threads
        # per thread: start, exit; per node: the END taker also sets the
        # flag; master: one send per node, the empty gather, the exit
        # gather, its return
        assert out.n_events == 2 * n_threads + n_nodes + (n_nodes + 3)
        assert out.results[0] == []
        assert all(out.results[p] == 0 for p in range(1, n_threads + 1))
        if one_sided:
            # the lock epoch and the unlock are still charged, once each
            for p in range(1, n_threads + 1):
                assert out.stats[p].compute == {"rma_sync": 2 * NETWORK.rma_latency}


class TestSession:
    """``Simulation(keep_procs=True)``: procs that exit park, ``reset``
    re-arms the run, ``respawn`` refills procs that returned, ``close``
    lets the parked programs return."""

    @staticmethod
    def _exiting(ctx, log):
        runs = 0
        while True:
            runs += 1
            yield from ctx.compute(1.0 * runs)
            again = yield from ctx.exit(
                ctx.send_op(ctx.mailbox, runs, tag=0, nbytes=8, same_node=True), result=runs
            )
            if not again:
                log.append(("returned", runs))
                return runs

    @staticmethod
    def _once(ctx, value):
        yield from ctx.compute(0.5)
        return value

    def test_parked_procs_resume_and_returned_ones_are_refilled(self):
        log = []
        sim = Simulation(keep_procs=True)
        once = sim.add_proc(self._once, "a")
        parked = sim.add_proc(self._exiting, log)
        first = sim.run()
        assert first.results == {once: "a", parked: 1}
        assert first.clocks[parked] == 1.0 + NETWORK.send_overhead()
        assert sim.reset() == [once]
        with pytest.raises(SimError, match="respawn"):
            sim.run()
        sim.respawn(once, self._once, "b")
        second = sim.run()
        # clocks restart at 0, stats are the run's own, the program went on
        assert second.results == {once: "b", parked: 2}
        assert second.clocks[parked] == 2.0 + NETWORK.send_overhead()
        assert second.stats[parked].compute == {"compute": 2.0}
        assert second.stats[parked].msgs_sent == 1
        assert first.stats[parked].msgs_sent == 1
        assert log == []
        sim.close()
        assert log == [("returned", 2)]

    def test_reset_is_for_finished_runs_of_a_session(self):
        plain = Simulation()
        plain.add_proc(self._once, 1)
        plain.run()
        with pytest.raises(SimError, match="keep_procs"):
            plain.reset()
        session = Simulation(keep_procs=True)
        session.add_proc(self._once, 1)
        with pytest.raises(SimError, match="finished"):
            session.reset()
        session.run()
        with pytest.raises(SimError, match="once per reset"):
            session.run()
        session.reset()
        session.respawn(0, self._once, 1)
        with pytest.raises(SimError, match="still has a program"):
            session.respawn(0, self._once, 1)

    def test_close_between_reset_and_run_ends_parked_programs(self):
        log = []
        sim = Simulation(keep_procs=True)
        sim.add_proc(self._exiting, log)
        sim.run()
        assert sim.reset() == []
        sim.close()  # e.g. the next call failed before its run started
        assert log == [("returned", 1)]

    def test_exit_in_a_plain_simulation_returns_at_once(self):
        log = []
        sim = Simulation()
        pid = sim.add_proc(self._exiting, log)
        out = sim.run()
        assert out.results[pid] == 1 and log == [("returned", 1)]
        # the compute, the exit (send and return): two events
        assert out.n_events == 2

    def test_a_program_must_return_after_its_exit(self):
        def stays(ctx):
            yield from ctx.exit(ctx.send_op(ctx.mailbox, 1, tag=0, nbytes=8, same_node=True))
            yield from ctx.compute(1.0)

        sim = Simulation()
        sim.add_proc(stays)
        with pytest.raises(SimError, match="must return"):
            sim.run()

    def test_sim_procs_counter(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        sim = Simulation(metrics=metrics, keep_procs=True)
        for v in range(3):
            sim.add_proc(self._once, v)
        sim.run()
        assert metrics.counter("sim.procs").value == 3
