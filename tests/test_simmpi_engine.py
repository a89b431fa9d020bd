"""Unit tests for the discrete-event engine: clocks, matching, blocking."""

import random

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSpec, RankCrash
from repro.simmpi import DeadlockError, ProcError, SimError, Simulation
from repro.simmpi.engine import ANY_SOURCE, ANY_TAG, Event, payload_nbytes


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

    @pytest.mark.parametrize("how", ["wait_any", "recv"])
    @pytest.mark.parametrize("timeout", [float("nan"), -1.0])
    def test_bad_timeout_rejected(self, how, timeout):
        def p(ctx):
            if how == "wait_any":
                req = yield from ctx.post_recv(ctx.mailbox)
                yield from ctx.wait_any([req], timeout=timeout)
            else:
                yield from ctx.recv(ctx.mailbox, timeout=timeout)

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

    def test_cancel_removes_pending(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.cancel(req)
            return req.cancelled

        out, pid = run_single(p)
        assert out.results[pid] is True

    def test_wait_on_cancelled_request_raises(self):
        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.cancel(req)
            yield from ctx.wait(req)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(SimError, match="cancelled"):
            sim.run()

    def test_cancelled_recv_does_not_consume_message(self):
        """A message sent after cancel must land in the queue, not the
        withdrawn request — a later receive picks it up."""
        sim = Simulation()

        def p(ctx):
            first = yield from ctx.post_recv(ctx.mailbox, tag=7)
            yield from ctx.cancel(first)
            yield from ctx.compute(1.0)  # let the message arrive meanwhile
            second = yield from ctx.post_recv(ctx.mailbox, tag=7)
            payload = yield from ctx.wait(second)
            return first.payload, payload

        def sender(ctx):
            yield from ctx.compute(0.5)  # send strictly after the cancel
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), "kept", source=1, tag=7, nbytes=8, same_node=True
            )

        pid = sim.add_proc(p)
        sim.add_proc(sender)
        out = sim.run()
        assert out.results[pid] == (None, "kept")


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
    def test_wait_any_event_vs_message(self):
        sim = Simulation()
        ev = Event()

        def setter(ctx):
            yield from ctx.compute(2.0)
            yield from ctx.set_event(ev)

        def waiter(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            idx, payload = yield from ctx.wait_any([req, ev])
            yield from ctx.cancel(req)
            return idx, ctx.now

        sim.add_proc(setter)
        sim.add_proc(waiter)
        idx, t = sim.run().results[1]
        assert idx == 1 and t == pytest.approx(2.0)

    def test_event_already_set_returns_immediately(self):
        sim = Simulation()
        ev = Event()

        def setter_then_waiter(ctx):
            yield from ctx.set_event(ev)
            idx, _ = yield from ctx.wait_any([ev])
            return idx

        out, pid = run_single_sim(sim, setter_then_waiter)
        assert out.results[pid] == 0

    def test_multiple_waiters_all_wake(self):
        sim = Simulation()
        ev = Event()

        def setter(ctx):
            yield from ctx.compute(1.0)
            yield from ctx.set_event(ev)

        def waiter(ctx):
            yield from ctx.wait_any([ev])
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
        # a received message beats an already set event, as in wait_any
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


# --------------------------------------------------------------------------
# recv against the three-syscall form it replaces, on random schedules
# --------------------------------------------------------------------------


def _receive_three_calls(ctx, mailbox, tag, event, timeout):
    req = yield from ctx.post_recv(mailbox, tag=tag)
    waitables = [req] if event is None else [req, event]
    fired, _ = yield from ctx.wait_any(waitables, timeout=timeout)
    if fired != 0:  # the event or the deadline won
        yield from ctx.cancel(req)
        return None
    return req


def _receive_one_call(ctx, mailbox, tag, event, timeout):
    return (yield from ctx.recv(mailbox, tag=tag, event=event, timeout=timeout))


def _random_schedule(seed: int, receive):
    """Senders, receivers sharing two mailboxes, and an event setter, all
    timed by one seeded draw; ``receive`` is the receive under test."""
    rng = random.Random(seed)
    sim = Simulation()
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
                rng.choice([ANY_TAG, 0, 1]),
                with_event,
                timeout,
            ))
        plans.append(steps)

    def receiver(ctx, steps):
        got = []
        for think, mb, tag, with_event, timeout in steps:
            yield from ctx.compute(think)
            req = yield from receive(ctx, boxes[mb], tag, ev if with_event else None, timeout)
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
    clocks, results, stats, queued, n_events = _random_schedule(seed, _receive_one_call)
    ref_clocks, ref_results, ref_stats, ref_queued, ref_events = _random_schedule(
        seed, _receive_three_calls
    )
    assert results == ref_results
    assert clocks == ref_clocks
    assert stats == ref_stats
    assert queued == ref_queued
    assert n_events < ref_events


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
