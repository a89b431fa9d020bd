"""Unit tests for the communicator: p2p wrappers and collectives."""

import numpy as np
import pytest

from repro.simmpi import Comm, DeadlockError, Simulation
from repro.simmpi.engine import ANY_SOURCE
from repro.simmpi.errors import SimConfigError, SimError


def spmd(n, program, nodes=None):
    """Run `program(ctx, comm)` on n ranks; returns SimulationResult."""
    sim = Simulation()
    holder = {}

    def wrapper(ctx):
        return (yield from program(ctx, holder["comm"]))

    pids = [
        sim.add_proc(wrapper, node=(nodes[r] if nodes else 0), name=f"r{r}")
        for r in range(n)
    ]
    holder["comm"] = Comm(sim, pids)
    return sim.run()


class TestConstruction:
    def test_empty_comm_rejected(self):
        sim = Simulation()
        with pytest.raises(SimConfigError, match="at least one"):
            Comm(sim, [])

    def test_duplicate_pids_rejected(self):
        sim = Simulation()

        def noop(ctx):
            yield from ctx.compute(0)

        sim.add_proc(noop)
        with pytest.raises(SimConfigError, match="duplicate"):
            Comm(sim, [0, 0])

    def test_non_member_rank_raises(self):
        sim = Simulation()

        def outsider(ctx):
            comm.rank(ctx)
            yield from ctx.compute(0)

        def member(ctx):
            yield from ctx.compute(0)

        m = sim.add_proc(member)
        o = sim.add_proc(outsider)
        comm = Comm(sim, [m])
        with pytest.raises(SimError, match="not in comm"):
            sim.run()


class TestPointToPoint:
    def test_ring_exchange(self):
        def p(ctx, comm):
            r = comm.rank(ctx)
            yield from comm.send(ctx, (r + 1) % comm.size, r * 100, tag=1)
            payload, src, tag = yield from comm.recv(ctx, source=ANY_SOURCE, tag=1)
            return payload, src, tag

        out = spmd(4, p)
        for r in range(4):
            payload, src, tag = out.results[r]
            assert payload == ((r - 1) % 4) * 100
            assert src == (r - 1) % 4
            assert tag == 1

    def test_tags_namespaced_per_comm(self):
        """Two comms over the same procs must not cross-match messages."""
        sim = Simulation()
        holder = {}

        def p(ctx):
            c1, c2 = holder["c1"], holder["c2"]
            r = c1.rank(ctx)
            if r == 0:
                yield from c1.send(ctx, 1, "from-c1", tag=7)
                yield from c2.send(ctx, 1, "from-c2", tag=7)
            else:
                # receive on c2 first: must get the c2 message even though
                # the c1 message arrived earlier with the same user tag
                p2, _, _ = yield from c2.recv(ctx, tag=7)
                p1, _, _ = yield from c1.recv(ctx, tag=7)
                return p1, p2

        pids = [sim.add_proc(p, name=f"r{i}") for i in range(2)]
        holder["c1"] = Comm(sim, pids, "c1")
        holder["c2"] = Comm(sim, pids, "c2")
        out = sim.run()
        assert out.results[1] == ("from-c1", "from-c2")


class TestCollectives:
    def test_bcast_from_nonzero_root(self):
        def p(ctx, comm):
            data = "secret" if comm.rank(ctx) == 2 else None
            return (yield from comm.bcast(ctx, data, root=2))

        out = spmd(4, p)
        assert all(out.results[r] == "secret" for r in range(4))

    def test_gather_rank_order(self):
        def p(ctx, comm):
            return (yield from comm.gather(ctx, comm.rank(ctx) ** 2, root=1))

        out = spmd(4, p)
        assert out.results[1] == [0, 1, 4, 9]
        assert out.results[0] is None

    def test_allgather(self):
        def p(ctx, comm):
            return (yield from comm.allgather(ctx, comm.rank(ctx)))

        out = spmd(3, p)
        assert all(out.results[r] == [0, 1, 2] for r in range(3))

    def test_reduce_with_numpy(self):
        def p(ctx, comm):
            v = np.full(4, comm.rank(ctx), dtype=np.float64)
            return (
                yield from comm.reduce(ctx, v, op=lambda vs: np.sum(vs, axis=0), root=0)
            )

        out = spmd(3, p)
        assert np.array_equal(out.results[0], np.full(4, 3.0))

    def test_allreduce_sum(self):
        def p(ctx, comm):
            return (yield from comm.allreduce(ctx, comm.rank(ctx) + 1, op=sum))

        out = spmd(5, p)
        assert all(out.results[r] == 15 for r in range(5))

    def test_barrier_synchronizes_clocks(self):
        def p(ctx, comm):
            yield from ctx.compute(float(comm.rank(ctx)))
            yield from comm.barrier(ctx)
            return ctx.now

        out = spmd(4, p)
        times = [out.results[r] for r in range(4)]
        assert max(times) - min(times) < 1e-9
        assert min(times) >= 3.0  # slowest rank computed 3.0s

    def test_alltoallv_full_exchange(self):
        def p(ctx, comm):
            r = comm.rank(ctx)
            out = {d: (r, d) for d in range(comm.size) if d != r}
            inbox = yield from comm.alltoallv(ctx, out)
            return inbox

        out = spmd(3, p)
        for r in range(3):
            inbox = out.results[r]
            assert set(inbox) == {s for s in range(3) if s != r}
            for s, payload in inbox.items():
                assert payload == (s, r)

    def test_alltoallv_bad_dest_raises(self):
        def p(ctx, comm):
            yield from comm.alltoallv(ctx, {99: "x"})

        with pytest.raises(SimError, match="out of range"):
            spmd(2, p)

    def test_mismatched_collectives_deadlock(self):
        def p(ctx, comm):
            if comm.rank(ctx) == 0:
                yield from comm.barrier(ctx)
            else:
                yield from comm.bcast(ctx, 1, root=0)

        with pytest.raises(DeadlockError):
            spmd(2, p)


class TestSplit:
    def test_split_halves(self):
        def p(ctx, comm):
            r = comm.rank(ctx)
            sub = yield from comm.split(ctx, color=r // 2, key=r)
            total = yield from sub.allreduce(ctx, r, op=sum)
            return sub.size, total

        out = spmd(4, p)
        assert out.results[0] == (2, 1)   # ranks 0,1
        assert out.results[3] == (2, 5)   # ranks 2,3

    def test_split_key_orders_ranks(self):
        def p(ctx, comm):
            r = comm.rank(ctx)
            # reverse order via key
            sub = yield from comm.split(ctx, color=0, key=-r)
            return sub.rank(ctx)

        out = spmd(3, p)
        assert out.results[0] == 2 and out.results[2] == 0

    def test_recursive_split_to_singletons(self):
        def p(ctx, comm):
            c = comm
            while c.size > 1:
                half = (c.size + 1) // 2
                c = yield from c.split(ctx, color=int(c.rank(ctx) >= half), key=c.rank(ctx))
            return c.size

        out = spmd(8, p)
        assert all(out.results[r] == 1 for r in range(8))
