"""MPI-style communicator over the simulated engine.

Mirrors the subset of the MPI API the paper's algorithms use:
``isend/irecv/wait`` point-to-point (Algs 3-4), ``bcast`` (vantage
point broadcast), ``allreduce``/``gather`` (distributed statistics),
``alltoallv`` (the partition shuffle of Alg 2), ``barrier``, and ``split``
(halving the process group at each VP-tree level).

All methods are generator functions: proc code calls them with
``yield from``, passing its :class:`~repro.simmpi.engine.Context` first.
Tags are namespaced per-communicator so concurrent communicators sharing
mailboxes never cross-match.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

from repro.simmpi.engine import (
    ANY_SOURCE,
    ANY_TAG,
    Context,
    Mailbox,
    Request,
    Simulation,
    payload_nbytes,
)
from repro.simmpi.errors import SimConfigError, SimError

__all__ = ["Comm"]

_comm_ids = itertools.count(1)


class Comm:
    """A group of procs with ranks 0..size-1 and collective operations."""

    def __init__(self, sim: Simulation, pids: Sequence[int], name: str = "comm"):
        if len(pids) == 0:
            raise SimConfigError("a communicator needs at least one member")
        if len(set(pids)) != len(pids):
            raise SimConfigError("duplicate pids in communicator")
        self._sim = sim
        #: the one tuple every collective hands the engine (matched by identity)
        self._pids = tuple(pids)
        self._rank_of = {pid: r for r, pid in enumerate(self._pids)}
        self._coll_seq: dict[int, int] = {pid: 0 for pid in self._pids}
        self._id = next(_comm_ids)
        self.name = name

    # -- identity ------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._pids)

    def rank(self, ctx: Context) -> int:
        """The calling proc's rank in this communicator."""
        try:
            return self._rank_of[ctx.pid]
        except KeyError:
            raise SimError(f"proc {ctx.name} (pid={ctx.pid}) is not in comm {self.name}") from None

    def pid_of_rank(self, rank: int) -> int:
        return self._pids[rank]

    def mailbox_of_rank(self, rank: int) -> Mailbox:
        return self._sim.mailbox_of(self._pids[rank])

    def _same_node(self, ctx: Context, dest_rank: int) -> bool:
        return ctx.node == self._sim.node_of(self._pids[dest_rank])

    def _tag(self, user_tag) -> tuple:
        return (self._id, user_tag)

    # -- point-to-point --------------------------------------------------------

    def send(self, ctx: Context, dest: int, payload: Any, tag=0, nbytes: int | None = None):
        """Eager (buffered) send — the simulated equivalent of MPI_Isend
        whose buffer can be reused immediately.  Charges sender overhead."""
        yield from ctx.send_to_mailbox(
            self.mailbox_of_rank(dest),
            payload,
            source=self.rank(ctx),
            tag=self._tag(tag),
            nbytes=nbytes,
            same_node=self._same_node(ctx, dest),
        )

    # The engine's sends are always non-blocking eager sends, so isend is
    # literally send; both names exist so algorithm code reads like the paper.
    isend = send

    def irecv(self, ctx: Context, source: int = ANY_SOURCE, tag=ANY_TAG):
        """Post a non-blocking receive; returns a Request."""
        req = yield from ctx.post_recv(
            self._sim.mailbox_of(ctx.pid), source=source, tag=self._tag(tag)
        )
        return req

    def recv(self, ctx: Context, source: int = ANY_SOURCE, tag=ANY_TAG):
        """Blocking receive; returns ``(payload, source_rank, user_tag)``."""
        req = yield from ctx.recv(self._sim.mailbox_of(ctx.pid), source=source, tag=self._tag(tag))
        return req.payload, req.source, req.tag[1]

    def wait(self, ctx: Context, req: Request):
        payload = yield from ctx.wait(req)
        return payload

    # -- collectives -------------------------------------------------------------

    def _collective(self, ctx: Context, op: str, data: Any, complete: Callable):
        # Per-proc call counter on this comm: members entering collectives in
        # the same program order produce identical keys.  The op name is part
        # of the key so mismatched call sequences surface as a DeadlockError
        # instead of silently pairing a bcast with a barrier.
        seq = self._coll_seq[ctx.pid]
        self._coll_seq[ctx.pid] = seq + 1
        return ctx.collective((self._id, seq, op), self._pids, data, complete)

    def barrier(self, ctx: Context):
        net, pids = self._sim.network, self._pids

        def complete(arrived: dict) -> dict:
            finish = max(c for c, _ in arrived.values()) + net.barrier_time(len(pids))
            return {pid: (finish, None) for pid in arrived}

        yield from self._collective(ctx, "barrier", None, complete)

    def bcast(self, ctx: Context, data: Any, root: int = 0):
        """Broadcast ``data`` from ``root``; every rank returns the value."""
        net, pids = self._sim.network, self._pids
        root_pid = pids[root]

        def complete(arrived: dict) -> dict:
            payload = arrived[root_pid][1]
            finish = max(c for c, _ in arrived.values()) + net.bcast_time(
                len(pids), payload_nbytes(payload)
            )
            return {pid: (finish, payload) for pid in arrived}

        return (yield from self._collective(ctx, "bcast", data, complete))

    def gather(self, ctx: Context, data: Any, root: int = 0):
        """Gather; root returns the rank-ordered list, others return None."""
        net, pids = self._sim.network, self._pids
        root_pid = pids[root]

        def complete(arrived: dict) -> dict:
            values = [arrived[pid][1] for pid in pids]
            per_rank = max(payload_nbytes(v) for v in values)
            tmax = max(c for c, _ in arrived.values())
            out = dict.fromkeys(arrived, (tmax + net.sw_overhead, None))
            out[root_pid] = (tmax + net.gather_time(len(pids), per_rank), values)
            return out

        return (yield from self._collective(ctx, "gather", data, complete))

    def allgather(self, ctx: Context, data: Any, then: Callable[[list], Any] | None = None):
        """Every rank returns the rank-ordered list of contributions (one
        shared list: read it, don't mutate it) — or ``then(list)``, a pure
        function evaluated once for the group instead of once per rank.  The
        virtual cost is the plain allgather's either way."""
        net, pids = self._sim.network, self._pids

        def complete(arrived: dict) -> dict:
            values = [arrived[pid][1] for pid in pids]
            per_rank = max(payload_nbytes(v) for v in values)
            finish = max(c for c, _ in arrived.values()) + net.gather_time(
                len(pids), per_rank
            ) + net.bcast_time(len(pids), per_rank * len(pids))
            result = values if then is None else then(values)
            return {pid: (finish, result) for pid in arrived}

        return (yield from self._collective(ctx, "allgather", data, complete))

    def reduce(self, ctx: Context, data: Any, op: Callable[[list], Any], root: int = 0):
        """Reduce with a Python combiner ``op(list_by_rank) -> value``."""
        net, pids = self._sim.network, self._pids
        root_pid = pids[root]

        def complete(arrived: dict) -> dict:
            values = [arrived[pid][1] for pid in pids]
            combined = op(values)
            nbytes = max(payload_nbytes(v) for v in values)
            tmax = max(c for c, _ in arrived.values())
            out = {}
            for pid in arrived:
                if pid == root_pid:
                    out[pid] = (tmax + net.reduce_time(len(pids), nbytes), combined)
                else:
                    out[pid] = (tmax + net.sw_overhead, None)
            return out

        return (yield from self._collective(ctx, "reduce", data, complete))

    def allreduce(self, ctx: Context, data: Any, op: Callable[[list], Any]):
        net, pids = self._sim.network, self._pids

        def complete(arrived: dict) -> dict:
            values = [arrived[pid][1] for pid in pids]
            combined = op(values)
            nbytes = max(payload_nbytes(v) for v in values)
            finish = max(c for c, _ in arrived.values()) + net.allreduce_time(
                len(pids), nbytes
            )
            return {pid: (finish, combined) for pid in arrived}

        return (yield from self._collective(ctx, "allreduce", data, complete))

    def alltoallv(self, ctx: Context, send: dict[int, Any]):
        """Personalized all-to-all: ``send`` maps dest rank → payload.

        Returns a dict mapping source rank → payload (only sources that sent
        to this rank appear).  This is the partition-shuffle primitive of
        Algorithm 2 (MPI_Alltoallv).
        """
        net, pids = self._sim.network, self._pids
        my_rank = self.rank(ctx)
        for dest in send:
            if not 0 <= dest < len(pids):
                raise SimError(f"alltoallv dest rank {dest} out of range (size {len(pids)})")

        def complete(arrived: dict) -> dict:
            # arrived: pid -> (clock, {dest_rank: payload})
            inbound: dict[int, dict[int, Any]] = {r: {} for r in range(len(pids))}
            send_bytes = []
            total = 0
            for pid, (_, outbox) in arrived.items():
                src_rank = self._rank_of[pid]
                me = 0
                for dest_rank, payload in outbox.items():
                    nb = payload_nbytes(payload)
                    inbound[dest_rank][src_rank] = payload
                    me += nb
                    total += nb
                send_bytes.append(me)
            finish = max(c for c, _ in arrived.values()) + net.alltoallv_time(
                len(pids), max(send_bytes, default=0), total
            )
            return {pid: (finish, inbound[self._rank_of[pid]]) for pid in arrived}

        return (yield from self._collective(ctx, "alltoallv", dict(send), complete))

    def split(self, ctx: Context, color: int, key: int = 0):
        """Partition this communicator into sub-communicators by color.

        Every member must call; members with the same color land in the same
        new Comm, ranked by (key, old rank).  This is how Algorithm 2 halves
        the process group at each VP-tree level.
        """
        net, pids = self._sim.network, self._pids
        sim = self._sim

        def complete(arrived: dict) -> dict:
            groups: dict[int, list[tuple[int, int, int]]] = {}
            for pid, (_, (col, k)) in arrived.items():
                groups.setdefault(col, []).append((k, self._rank_of[pid], pid))
            comms: dict[int, Comm] = {}
            for col, members in groups.items():
                members.sort()
                comms[col] = Comm(
                    sim, [pid for _, _, pid in members], name=f"{self.name}/c{col}"
                )
            finish_base = max(c for c, _ in arrived.values()) + net.barrier_time(len(pids))
            out = {}
            for pid, (_, (col, _k)) in arrived.items():
                out[pid] = (finish_base, comms[col])
            return out

        return (yield from self._collective(ctx, "split", (int(color), int(key)), complete))
