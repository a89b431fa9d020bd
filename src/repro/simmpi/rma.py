"""One-sided RMA window (Fig. 2 of the paper).

The master exposes a results buffer; workers push their local k-NN results
with atomic read-modify-write operations (``MPI_Get_accumulate`` under
``MPI_Win_lock`` in shared mode) without any master-side receive.  In the
simulation the window is a Python-side buffer with a per-slot combiner; the
*origin* proc is charged the NIC round-trip from the network model and the
*target* is charged nothing — which is exactly the asymmetry that removes
the master-side bottleneck the paper observed in its baseline.

Epochs are modelled explicitly: origins must hold a (shared) lock epoch to
issue accumulates, mirroring MPI's passive-target synchronisation rules;
violating the discipline raises instead of silently "working", so algorithm
code keeps the same shape it would have with real MPI.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.simmpi.engine import Context, _RmaOp, payload_nbytes
from repro.simmpi.errors import SimError

__all__ = ["Window"]


class Window:
    """A remotely-accumulatable buffer owned by one proc.

    ``slots`` is any indexable store (list / dict / numpy array rows);
    ``combine(old, update) -> new`` is the accumulate operation, applied
    to the raw stored value.  For the paper's use case the store is
    ``GlobalResults.store`` and the combine ``GlobalResults.accumulate``:
    it adds a worker's local k-NN to that query's slot without ranking it
    (the master ranks each query once, when it reads it), so the previous
    value an accumulate returns is that raw slot, which the worker
    discards.
    """

    def __init__(
        self,
        owner_pid: int,
        owner_node: int,
        slots: Any,
        combine: Callable[[Any, Any], Any],
        name: str = "win",
    ) -> None:
        self.owner_pid = owner_pid
        self.owner_node = owner_node
        self._slots = slots
        self._combine = combine
        self.name = name
        self._lock_holders: set[int] = set()
        self.accum_count = 0

    # -- epochs ---------------------------------------------------------------

    def lock_shared(self, ctx: Context):
        """Begin a passive-target shared access epoch (MPI_Win_lock)."""
        yield from ctx.compute(self.open_epoch(ctx), kind="rma_sync")

    def unlock(self, ctx: Context):
        """End the access epoch (MPI_Win_unlock); flushes pending ops."""
        yield from ctx.compute(self.close_epoch(ctx), kind="rma_sync")

    def open_epoch(self, ctx: Context) -> float:
        """Enter the shared epoch without yielding; returns the seconds
        ``lock_shared`` charges (one NIC round-trip), for a caller that
        charges them inside another syscall (``ctx.recv(compute=...)``)."""
        pid = ctx.pid
        if pid in self._lock_holders:
            raise SimError(f"proc {ctx.name} already holds a lock epoch on {self.name}")
        self._lock_holders.add(pid)
        return ctx.network.rma_latency

    def close_epoch(self, ctx: Context) -> float:
        """Leave the epoch without yielding; returns the seconds ``unlock``
        charges (``ctx.exit(compute=...)`` charges them)."""
        pid = ctx.pid
        if pid not in self._lock_holders:
            raise SimError(f"proc {ctx.name} does not hold a lock epoch on {self.name}")
        self._lock_holders.discard(pid)
        return ctx.network.rma_latency

    # -- one-sided ops ----------------------------------------------------------

    def get_accumulate(self, ctx: Context, index: Any, update: Any, nbytes: int | None = None):
        """Atomic remote read-combine-write of one slot.

        Returns the *previous* slot value (the "get" part), as
        ``MPI_Get_accumulate`` does.  The origin pays one RMA round-trip;
        the window owner pays nothing.
        """
        nbytes = payload_nbytes(update) if nbytes is None else int(nbytes)
        old = yield self.accumulate_op(ctx, index, update, nbytes)
        return old

    def accumulate_op(self, ctx: Context, index: Any, update: Any, nbytes: int) -> _RmaOp:
        """The syscall :meth:`get_accumulate` yields, for a program that
        yields it itself; the engine's step applies it and resumes the
        origin with the previous slot value."""
        if ctx.pid not in self._lock_holders:
            raise SimError(
                f"proc {ctx.name} must hold a lock epoch on {self.name} before accumulating"
            )
        seconds = ctx.network.rma_accumulate_time(nbytes, ctx.node == self.owner_node)
        return _RmaOp(seconds, partial(self._apply, index, update), nbytes)

    def _apply(self, index: Any, update: Any) -> Any:
        old = self._slots[index]
        self._slots[index] = self._combine(old, update)
        self.accum_count += 1
        return old

    # -- owner-side access ---------------------------------------------------------

    def read(self, ctx: Context, index: Any) -> Any:
        """Owner-local read of a slot (no network cost; plain memory)."""
        if ctx.pid != self.owner_pid:
            raise SimError(f"only the owner may read {self.name} locally")
        return self._slots[index]
