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

from typing import Any, Callable

from repro.simmpi.engine import Context, payload_nbytes
from repro.simmpi.errors import SimError

__all__ = ["Window"]


class Window:
    """A remotely-accumulatable buffer owned by one proc.

    ``slots`` is any indexable store (list / dict / numpy array rows);
    ``combine(old, update) -> new`` is the accumulate operation — for the
    paper's use case it merges a worker's local k-NN list into the global
    k-NN list for that query id.
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
        if ctx.pid in self._lock_holders:
            raise SimError(f"proc {ctx.name} already holds a lock epoch on {self.name}")
        self._lock_holders.add(ctx.pid)
        # lock acquisition is one NIC round-trip
        yield from ctx.compute(ctx.network.rma_latency, kind="rma_sync")

    def unlock(self, ctx: Context):
        """End the access epoch (MPI_Win_unlock); flushes pending ops."""
        if ctx.pid not in self._lock_holders:
            raise SimError(f"proc {ctx.name} does not hold a lock epoch on {self.name}")
        self._lock_holders.discard(ctx.pid)
        yield from ctx.compute(ctx.network.rma_latency, kind="rma_sync")

    # -- one-sided ops ----------------------------------------------------------

    def get_accumulate(self, ctx: Context, index: Any, update: Any, nbytes: int | None = None):
        """Atomic remote read-combine-write of one slot.

        Returns the *previous* slot value (the "get" part), as
        ``MPI_Get_accumulate`` does.  The origin pays one RMA round-trip;
        the window owner pays nothing.
        """
        if ctx.pid not in self._lock_holders:
            raise SimError(
                f"proc {ctx.name} must hold a lock epoch on {self.name} before accumulating"
            )
        if nbytes is None:
            nbytes = payload_nbytes(update)
        same_node = ctx.node == self.owner_node
        seconds = ctx.network.rma_accumulate_time(nbytes, same_node)
        win = self

        def apply() -> Any:
            old = win._slots[index]
            win._slots[index] = win._combine(old, update)
            win.accum_count += 1
            return old

        old = yield from ctx.rma(seconds, apply, nbytes)
        return old

    # -- owner-side access ---------------------------------------------------------

    def read(self, ctx: Context, index: Any) -> Any:
        """Owner-local read of a slot (no network cost; plain memory)."""
        if ctx.pid != self.owner_pid:
            raise SimError(f"only the owner may read {self.name} locally")
        return self._slots[index]
