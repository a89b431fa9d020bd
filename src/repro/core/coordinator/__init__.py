"""The coordinator core: composable master-side dispatch machinery.

The paper's master (Algorithms 3 and 5) and its fault-tolerant variant
are not two proc bodies but compositions of the same pieces:

- :class:`Router` — VP-tree routing plus route-cost accounting,
- :class:`DispatchWindow` — credit-based flow control: at most
  ``dispatch_window`` tasks in flight per core, credits returned as
  results (or one-sided credit acks) come home; ``dispatch_window=0``
  degenerates to the eager send-everything dispatcher bit for bit,
- :class:`ResultMerger` — the two-sided merge and one-sided RMA paths
  behind one streaming consume-one-message interface,
- :class:`CoordinatorPipeline` — the fault-free route → dispatch →
  merge → drain composition (both routing modes, both comm modes),
- :class:`FaultHarness` — the timeout/retry/suspicion decoration of the
  same pipeline pieces (never a fork of them), closed-loop or under
  open-loop arrivals,
- :func:`~repro.core.coordinator.drain.broadcast_end` with
  :func:`~repro.core.coordinator.drain.await_thread_exits` (fault-free)
  or :func:`~repro.core.coordinator.drain.collect_thread_exits` (under a
  timeout) — the shutdown every one of those loops (and the serving
  pipeline) ends in.

See docs/pipelining.md for the window/credit model and the
degeneracy-to-eager guarantee the golden tests pin.
"""

from repro.core.coordinator.harness import FaultHarness
from repro.core.coordinator.merger import ResultMerger
from repro.core.coordinator.pipeline import CoordinatorPipeline
from repro.core.coordinator.report import MasterReport
from repro.core.coordinator.router import Router
from repro.core.coordinator.window import DispatchWindow

__all__ = [
    "Router",
    "DispatchWindow",
    "ResultMerger",
    "CoordinatorPipeline",
    "FaultHarness",
    "MasterReport",
]
