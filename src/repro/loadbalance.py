"""Replica selection and load-aware dispatch (``repro.loadbalance``).

PR 2 gave every partition a *workgroup* of r replica cores but used the
replicas only for crash failover: the plain dispatcher walks each
workgroup's circular pointer, which spreads one partition's tasks evenly
over its own replicas yet is blind to the load the *other* partitions put
on the same cores.  Under a skewed workload (the paper's §IV "hot region"
scenario, LANNS's segmented routing problem) that blindness is exactly
what stretches the makespan: the core shared by two hot workgroups
queues twice the work of its neighbours while cold replicas idle.

This module turns replicas into throughput:

- :class:`LoadTracker` — the master's model of per-core outstanding work.
  Every dispatch extends the target core's *busy horizon* by the task's
  modeled cost (``cost model`` seconds); the backlog at virtual time
  ``now`` is ``max(busy_until - now, 0)``, so queues drain with the
  simulation clock and no completion callbacks are needed (the model
  works identically for one-sided runs, where results never pass through
  the master).
- :class:`ReplicaSelector` — the pluggable policy picking which replica
  of a partition serves a task.  Four built-ins:

  ============================ ============================================
  ``primary``                  the workgroup's own circular pointer
                               (paper Alg. 5; bit-identical to the
                               pre-selector dispatcher — the default)
  ``round_robin``              a per-partition counter independent of the
                               workgroup's seeded pointer state
  ``least_loaded``             the replica with the smallest tracked
                               backlog (ties break to the lowest core id)
  ``power_of_two_choices``     two seeded random candidates, keep the
                               less loaded (Mitzenmacher's classic
                               d = 2 balancer)
  ============================ ============================================

Every selector honours an ``exclude`` set (suspected-dead cores), so
load balancing composes with the fault-tolerant dispatcher's failover:
suspicion shrinks the candidate pool, the policy ranks what is left.
Selection itself costs zero virtual seconds — only where a task lands
changes, never what it computes — so ``primary`` runs reproduce the
golden traces bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random

import numpy as np

from repro.core.replication import Workgroups
from repro.simmpi.errors import SimConfigError

__all__ = [
    "SELECTORS",
    "LoadTracker",
    "ReplicaSelector",
    "PrimarySelector",
    "RoundRobinSelector",
    "LeastLoadedSelector",
    "PowerOfTwoChoicesSelector",
    "make_selector",
    "estimate_task_seconds",
    "derive_task_timeout",
    "derive_drain_timeout",
]

#: the replica-selection policies ``SystemConfig.replica_selector`` accepts
SELECTORS = ("primary", "round_robin", "least_loaded", "power_of_two_choices")


class LoadTracker:
    """Per-core outstanding-work model maintained by the dispatcher.

    The tracker is bookkeeping only: recording a dispatch costs zero
    virtual seconds and draws no randomness, so attaching one to any
    dispatcher (including ``primary``) never perturbs the simulation.

    ``task_cost_hint`` is the modeled virtual seconds of one local search
    (see :func:`estimate_task_seconds`); a dispatch may override it with a
    task-specific cost (e.g. ``B`` times the hint for a batch task).

    The queue-depth timeline is bounded: once ``max_timeline_samples``
    samples accumulate, the record is decimated 2:1 and the sampling
    stride doubles, so an N-dispatch run keeps an evenly strided subset
    of at most ``2 * max_timeline_samples`` samples (first-to-last
    coverage preserved) instead of one sample per dispatch.  Pass None
    to keep every sample.  See docs/load_balancing.md, "timeline
    sampling".
    """

    def __init__(
        self,
        n_cores: int,
        task_cost_hint: float,
        max_timeline_samples: int | None = 4096,
        metrics=None,
    ) -> None:
        if n_cores < 1:
            raise SimConfigError(f"n_cores must be >= 1, got {n_cores}")
        if max_timeline_samples is not None and max_timeline_samples < 2:
            raise SimConfigError(
                f"max_timeline_samples must be >= 2 or None, got {max_timeline_samples}"
            )
        self.n_cores = n_cores
        self.task_cost_hint = max(float(task_cost_hint), 1e-12)
        self.max_timeline_samples = max_timeline_samples
        #: peak-total-queued gauge in the run's MetricsRegistry (optional)
        self._peak_gauge = (
            metrics.gauge("loadtracker.peak_total_queued") if metrics is not None else None
        )
        #: modeled virtual time each core stays busy through
        self.busy_until = np.zeros(n_cores, dtype=np.float64)
        #: tasks dispatched per core (the tracker's own count — matches the
        #: master report's dispatch_counts on the master-worker paths)
        self.dispatched = np.zeros(n_cores, dtype=np.int64)
        #: scratch for total_queued, so sampling allocates nothing
        self._backlog = np.empty(n_cores, dtype=np.float64)
        self._samples: list[tuple[float, float]] = []
        self._events = 0
        self._stride = 1

    def record_dispatch(
        self, core: int, now: float, n_tasks: int = 1, cost: float | None = None
    ) -> None:
        """Extend ``core``'s busy horizon by one task's modeled cost."""
        c = self.task_cost_hint * n_tasks if cost is None else float(cost)
        self.busy_until[core] = max(self.busy_until[core], now) + c
        self.dispatched[core] += n_tasks
        self._events += 1
        if self._events % self._stride == 0:
            depth = self.total_queued(now)
            self._samples.append((now, depth))
            if self._peak_gauge is not None:
                self._peak_gauge.track_max(depth)
            if (
                self.max_timeline_samples is not None
                and len(self._samples) >= self.max_timeline_samples
            ):
                self._samples = self._samples[::2]
                self._stride *= 2

    def backlog(self, core: int, now: float) -> float:
        """Modeled seconds of queued work on ``core`` at virtual ``now``."""
        return max(float(self.busy_until[core]) - now, 0.0)

    def queue_depth(self, core: int, now: float) -> float:
        """Backlog expressed in tasks (backlog / per-task cost hint)."""
        return self.backlog(core, now) / self.task_cost_hint

    def total_queued(self, now: float) -> float:
        """Summed queue depth over all cores, in tasks."""
        backlog = np.subtract(self.busy_until, now, out=self._backlog)
        return float(np.maximum(backlog, 0.0, out=backlog).sum()) / self.task_cost_hint

    def timeline(self) -> np.ndarray:
        """(n_dispatches, 2) array of (virtual time, total queued tasks)."""
        if not self._samples:
            return np.empty((0, 2), dtype=np.float64)
        return np.asarray(self._samples, dtype=np.float64)


class ReplicaSelector(ABC):
    """Policy choosing which replica core serves a (query, partition) task.

    ``pick`` returns a core of ``workgroups.cores_for_partition(pid)`` not
    in ``exclude``, or None when every replica is excluded (the degraded
    case failover handles).  Implementations must be deterministic given
    their construction arguments and call history — the whole simulation
    is replayable, and the golden tests rely on it.
    """

    #: the ``SystemConfig.replica_selector`` name this class implements
    name: str = ""

    def __init__(self, workgroups: Workgroups, tracker: LoadTracker | None = None) -> None:
        self.workgroups = workgroups
        self.tracker = tracker if tracker is not None else LoadTracker(workgroups.n_cores, 1e-6)

    @abstractmethod
    def pick(self, partition_id: int, now: float, exclude=()) -> int | None:
        """The replica core for one task of ``partition_id`` at ``now``."""

    def _live(self, partition_id: int, exclude) -> list[int]:
        return [c for c in self.workgroups.cores_for_partition(partition_id) if c not in exclude]


class PrimarySelector(ReplicaSelector):
    """The pre-selector behaviour: delegate to the workgroup's own
    circular pointer (paper Alg. 5 lines 10-11).

    This is the only selector that *advances* the :class:`Workgroups`
    pointer state, which keeps ``--replica-selector primary`` runs
    bit-identical to every golden trace recorded before selectors existed.
    """

    name = "primary"

    def pick(self, partition_id: int, now: float, exclude=()) -> int | None:
        return self.workgroups.next_core(partition_id, exclude=exclude)


class RoundRobinSelector(ReplicaSelector):
    """Per-partition round-robin from offset 0, independent of the
    workgroup's seeded pointer state (so failover excursions through
    ``Workgroups.next_core`` never shift this selector's cycle)."""

    name = "round_robin"

    def __init__(self, workgroups: Workgroups, tracker: LoadTracker | None = None) -> None:
        super().__init__(workgroups, tracker)
        self._next = [0] * workgroups.n_cores

    def pick(self, partition_id: int, now: float, exclude=()) -> int | None:
        group = self.workgroups.cores_for_partition(partition_id)
        n = len(group)
        for step in range(n):
            idx = (self._next[partition_id] + step) % n
            core = group[idx]
            if core not in exclude:
                self._next[partition_id] = (idx + 1) % n
                return core
        return None


class LeastLoadedSelector(ReplicaSelector):
    """The replica with the smallest tracked backlog; ties break to the
    lowest core id so selection is deterministic."""

    name = "least_loaded"

    def pick(self, partition_id: int, now: float, exclude=()) -> int | None:
        live = self._live(partition_id, exclude)
        if not live:
            return None
        return min(live, key=lambda c: (self.tracker.backlog(c, now), c))


class PowerOfTwoChoicesSelector(ReplicaSelector):
    """Sample two distinct replicas with a seeded RNG, keep the less
    loaded (ties break to the lower core id).  Approaches least-loaded
    balance while probing only d = 2 queues — the classic result."""

    name = "power_of_two_choices"

    def __init__(
        self, workgroups: Workgroups, tracker: LoadTracker | None = None, seed: int = 0
    ) -> None:
        super().__init__(workgroups, tracker)
        self._rng = Random(seed)

    def pick(self, partition_id: int, now: float, exclude=()) -> int | None:
        live = self._live(partition_id, exclude)
        if not live:
            return None
        if len(live) == 1:
            return live[0]
        a, b = self._rng.sample(live, 2)
        return min((a, b), key=lambda c: (self.tracker.backlog(c, now), c))


def make_selector(
    name: str,
    workgroups: Workgroups,
    tracker: LoadTracker | None = None,
    seed: int = 0,
) -> ReplicaSelector:
    """Instantiate the selector ``SystemConfig.replica_selector`` names."""
    if name == "primary":
        return PrimarySelector(workgroups, tracker)
    if name == "round_robin":
        return RoundRobinSelector(workgroups, tracker)
    if name == "least_loaded":
        return LeastLoadedSelector(workgroups, tracker)
    if name == "power_of_two_choices":
        return PowerOfTwoChoicesSelector(workgroups, tracker, seed=seed)
    raise SimConfigError(f"replica_selector must be one of {SELECTORS}, got {name!r}")


def estimate_task_seconds(cfg, job) -> float:
    """Modeled virtual seconds of one local search.

    Used both to weight in-flight tasks in the :class:`LoadTracker` and to
    derive the fault-tolerant dispatcher's per-task deadlines.  Prefers
    the calibrated ``modeled_search_seconds`` override, else the analytic
    HNSW estimate on the average resident partition size.
    """
    if cfg.modeled_search_seconds is not None:
        return cfg.modeled_search_seconds
    if cfg.searcher == "modeled":
        n = cfg.modeled_partition_points
    else:
        sizes = [
            p.n_points for store in job.node_stores.values() for p in store.partitions.values()
        ]
        n = max(int(np.mean(sizes)), 1) if sizes else 1
    dim = job.Q.shape[1] if job.Q.ndim == 2 else 1
    return cfg.cost.hnsw_search_cost(n, dim, cfg.effective_ef_search, cfg.hnsw.M)


def _network_rtt(network) -> float:
    """The modeled master↔worker round trip (two inter-node hops)."""
    return 2.0 * (network.inter_latency + network.sw_overhead)


def derive_task_timeout(policy, task_seconds_hint: float, network) -> float:
    """Per-attempt deadline of one fault-tolerant task dispatch.

    The modeled service time (:func:`estimate_task_seconds`) plus a
    round trip, scaled by ``policy.timeout_multiplier`` and floored at
    ``policy.min_timeout`` — loose enough that fault-free runs never
    trip it, tight enough that a crashed rank is detected quickly.  An
    explicit ``policy.task_timeout`` overrides the derivation.  The one
    shared implementation of the rule (coordinator fault harness and
    any load-model consumer alike); the regression test pins its values.
    """
    if policy.task_timeout is not None:
        return policy.task_timeout
    return max(
        policy.timeout_multiplier * (task_seconds_hint + _network_rtt(network)),
        policy.min_timeout,
    )


def derive_drain_timeout(policy, base_timeout: float, network) -> float:
    """Per-round deadline of the bounded shutdown drain (thread-done
    collection): an explicit ``policy.drain_timeout``, else the task
    deadline floored at four round trips."""
    if policy.drain_timeout is not None:
        return policy.drain_timeout
    return max(base_timeout, 4.0 * _network_rtt(network))
