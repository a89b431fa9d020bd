"""System configuration.

One dataclass holds every knob of the distributed system so experiments are
single-object parameter sweeps.  Defaults are a small laptop-scale setup;
the benchmarks instantiate paper-scale variants (up to 8192 simulated
cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.spec import FaultPolicy, FaultSpec
from repro.filtering.strategy import STRATEGIES as _FILTER_STRATEGIES
from repro.hnsw.params import HnswParams
from repro.simmpi.costmodel import CostModel
from repro.simmpi.errors import SimConfigError
from repro.simmpi.network import NetworkModel

__all__ = ["SystemConfig", "cli_option"]

_ROUTINGS = ("approx", "adaptive")
_OWNERS = ("master", "multiple")
_SEARCHERS = ("real", "modeled")
_SELECTORS = ("primary", "round_robin", "least_loaded", "power_of_two_choices")
_OVERLOAD_POLICIES = ("block", "shed_oldest", "reject")


def cli_option(
    flag: str,
    help: str,  # noqa: A002 - mirrors argparse's keyword
    commands: tuple[str, ...] = ("query", "bench"),
    type: type | None = None,  # noqa: A002
    choices: tuple | None = None,
) -> dict:
    """Dataclass-field metadata declaring the field's CLI flag.

    ``SystemConfig`` is the single source of truth for config-backed CLI
    knobs: tag a field with ``metadata=cli_option(...)`` and the argparse
    flag (dest = field name, default = field default) is derived by
    :func:`repro.cli.add_config_flags` on every subcommand named in
    ``commands`` — declared once, parsed everywhere, round-trip tested.
    """
    return {"cli": {"flag": flag, "help": help, "commands": commands,
                    "type": type, "choices": choices}}


@dataclass(frozen=True)
class SystemConfig:
    """All parameters of one :class:`~repro.core.engine.DistributedANN`.

    Attributes
    ----------
    n_cores:
        P — number of processing cores = number of data partitions (the
        paper couples these: one leaf of the VP tree per core).
    cores_per_node:
        Cores per compute node (paper's XC40: 24).  ``n_cores`` must be a
        multiple of it or smaller than it.
    routing:
        ``"approx"`` — fixed ``n_probe`` best-first partitions per query
        (the throughput mode).  ``"adaptive"`` — pilot probe of the nearest
        partition, then exact ball routing with the pilot's k-th distance
        (guaranteed partition coverage; needs two-sided results).
    replication_factor:
        r — each partition is replicated on r consecutive cores' nodes and
        the master round-robins queries over the workgroup (Alg. 5);
        ``1`` disables replication (base algorithm).
    one_sided:
        Workers return results via RMA ``Get_accumulate`` into the master's
        window (Fig. 2) instead of point-to-point sends.
    owner_strategy:
        ``"master"`` — the paper's main design.  ``"multiple"`` — the
        hash-owner variant the paper describes (every node owns a slice of
        the queries and routes them itself).
    searcher:
        ``"real"`` — partitions hold real HNSW indexes; results and recall
        are genuine.  ``"modeled"`` — local searches charge the analytic
        HNSW cost for ``modeled_partition_points`` points (paper-scale
        partitions) and answer from a small real subsample; used for the
        billion-point scaling experiments.
    """

    n_cores: int = 8
    cores_per_node: int = 4
    k: int = 10
    metric: str = "l2"
    hnsw: HnswParams = field(default_factory=lambda: HnswParams(M=8, ef_construction=40))
    ef_search: int | None = None
    routing: str = "approx"
    n_probe: int = 3
    #: queries per task message: the master buffers per-partition dispatch
    #: and ships B queries to a partition as one batch task, which the
    #: worker answers with one ``knn_search_batch`` call (amortized message
    #: headers and python dispatch).  1 = one task per (query, partition),
    #: wire-identical to the unbatched protocol.  Batching reorders
    #: dispatch, so >1 requires the plain master/approx path.
    batch_size: int = field(
        default=1,
        metadata=cli_option(
            "--batch-size", "queries per task message (per-partition dispatch batching)"
        ),
    )
    #: credit-based dispatch flow control (see docs/pipelining.md): at most
    #: ``dispatch_window`` tasks in flight per core; dispatch to a partition
    #: whose whole workgroup is out of credits blocks (consuming in-flight
    #: results) until a credit returns.  0 = eager unwindowed dispatch,
    #: bit-identical to the pre-pipelining master.  Master-worker modes
    #: only; a batch must fit one core's window (batch_size <= W).
    dispatch_window: int = field(
        default=0,
        metadata=cli_option(
            "--dispatch-window",
            "max in-flight tasks per core (credit-based flow control; 0 = eager dispatch)",
        ),
    )
    replication_factor: int = field(
        default=1,
        metadata=cli_option("--replication", "workgroup replication factor r"),
    )
    #: which replica of a task's target partition serves it (see
    #: :mod:`repro.loadbalance`): ``"primary"`` — the workgroup circular
    #: pointer (Alg. 5, bit-identical to the pre-selector dispatcher),
    #: ``"round_robin"``, ``"least_loaded"``, ``"power_of_two_choices"``.
    #: Master-worker modes only; with r = 1 all policies coincide.
    replica_selector: str = field(
        default="primary",
        metadata=cli_option(
            "--replica-selector",
            "replica selection policy for dispatch (load balancing)",
            choices=_SELECTORS,
        ),
    )
    #: Zipf exponent s of the skewed-workload generator (0 = uniform
    #: targets).  A workload knob, not an engine knob: the engine never
    #: reads it — ``repro bench`` and the load-balance benchmark pass it to
    #: :func:`repro.datasets.zipf_queries` to aim queries at partitions
    #: with probability proportional to 1/rank^s.
    skew: float = field(
        default=0.0,
        metadata=cli_option(
            "--skew", "Zipf exponent of the benchmark query workload (0 = uniform)",
            commands=("bench",),
        ),
    )
    #: open-loop serving arrival process (see docs/serving.md): None = the
    #: closed-loop batch (every query present at t = 0, bit-identical to the
    #: pre-serving pipeline); ``"poisson:RATE"``, ``"burst:LOW:HIGH:PERIOD"``
    #: or ``"trace:t1,t2,..."`` runs the search through the serving
    #: coordinator, with queries arriving on the virtual clock.
    arrival: str | None = field(
        default=None,
        metadata=cli_option(
            "--arrival",
            "open-loop arrival process: poisson:RATE, burst:LOW:HIGH:PERIOD "
            "or trace:t1,t2,... (default: closed-loop batch)",
            type=str,
        ),
    )
    #: serving ingress queue bound (0 = unbounded); overload_policy decides
    #: what happens to arrivals past the bound
    queue_depth: int = field(
        default=0,
        metadata=cli_option(
            "--queue-depth",
            "serving ingress queue bound (0 = unbounded; needs --arrival)",
        ),
    )
    #: what a full ingress queue does to new arrivals: ``"block"`` stops
    #: consuming them (backpressure), ``"shed_oldest"`` drops the stalest
    #: queued query, ``"reject"`` refuses the new arrival with a flag
    overload_policy: str = field(
        default="block",
        metadata=cli_option(
            "--overload-policy",
            "full-ingress-queue policy (needs --arrival and --queue-depth)",
            choices=_OVERLOAD_POLICIES,
        ),
    )
    #: hot-query result cache capacity in entries (0 = cache off)
    cache_size: int = field(
        default=0,
        metadata=cli_option(
            "--cache-size",
            "hot-query result cache capacity, entries (0 = off; needs --arrival)",
        ),
    )
    #: SLO target for arrival-to-completion latency, milliseconds (0 = no
    #: target; the violation fraction is only reported when set)
    slo_ms: float = field(
        default=0.0,
        metadata=cli_option(
            "--slo-ms",
            "arrival-to-completion SLO target in ms (0 = none; needs --arrival)",
        ),
    )
    # -- filtered & multi-tenant search (see docs/filtering.md)
    #: default filter predicate for every query of the run, as text: JSON
    #: (``{"attr": "tier", "op": "in", "value": [1, 2]}``) or the shorthand
    #: ``tier=3`` / ``tier=1,2,5`` / ``tier=10..20``.  None = unfiltered.
    #: Per-call ``filter=`` arguments override it.
    filter: str | None = field(
        default=None,
        metadata=cli_option(
            "--filter",
            'default filter predicate: JSON or shorthand ("tier=3", '
            '"tier=1,2,5", "tier=10..20"); needs build-time metadata',
            type=str,
        ),
    )
    #: tenant id every query of the run belongs to: adds an implicit
    #: ``tenant == id`` clause (over the build-time ``tenant`` attribute
    #: column) and namespaces serving admission + result-cache keys.
    #: None = single-tenant, bit-identical to the pre-filtering engine.
    tenant: int | None = field(
        default=None,
        metadata=cli_option(
            "--tenant",
            "tenant id: adds an implicit tenant==id clause and namespaces "
            "serving admission and cache keys",
            type=int,
        ),
    )
    #: filtered-execution strategy: ``"auto"`` picks brute force over the
    #: matching rows (pre) below the selectivity crossover and filtered
    #: graph traversal (post) above it; ``"pre"``/``"post"`` force one.
    filter_strategy: str = field(
        default="auto",
        metadata=cli_option(
            "--filter-strategy",
            "filtered execution strategy (auto = selectivity crossover)",
            choices=_FILTER_STRATEGIES,
        ),
    )
    # -- observability (see docs/observability.md); valid in every mode and
    # guaranteed bit-identity-neutral: recording never touches the virtual
    # clock, so golden digests and makespans match with tracing on or off
    #: write a Chrome-trace-event JSON (Perfetto-loadable) of the run
    trace_out: str | None = field(
        default=None,
        metadata=cli_option(
            "--trace-out",
            "write a Perfetto-loadable Chrome trace-event JSON of the run",
            commands=("query",),
            type=str,
        ),
    )
    #: write the schema-versioned JSONL structured event log
    events_out: str | None = field(
        default=None,
        metadata=cli_option(
            "--events-out",
            "write a schema-versioned JSONL event log (spans/instants/counters/queries)",
            commands=("query",),
            type=str,
        ),
    )
    #: write the metrics-registry dump as JSON
    metrics_out: str | None = field(
        default=None,
        metadata=cli_option(
            "--metrics-out",
            "write the unified metrics-registry dump as JSON",
            commands=("query",),
            type=str,
        ),
    )
    #: print the span trees of the N slowest queries after the run
    explain_top: int = field(
        default=0,
        metadata=cli_option(
            "--explain-top",
            "print span trees of the N slowest queries (0 = off)",
            commands=("query",),
        ),
    )
    one_sided: bool = True
    owner_strategy: str = "master"
    searcher: str = "real"
    #: virtual points per partition for the modeled searcher (e.g. 1e9/P)
    modeled_partition_points: int = 1_000_000
    #: real points kept per partition by the modeled searcher to answer from
    modeled_sample_points: int = 128
    #: explicit virtual seconds per modeled local search.  None = use the
    #: analytic HNSW estimate.  The scaling benchmarks set this from the
    #: paper's own aggregate throughput (e.g. 6.3 s x 8192 cores / (1e4
    #: queries x fanout) for ANN_SIFT1B), because the paper's measured
    #: per-task cost is far above any analytic HNSW estimate — see
    #: EXPERIMENTS.md, "calibration".
    modeled_search_seconds: float | None = None
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 0
    #: fault scenario injected into the simulated fabric (None = fault-free)
    fault_spec: FaultSpec | None = None
    #: fault-tolerant dispatch knobs; setting either faults field routes the
    #: search through the timeout/retry/failover master
    fault_policy: FaultPolicy | None = None

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise SimConfigError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.cores_per_node < 1:
            raise SimConfigError(f"cores_per_node must be >= 1, got {self.cores_per_node}")
        if self.k < 1:
            raise SimConfigError(f"k must be >= 1, got {self.k}")
        if self.routing not in _ROUTINGS:
            raise SimConfigError(f"routing must be one of {_ROUTINGS}, got {self.routing!r}")
        if self.owner_strategy not in _OWNERS:
            raise SimConfigError(
                f"owner_strategy must be one of {_OWNERS}, got {self.owner_strategy!r}"
            )
        if self.searcher not in _SEARCHERS:
            raise SimConfigError(f"searcher must be one of {_SEARCHERS}, got {self.searcher!r}")
        for name in ("modeled_partition_points", "modeled_sample_points"):
            if getattr(self, name) < 1:
                raise SimConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.modeled_search_seconds is not None and not (
            0.0 <= self.modeled_search_seconds < float("inf")
        ):
            raise SimConfigError(
                "modeled_search_seconds must be finite and >= 0, "
                f"got {self.modeled_search_seconds}"
            )
        if not 1 <= self.replication_factor <= self.n_cores:
            raise SimConfigError(
                f"replication_factor must be in [1, n_cores={self.n_cores}], "
                f"got {self.replication_factor}"
            )
        if self.n_probe < 1:
            raise SimConfigError(f"n_probe must be >= 1, got {self.n_probe}")
        if self.replica_selector not in _SELECTORS:
            raise SimConfigError(
                f"replica_selector must be one of {_SELECTORS}, got {self.replica_selector!r}"
            )
        if self.replica_selector != "primary" and self.owner_strategy != "master":
            raise SimConfigError(
                "replica selection policies require owner_strategy='master': "
                "owners dispatch through the paper's workgroup pointer only"
            )
        if self.skew < 0:
            raise SimConfigError(f"skew must be >= 0, got {self.skew}")
        if self.batch_size < 1:
            raise SimConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_size > 1:
            if self.routing != "approx":
                raise SimConfigError(
                    f"batch_size > 1 requires routing='approx', got {self.routing!r}"
                )
            if self.owner_strategy != "master":
                raise SimConfigError(
                    "batch_size > 1 requires owner_strategy='master', "
                    f"got {self.owner_strategy!r}"
                )
            if self.fault_spec is not None or self.fault_policy is not None:
                raise SimConfigError(
                    "batch_size > 1 is incompatible with fault injection: the "
                    "fault-tolerant dispatcher times out and retries per task"
                )
        if self.dispatch_window < 0:
            raise SimConfigError(
                f"dispatch_window must be >= 0, got {self.dispatch_window}"
            )
        if self.dispatch_window > 0:
            if self.owner_strategy != "master":
                raise SimConfigError(
                    "dispatch_window > 0 requires owner_strategy='master': "
                    "owner procs dispatch their query slices eagerly"
                )
            if self.batch_size > self.dispatch_window:
                raise SimConfigError(
                    f"batch_size ({self.batch_size}) must fit one core's credit "
                    f"window (dispatch_window={self.dispatch_window}): a batch "
                    "charges batch_size credits against a single core"
                )
        if self.routing == "adaptive" and self.one_sided:
            raise SimConfigError(
                "adaptive routing needs the pilot result back at the master, "
                "which requires two-sided results (one_sided=False)"
            )
        if self.fault_spec is not None or self.fault_policy is not None:
            # the FT dispatcher tracks per-task deadlines at the master, so
            # it needs the two-sided master-worker approx path
            if self.one_sided:
                raise SimConfigError(
                    "fault tolerance needs two-sided results (one_sided=False): "
                    "one-sided accumulates cannot be timed out per task"
                )
            if self.owner_strategy != "master":
                raise SimConfigError(
                    "fault tolerance requires owner_strategy='master', "
                    f"got {self.owner_strategy!r}"
                )
            if self.routing != "approx":
                raise SimConfigError(
                    f"fault tolerance requires routing='approx', got {self.routing!r}"
                )
        if self.queue_depth < 0:
            raise SimConfigError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.cache_size < 0:
            raise SimConfigError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.slo_ms < 0:
            raise SimConfigError(f"slo_ms must be >= 0, got {self.slo_ms}")
        if self.overload_policy not in _OVERLOAD_POLICIES:
            raise SimConfigError(
                f"overload_policy must be one of {_OVERLOAD_POLICIES}, "
                f"got {self.overload_policy!r}"
            )
        if self.arrival is not None:
            # deferred import: serving's package root imports no core module,
            # so this cannot cycle
            from repro.serving.arrivals import parse_arrival_spec

            try:
                parse_arrival_spec(self.arrival)
            except ValueError as exc:
                raise SimConfigError(f"invalid arrival spec: {exc}") from None
            if self.owner_strategy != "master":
                raise SimConfigError(
                    "open-loop serving requires owner_strategy='master': "
                    "arrivals feed one coordinator's admission queue"
                )
            if self.routing != "approx":
                raise SimConfigError(
                    f"open-loop serving requires routing='approx', got {self.routing!r}"
                )
            if self.batch_size != 1:
                raise SimConfigError(
                    "open-loop serving requires batch_size=1: queries are "
                    "served one at a time from the admission queue head"
                )
            if self.one_sided and self.dispatch_window == 0:
                raise SimConfigError(
                    "open-loop serving cannot observe per-query completion in "
                    "one-sided mode without flow control: Get_accumulate "
                    "results bypass the master entirely.  Set one_sided=False "
                    "(two-sided results) or dispatch_window > 0 (credit acks "
                    "give the master a per-task completion signal)"
                )
        else:
            for name, value, default in (
                ("queue_depth", self.queue_depth, 0),
                ("overload_policy", self.overload_policy, "block"),
                ("cache_size", self.cache_size, 0),
                ("slo_ms", self.slo_ms, 0.0),
            ):
                if value != default:
                    raise SimConfigError(
                        f"{name}={value!r} needs an open-loop arrival process "
                        "(set arrival=...); the closed-loop batch has no "
                        "ingress queue, cache, or SLO clock"
                    )
        if self.overload_policy != "block" and self.queue_depth == 0:
            raise SimConfigError(
                f"overload_policy={self.overload_policy!r} requires "
                "queue_depth > 0: an unbounded ingress queue never overloads"
            )
        if self.explain_top < 0:
            raise SimConfigError(f"explain_top must be >= 0, got {self.explain_top}")
        if self.filter_strategy not in _FILTER_STRATEGIES:
            raise SimConfigError(
                f"filter_strategy must be one of {_FILTER_STRATEGIES}, "
                f"got {self.filter_strategy!r}"
            )
        if self.tenant is not None and self.tenant < 0:
            raise SimConfigError(f"tenant must be >= 0, got {self.tenant}")
        if self.filter is not None:
            from repro.filtering import FilterSpec, FilterSpecError

            try:
                FilterSpec.parse(self.filter)
            except FilterSpecError as exc:
                raise SimConfigError(f"invalid filter: {exc}") from None

    # -- observability ------------------------------------------------------

    @property
    def trace_enabled(self) -> bool:
        """True when any observability output wants a per-query trace."""
        return (
            self.trace_out is not None
            or self.events_out is not None
            or self.explain_top > 0
        )

    # -- derived topology ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return -(-self.n_cores // self.cores_per_node)

    @property
    def threads_per_node(self) -> int:
        return min(self.cores_per_node, self.n_cores)

    def node_of_core(self, core: int) -> int:
        if not 0 <= core < self.n_cores:
            raise SimConfigError(f"core {core} out of range [0, {self.n_cores})")
        return core // self.cores_per_node

    @property
    def effective_ef_search(self) -> int:
        return self.ef_search if self.ef_search is not None else self.hnsw.ef_search
