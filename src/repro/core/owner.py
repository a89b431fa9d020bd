"""Multiple-owner search strategy (paper §IV, discussion paragraph).

Instead of one master, every node runs an *owner* process holding a replica
of the VP-tree skeleton; the owner of a query is chosen by a hash.  Each
owner routes and dispatches its queries, workers reply directly to the
owning node, and a final barrier among owners precedes the shutdown
broadcast.  The paper found this slightly faster than the master-worker
design at small scale but worse at large core counts because it cannot be
combined with workgroup-replication load balancing — the ablation bench
``test_ablation_owner_strategy`` reproduces that comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SystemConfig
from repro.core.coordinator import MasterReport, Router
from repro.core.messages import END, TAG_RESULT, make_task, send, wire_filter
from repro.core.replication import Workgroups
from repro.core.results import GlobalResults
from repro.simmpi.comm import Comm
from repro.simmpi.engine import Context, Mailbox
from repro.vptree.router import PartitionRouter

__all__ = ["owner_node_program"]


def owner_node_program(
    ctx: Context,
    config: SystemConfig,
    router: PartitionRouter,
    workgroups: Workgroups,
    Q: np.ndarray,
    my_query_ids: np.ndarray,
    results: GlobalResults,
    node_mailboxes: list[Mailbox],
    owner_comm: Comm,
    k: int,
    node_id: int,
    metrics,
    fpayload: dict | None = None,
):
    """One node's owner proc.  Returns a :class:`MasterReport` whose
    counters are the run-wide ``metrics`` registry's, shared by every owner."""
    report = MasterReport(config.n_cores, metrics)
    route = Router(router, report, int(Q.shape[1]))
    wfilter = wire_filter(fpayload)
    expected = 0

    for qid in map(int, my_query_ids):
        parts = yield from route.route_approx(ctx, Q[qid], config.n_probe, query_id=qid)
        report.fanouts.append(len(parts))
        with ctx.span("dispatch"):
            for pid_part in parts:
                core = workgroups.next_core(pid_part)
                report.dispatch_counts[core] += 1
                report.tasks_sent += 1
                report.batches_sent += 1
                node = config.node_of_core(core)
                # workers answer to this owner's mailbox, not their own node's
                yield from send(
                    ctx,
                    node_mailboxes[node],
                    make_task([qid], int(pid_part), Q[qid : qid + 1], wfilter, ctx.mailbox),
                    same_node=node == node_id,
                )
                expected += 1

    # collect results for this owner's queries
    for _ in range(expected):
        with ctx.span("reduce"):
            req = yield from ctx.recv(ctx.mailbox, tag=TAG_RESULT)
            _, (qid,), _pid_part, (d,), (ids,) = req.payload
            yield from ctx.compute(ctx.cost.compare_cost(len(d) + k), kind="merge")
            results.update(qid, d, ids)

    # all owners done => all tasks answered => safe to shut workers down
    with ctx.span("drain"):
        yield from owner_comm.barrier(ctx)
        if owner_comm.rank(ctx) == 0:
            # one End of Queries per worker *thread* (the master sends one
            # per node): modelled traffic of this mode, not duplication
            for mailbox in node_mailboxes:
                for _ in range(config.threads_per_node):
                    yield from send(ctx, mailbox, END)
    return report
