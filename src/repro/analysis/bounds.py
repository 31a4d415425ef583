"""A physics lower bound on a plan's completion time.

After the bandwidth and latency bounds of *Synthesizing Optimal
Collective Algorithms* (Cai et al.), the bound is the larger of:

* **per-edge cut** — the bytes every task routes over an edge, across
  all micro-batches, over the edge's raw ``Cluster.edge_capacity``,
  maxed over edges;
* **dependency chain** — the longest ``dag.preds`` chain, each task
  costed at ``path.latency_us * protocol.latency_factor`` plus
  ``chunk_bytes`` over its route's bottleneck capacity.  The simulator
  starts a task only once every predecessor has been received.

Contention, TB copy caps, protocol efficiency, credits and kernel loads
only add time, so no simulation beats the bound (``tests/test_bounds.py``
checks this under both fidelity presets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..runtime.plan import ExecutionPlan


@dataclass(frozen=True)
class LowerBound:
    """A plan's completion-time floor and the term that sets it.

    Attributes:
        bound_us: ``max(cut_us, chain_us)``.
        cut_us: the busiest edge's bytes over its capacity.
        chain_us: the costliest dependency chain.
        edge: the edge binding ``cut_us`` (``""`` for an empty plan).
    """

    bound_us: float
    cut_us: float
    chain_us: float
    edge: str

    def percent(self, completion_us: float) -> float:
        """``completion_us`` as a percentage of the bound (100 = optimal)."""
        return 100.0 * completion_us / self.bound_us if self.bound_us else 0.0


def lower_bound(plan: ExecutionPlan) -> LowerBound:
    """The per-edge cut and dependency-chain bound of ``plan``."""
    cluster = plan.cluster
    dag = plan.dag
    chunk_bytes = plan.chunk_bytes
    latency_factor = plan.config.protocol.latency_factor
    tasks_on: Dict[str, int] = {}
    task_us: List[float] = []
    for task in dag.tasks:
        path = cluster.path(task.src, task.dst)
        for edge in path.edges:
            tasks_on[edge] = tasks_on.get(edge, 0) + 1
        bottleneck = min(cluster.edge_capacity(edge) for edge in path.edges)
        task_us.append(
            path.latency_us * latency_factor + chunk_bytes / bottleneck
        )

    edge_bytes = chunk_bytes * plan.n_microbatches
    cut_us, edge = 0.0, ""
    for name in sorted(tasks_on):
        us = tasks_on[name] * edge_bytes / cluster.edge_capacity(name)
        if us > cut_us:
            cut_us, edge = us, name

    finish = [0.0] * len(task_us)
    preds = dag.preds
    for tid in dag.topological_order():
        finish[tid] = task_us[tid] + max(
            (finish[p] for p in preds[tid]), default=0.0
        )
    chain_us = max(finish, default=0.0)
    return LowerBound(
        bound_us=max(cut_us, chain_us), cut_us=cut_us, chain_us=chain_us,
        edge=edge,
    )


__all__ = ["LowerBound", "lower_bound"]
