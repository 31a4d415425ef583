"""Residual-collective replanning on a degraded topology.

Given a :class:`~repro.faults.checkpoint.CollectiveCheckpoint` and the
set of permanently dead edges, this module rebuilds a *resume plan* for
only the remaining demand:

1. **Residue extraction** — every ``(task, micro-batch)`` instance not in
   the checkpoint's completion set.  Completion is closed under DAG
   predecessors, so the residue is closed under successors: each chunk's
   step-chain is truncated at its last delivered hop and the remainder is
   a well-formed sub-collective.
2. **Chunk flattening** — residual instances are re-labelled into a
   synthetic chunk space (``mb * chunks_per_microbatch + chunk``) with
   steps doubled, so one :func:`~repro.ir.dag.build_dag` pass over the
   flattened transfers reconstructs exactly the intra-micro-batch hazard
   chains (RAW/WAW/WAR per slot) while keeping micro-batches independent.
   The resume plan then runs as a single-micro-batch plan.
3. **Dead-edge rerouting** — the cluster's routes are fixed per rank
   pair, so a transfer whose route crosses a dead edge is rewritten as a
   two-hop relay through an intermediate rank with live routes on both
   legs: a ``relay-in`` copy (even step slot) into relay scratch and a
   ``relay-out`` carrying the original op (odd step slot).  If some
   transfer has neither a live direct route nor any live relay, the
   surviving fabric cannot realize the residue — :class:`ReplanInfeasible`
   with ``partitioned=True``.
4. **Pipeline re-entry** — the residual DAG is built against the degraded
   cluster, scheduled (HPDS, or the plan's ablation scheduler), given a
   state-based TB allocation and lowered to TB programs: the same stack
   as a primary plan, minus DSL parsing/validation.

Every resume task carries a
:class:`~repro.analysis.verify_delivery.ResumeTaskMeta` record tying it
back to the original instance it serves, which is what the semantic
delivery verifier uses to prove the stitched execution exact-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis.verify_delivery import (
    DIRECT,
    RELAY_IN,
    RELAY_OUT,
    ResumeTaskMeta,
)
from ..core.compiler import resolve_scheduler
from ..core.kernelgen import lower_to_programs
from ..core.tballoc import allocate_tbs
from ..ir.dag import build_dag
from ..ir.task import CommType, Transfer
from ..lang.builder import AlgoProgram
from ..obs.metrics import current_registry
from ..obs.spans import span as obs_span
from ..runtime.plan import ExecutionPlan
from ..topology import Cluster
from .checkpoint import CollectiveCheckpoint


class ReplanInfeasible(RuntimeError):
    """The residual collective cannot be realized on the live fabric."""

    def __init__(
        self,
        message: str,
        partitioned: bool = False,
        unreachable: Tuple[int, int] = (-1, -1),
    ) -> None:
        super().__init__(message)
        self.partitioned = partitioned
        self.unreachable = unreachable


@dataclass
class ResumePlan:
    """A compiled residual collective plus its semantic metadata."""

    plan: ExecutionPlan
    metas: List[ResumeTaskMeta]
    checkpoint: CollectiveCheckpoint
    dead_edges: Tuple[str, ...]
    residual_instances: int
    relay_instances: int


def _route_alive(
    cluster: Cluster, src: int, dst: int, dead: frozenset
) -> bool:
    return not any(
        edge in dead for edge in cluster.path(src, dst).edges
    )


def find_relay(
    cluster: Cluster,
    src: int,
    dst: int,
    dead: Iterable[str],
    exclude: Iterable[int] = (),
) -> Optional[int]:
    """Cheapest intermediate rank with live routes on both legs.

    Candidates are scored by summed route latency (preferring intra-node
    detours), tie-broken by rank id for determinism.  ``exclude`` drops
    ranks whose relay scratch slot for this chunk is already claimed by
    another residual instance (one scratch slot per ``(relay, chunk,
    micro-batch)``).  Returns ``None`` when no rank can bridge
    ``src -> dst`` on live edges.
    """
    dead = frozenset(dead)
    excluded = frozenset(exclude)
    best: Optional[Tuple[float, int]] = None
    for rank in range(cluster.world_size):
        if rank == src or rank == dst or rank in excluded:
            continue
        if not _route_alive(cluster, src, rank, dead):
            continue
        if not _route_alive(cluster, rank, dst, dead):
            continue
        cost = (
            cluster.path(src, rank).latency_us
            + cluster.path(rank, dst).latency_us
        )
        if best is None or (cost, rank) < best:
            best = (cost, rank)
    return best[1] if best is not None else None


def build_resume_plan(
    plan: ExecutionPlan,
    checkpoint: CollectiveCheckpoint,
    dead_edges: Sequence[str],
    dead_edge_factor: float = 0.05,
    scheduler: str = "hpds",
    nwarps: int = 16,
) -> ResumePlan:
    """Compile the checkpoint's residual demand for the degraded fabric.

    Args:
        plan: the primary plan the checkpoint belongs to.
        checkpoint: delivered progress; its complement is replanned.
        dead_edges: permanently dead contention edges.  Residual routes
            never traverse them (relays detour around), so
            ``dead_edge_factor`` only derates their nominal capacity in
            the resume cluster for completeness.
        scheduler: ``"hpds"`` (default) or ``"rr"``.
        nwarps: warps per generated resume TB.

    Raises:
        ReplanInfeasible: the surviving topology cannot deliver some
            residual transfer (``partitioned=True`` when no relay exists).
        ValueError: ``scheduler`` names no registered scheduling pass.
    """
    schedule = resolve_scheduler(scheduler)
    with obs_span("recovery_replan", plan=plan.name) as sp:
        residue = checkpoint.residual_instances()
        if not residue:
            raise ReplanInfeasible(
                "nothing to replan: checkpoint shows the collective complete"
            )
        dead = frozenset(dead_edges)
        cluster = plan.cluster
        degraded = (
            cluster.degraded(sorted(dead), dead_edge_factor)
            if dead
            else cluster
        )
        stride = plan.chunks_per_microbatch
        transfers: List[Transfer] = []
        metas: List[ResumeTaskMeta] = []
        relays = 0
        # One scratch slot per (relay, chunk, micro-batch): two residual
        # instances moving the same chunk may not share a relay, or their
        # relay hops would collide on one hazard slot and the scratch
        # copy of one instance could be forwarded for the other.
        claimed_scratch: set = set()
        for task_id, mb in residue:
            task = plan.dag.task(task_id)
            flat_chunk = mb * stride + task.chunk
            # Steps doubled: direct hops land on even slots, relay exit
            # hops on odd slots, preserving every original hazard order.
            flat_step = task.step * 2
            if _route_alive(cluster, task.src, task.dst, dead):
                transfers.append(
                    Transfer(
                        src=task.src, dst=task.dst, step=flat_step,
                        chunk=flat_chunk, op=task.op,
                    )
                )
                metas.append(
                    ResumeTaskMeta(
                        orig_task_id=task_id, mb=mb, kind=DIRECT,
                        src=task.src, dst=task.dst, chunk=task.chunk,
                        op=task.op,
                    )
                )
                continue
            taken = {
                rank
                for rank, chunk, taken_mb in claimed_scratch
                if chunk == task.chunk and taken_mb == mb
            }
            relay = find_relay(
                cluster, task.src, task.dst, dead, exclude=taken
            )
            if relay is None:
                if find_relay(cluster, task.src, task.dst, dead) is not None:
                    # Bridgeable, but every candidate's scratch slot for
                    # this chunk is claimed — not a partition; the caller
                    # escalates to ring fallback instead of erroring out.
                    raise ReplanInfeasible(
                        f"residual transfer {task.src}->{task.dst} (task "
                        f"{task_id}, chunk {task.chunk}) exhausted all "
                        f"{len(taken)} collision-free relay slots"
                    )
                raise ReplanInfeasible(
                    f"residual transfer {task.src}->{task.dst} (task "
                    f"{task_id}, chunk {task.chunk}) has no live route "
                    f"or relay around dead edges {sorted(dead)}: "
                    f"topology is partitioned",
                    partitioned=True,
                    unreachable=(task.src, task.dst),
                )
            claimed_scratch.add((relay, task.chunk, mb))
            relays += 1
            transfers.append(
                Transfer(
                    src=task.src, dst=relay, step=flat_step,
                    chunk=flat_chunk, op=CommType.RECV,
                )
            )
            metas.append(
                ResumeTaskMeta(
                    orig_task_id=task_id, mb=mb, kind=RELAY_IN,
                    src=task.src, dst=relay, chunk=task.chunk,
                    op=CommType.RECV, relay_rank=relay,
                )
            )
            transfers.append(
                Transfer(
                    src=relay, dst=task.dst, step=flat_step + 1,
                    chunk=flat_chunk, op=task.op,
                )
            )
            metas.append(
                ResumeTaskMeta(
                    orig_task_id=task_id, mb=mb, kind=RELAY_OUT,
                    src=relay, dst=task.dst, chunk=task.chunk,
                    op=task.op, relay_rank=relay,
                )
            )

        header = plan.program.header
        residual_program = AlgoProgram.create(
            nranks=plan.program.nranks,
            collective=plan.program.collective,
            name=f"{plan.program.name}-residual",
            gpus_per_node=header.gpus_per_node,
            nics_per_node=header.nics_per_node,
        )
        residual_program.transfers.extend(transfers)

        dag = build_dag(transfers, degraded)
        pipeline = schedule(dag)
        pipeline.check_all(dag)
        assignments = allocate_tbs(dag, pipeline, pipelining_allowance=1)
        tb_programs = lower_to_programs(assignments, 1, nwarps=nwarps)
        resume_exec = ExecutionPlan(
            name=f"{plan.name}+replan",
            cluster=degraded,
            program=residual_program,
            dag=dag,
            n_microbatches=1,
            chunk_bytes=plan.chunk_bytes,
            tb_programs=tb_programs,
            mode=plan.mode,
            config=plan.config,
            # The payload the resume plan synchronizes is the residue —
            # relay entry hops move extra wire bytes but no new payload.
            chunks_per_microbatch=max(1, len(residue)),
        )
        sp.set(
            residual=len(residue),
            relays=relays,
            tbs=len(tb_programs),
            dead_edges=len(dead),
        )
        registry = current_registry()
        if registry is not None:
            registry.inc("recovery_replans_total")
            registry.set("recovery_residual_instances", len(residue))
            registry.set("recovery_relay_instances", relays)
    return ResumePlan(
        plan=resume_exec,
        metas=metas,
        checkpoint=checkpoint,
        dead_edges=tuple(sorted(dead)),
        residual_instances=len(residue),
        relay_instances=relays,
    )


__all__ = [
    "ReplanInfeasible",
    "ResumePlan",
    "build_resume_plan",
    "find_relay",
]
