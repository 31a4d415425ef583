"""MSCCL-like backend: custom algorithms, stage-level interpreted execution.

Models Microsoft's MSCCL as the paper characterizes it (sections 2.1-2.2):

* executes **custom** algorithms (expert-designed or synthesized), unlike
  NCCL;
* **stage-level execution** — the algorithm is manually partitioned into
  stages (``AlgoProgram.stage_starts``); each stage gets its *own*
  dedicated channels (TBs and buffers) and internally runs
  algorithm-level; stages pipeline across micro-batches only through the
  data dependencies between their tasks.  The extra per-stage channels
  are the resource bottleneck the paper measures: a stage's TBs occupy
  SMs for the whole kernel but work only while their stage is active;
* **connection-based TB allocation** inside each stage — a fused TB when
  the rank has exactly one send peer and one receive peer in the stage
  (ring pattern), otherwise one TB per send connection plus one per
  receive connection (full-mesh pattern);
* a **runtime interpreter** — every primitive invocation pays a decode
  cost (Figure 3's overhead), and TBs are not released until the whole
  kernel finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.plancache import plan_key
from ..ir.dag import build_dag
from ..ir.task import TransmissionTask
from ..lang.builder import AlgoProgram
from ..obs.spans import span as obs_span
from ..runtime.plan import (
    ExecMode,
    ExecutionPlan,
    SimConfig,
    TBProgram,
    plan_microbatches,
)
from ..topology import Cluster
from .common import algorithm_level_order, stripe_microbatches, tasks_by_stage


@dataclass
class MSCCLBackend:
    """The MSCCL baseline: stage-level, interpreted, channel-heavy.

    Args:
        instances: channel instances striping micro-batches (Table 2's
            "Default/4" instance configuration).
        nwarps: warps per TB.
        max_microbatches: cap on micro-batch count per plan.
        config: runtime constants override.
    """

    instances: int = 1
    nwarps: int = 8
    max_microbatches: int = 32
    config: Optional[SimConfig] = None

    name = "MSCCL"

    def plan(
        self,
        cluster: Cluster,
        program: AlgoProgram,
        buffer_bytes: float,
    ) -> ExecutionPlan:
        """Build the stage-level execution plan for a custom algorithm."""
        with obs_span("plan", backend=self.name) as sp:
            plan = self._plan(cluster, program, buffer_bytes)
            sp.set(
                n_microbatches=plan.n_microbatches,
                tbs=len(plan.tb_programs),
            )
        return plan

    def _plan(
        self,
        cluster: Cluster,
        program: AlgoProgram,
        buffer_bytes: float,
    ) -> ExecutionPlan:
        if program.nranks != cluster.world_size:
            raise ValueError(
                f"algorithm is for {program.nranks} ranks, cluster has "
                f"{cluster.world_size}"
            )
        dag = build_dag(program.transfers, cluster)
        n_mb, chunk_bytes = plan_microbatches(
            buffer_bytes, program.nchunks, max_microbatches=self.max_microbatches
        )
        instance_mbs = stripe_microbatches(n_mb, self.instances)
        stages = tasks_by_stage(dag, program.stage_starts)

        tb_programs: List[TBProgram] = []
        per_rank_count = [0] * cluster.world_size

        def add_tb(rank: int, invocations, label: str) -> None:
            if not invocations:
                return
            tb_programs.append(
                TBProgram(
                    rank=rank,
                    tb_index=per_rank_count[rank],
                    invocations=invocations,
                    nwarps=self.nwarps,
                    label=label,
                )
            )
            per_rank_count[rank] += 1

        for instance, mbs in enumerate(instance_mbs):
            if not mbs:
                continue
            for stage_index, stage_tasks in enumerate(stages):
                if not stage_tasks:
                    continue
                for rank in range(cluster.world_size):
                    self._emit_rank_stage_tbs(
                        rank, stage_index, stage_tasks, mbs, instance, add_tb
                    )
        plan = ExecutionPlan(
            name=f"MSCCL/{program.name}",
            cluster=cluster,
            program=program,
            dag=dag,
            n_microbatches=n_mb,
            chunk_bytes=chunk_bytes,
            tb_programs=tb_programs,
            mode=ExecMode.INTERPRETER,
            # Stage-level execution is algorithm-level inside each stage:
            # one buffer slot per connection, no sender run-ahead.
            config=self.config or SimConfig(fifo_depth=1),
        )
        # to_source() does not encode the manual stage division.
        plan.cache_key = plan_key(
            self.name,
            repr(self),
            cluster.fingerprint(),
            program.to_source(),
            repr(program.stage_starts),
            float(buffer_bytes),
        )
        return plan

    def _emit_rank_stage_tbs(
        self,
        rank: int,
        stage_index: int,
        stage_tasks: List[TransmissionTask],
        mbs: List[int],
        instance: int,
        add_tb,
    ) -> None:
        """Connection-based TBs for one rank within one stage."""
        sends = [t for t in stage_tasks if t.src == rank]
        recvs = [t for t in stage_tasks if t.dst == rank]
        if not sends and not recvs:
            return
        send_peers = sorted({t.dst for t in sends})
        recv_peers = sorted({t.src for t in recvs})
        label = f"msccl:i{instance}:s{stage_index}"
        if len(send_peers) == 1 and len(recv_peers) == 1:
            # Ring pattern: one fused TB drives both connection endpoints.
            add_tb(
                rank,
                algorithm_level_order(sends + recvs, rank, mbs),
                f"{label}:ring",
            )
            return
        for peer in send_peers:
            peer_tasks = [t for t in sends if t.dst == peer]
            add_tb(
                rank,
                algorithm_level_order(peer_tasks, rank, mbs),
                f"{label}:send->r{peer}",
            )
        for peer in recv_peers:
            peer_tasks = [t for t in recvs if t.src == peer]
            add_tb(
                rank,
                algorithm_level_order(peer_tasks, rank, mbs),
                f"{label}:recv<-r{peer}",
            )


__all__ = ["MSCCLBackend"]
