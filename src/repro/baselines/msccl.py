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

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.plancache import get_cache, plan_key
from ..ir.dag import DependencyDAG, build_dag
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
from .common import (
    TBGroup,
    algorithm_level_order,
    stripe_microbatches,
    tasks_by_stage,
)


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
        # Structure once per (fabric, program), TB programs once per
        # micro-batch count, as for NCCL.  to_source() does not encode
        # the manual stage division, so both keys add the stages.
        cache = get_cache()
        fingerprint = cluster.fingerprint()
        source = program.to_source()
        stages = repr(program.stage_starts)
        structure_key = plan_key(
            self.name, "structure", fingerprint, source, stages
        )
        dag, stage_groups = cache.lowered(
            structure_key, build=lambda: self._build(cluster, program)
        )
        n_mb, chunk_bytes = plan_microbatches(
            buffer_bytes, program.nchunks, max_microbatches=self.max_microbatches
        )
        tb_programs = cache.lowered(
            structure_key,
            n_mb,
            self.nwarps,
            self.instances,
            build=lambda: self._lower(stage_groups, n_mb),
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
        plan.cache_key = plan_key(
            self.name,
            repr(self),
            fingerprint,
            source,
            stages,
            float(buffer_bytes),
        )
        return plan

    def _build(
        self, cluster: Cluster, program: AlgoProgram
    ) -> Tuple[DependencyDAG, List[List[TBGroup]]]:
        """The program's DAG and, per stage, its connection-based TB
        groups (label suffixes) in TB order."""
        dag = build_dag(program.transfers, cluster)
        stage_groups: List[List[TBGroup]] = []
        for stage_tasks in tasks_by_stage(dag, program.stage_starts):
            sends_of: Dict[int, List[TransmissionTask]] = defaultdict(list)
            recvs_of: Dict[int, List[TransmissionTask]] = defaultdict(list)
            for t in stage_tasks:
                sends_of[t.src].append(t)
                recvs_of[t.dst].append(t)
            groups: List[TBGroup] = []
            for rank in range(cluster.world_size):
                groups.extend(
                    self._rank_stage_groups(
                        rank, sends_of.get(rank, []), recvs_of.get(rank, [])
                    )
                )
            stage_groups.append(groups)
        return dag, stage_groups

    @staticmethod
    def _rank_stage_groups(
        rank: int,
        sends: List[TransmissionTask],
        recvs: List[TransmissionTask],
    ) -> List[TBGroup]:
        """Connection-based TBs for one rank within one stage."""
        if not sends and not recvs:
            return []
        send_peers = sorted({t.dst for t in sends})
        recv_peers = sorted({t.src for t in recvs})
        if len(send_peers) == 1 and len(recv_peers) == 1:
            # Ring pattern: one fused TB drives both connection endpoints.
            return [(rank, "ring", sends + recvs)]
        return [
            (rank, f"send->r{peer}", [t for t in sends if t.dst == peer])
            for peer in send_peers
        ] + [
            (rank, f"recv<-r{peer}", [t for t in recvs if t.src == peer])
            for peer in recv_peers
        ]

    def _lower(
        self, stage_groups: List[List[TBGroup]], n_mb: int
    ) -> List[TBProgram]:
        """Every instance runs every stage's groups on its micro-batches."""
        tb_programs: List[TBProgram] = []
        count: Dict[int, int] = defaultdict(int)
        for instance, mbs in enumerate(stripe_microbatches(n_mb, self.instances)):
            for stage_index, groups in enumerate(stage_groups):
                for rank, suffix, tasks in groups:
                    tb_programs.append(
                        TBProgram(
                            rank=rank,
                            tb_index=count[rank],
                            invocations=algorithm_level_order(tasks, rank, mbs),
                            nwarps=self.nwarps,
                            label=f"msccl:i{instance}:s{stage_index}:{suffix}",
                        )
                    )
                    count[rank] += 1
        return tb_programs


__all__ = ["MSCCLBackend"]
