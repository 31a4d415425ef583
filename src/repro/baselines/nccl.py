"""NCCL-like backend: vendor-standard algorithms, static execution.

Models the baseline of section 5: NCCL runs its own fixed algorithms
(ring; optionally double binary tree for AllReduce) with

* **algorithm-level execution** — every channel lazily re-executes the
  whole algorithm per micro-batch (section 2.1), so dependency bubbles
  repeat every micro-batch;
* **connection-based TB allocation** — one fused TB per rank per channel
  drives the rank's ring sends and receives;
* **channel data-slicing** — each channel carries ``1/nchannels`` of the
  data over its *own* ring.  Per-channel rings rotate the intra-node GPU
  order so their inter-node crossings land on different NICs — this is
  how real NCCL engages every NIC of a multi-rail server.

Internally the channels live in one combined plan: channel ``k``'s ring
uses chunk ids offset by ``k * nranks`` so the dependency analysis keeps
the channels data-independent.

NCCL kernels are compiled, not interpreted, so the plan runs in kernel
mode (one-time load cost, no per-primitive decode).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.ring import (
    ring_allgather,
    ring_allreduce,
    ring_reducescatter,
)
from ..algorithms.tree import double_binary_tree_allreduce
from ..core.plancache import plan_key
from ..ir.dag import build_dag
from ..ir.task import Collective, TransmissionTask, Transfer
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
from .common import algorithm_level_order


def channel_permutation(cluster: Cluster, channel: int) -> List[int]:
    """Ring rank order for one channel: rotate each node's local order.

    Rotating by ``channel * gpus_per_nic`` GPUs moves the node-boundary
    position onto a different GPU — and therefore a different NIC — per
    channel, spreading the rings' inter-node hops across all rails.
    """
    shift = (channel * cluster.gpus_per_nic) % cluster.gpus_per_node
    order: List[int] = []
    for node in range(cluster.nodes):
        for i in range(cluster.gpus_per_node):
            local = (i + shift) % cluster.gpus_per_node
            order.append(node * cluster.gpus_per_node + local)
    return order


def permute_transfers(
    transfers: Sequence[Transfer],
    permutation: Sequence[int],
    chunk_offset: int,
) -> List[Transfer]:
    """Relabel a canonical algorithm onto a rank permutation.

    Ranks *and* chunk ids map through the permutation (a chunk id is the
    identity of its owning rank), then chunk ids shift by
    ``chunk_offset`` into the channel's private slice of the extended
    chunk space.
    """
    nranks = len(permutation)
    relabeled = []
    for t in transfers:
        if t.chunk >= nranks:
            raise ValueError(
                f"cannot permute chunk {t.chunk} of a {nranks}-rank program"
            )
        relabeled.append(
            Transfer(
                src=permutation[t.src],
                dst=permutation[t.dst],
                step=t.step,
                chunk=permutation[t.chunk] + chunk_offset,
                op=t.op,
            )
        )
    return relabeled


@dataclass
class NCCLBackend:
    """The NCCL baseline: standard algorithms + static scheduling.

    Args:
        nchannels: parallel channel rings (Table 2 default: 4).
        nwarps: warps per TB (NCCL's default 512-thread blocks = 16
            warps).
        algorithm: ``"ring"`` or ``"tree"`` (tree applies to AllReduce).
        max_microbatches: cap on micro-batch count per plan.
        config: runtime constants override.
    """

    nchannels: int = 4
    nwarps: int = 16
    algorithm: str = "ring"
    max_microbatches: int = 32
    config: Optional[SimConfig] = None

    name = "NCCL"

    def select_algorithm(
        self, cluster: Cluster, collective: Collective
    ) -> AlgoProgram:
        """NCCL's built-in (canonical, channel-0) algorithm choice."""
        nranks = cluster.world_size
        if collective is Collective.ALLGATHER:
            return ring_allgather(nranks)
        if collective is Collective.REDUCESCATTER:
            return ring_reducescatter(nranks)
        if collective is Collective.ALLREDUCE:
            if self.algorithm == "tree":
                return double_binary_tree_allreduce(nranks)
            return ring_allreduce(nranks)
        raise ValueError(f"unsupported collective {collective}")

    def plan(
        self,
        cluster: Cluster,
        collective: Collective,
        buffer_bytes: float,
        program: Optional[AlgoProgram] = None,
    ) -> ExecutionPlan:
        """Build the execution plan for one collective call.

        ``program`` is accepted for API symmetry with the other backends
        but ignored: NCCL cannot execute custom algorithms (that is
        MSCCL's extension).
        """
        del program
        with obs_span("plan", backend=self.name) as sp:
            plan = self._plan(cluster, collective, buffer_bytes)
            sp.set(
                n_microbatches=plan.n_microbatches,
                tbs=len(plan.tb_programs),
            )
        return plan

    def _plan(
        self,
        cluster: Cluster,
        collective: Collective,
        buffer_bytes: float,
    ) -> ExecutionPlan:
        base = self.select_algorithm(cluster, collective)
        nranks = cluster.world_size
        if base.nranks != nranks:
            raise ValueError(
                f"algorithm is for {base.nranks} ranks, cluster has {nranks}"
            )

        # Union of all channel rings in an extended chunk space.
        combined = AlgoProgram(header=base.header)
        combined.header.algo_name = base.name
        channel_of_task: List[int] = []
        for channel in range(self.nchannels):
            perm = channel_permutation(cluster, channel)
            for t in permute_transfers(base.transfers, perm, channel * nranks):
                combined.transfers.append(t)
                channel_of_task.append(channel)

        dag = build_dag(combined.transfers, cluster)
        chunks_per_mb = nranks * self.nchannels
        n_mb, chunk_bytes = plan_microbatches(
            buffer_bytes, chunks_per_mb, max_microbatches=self.max_microbatches
        )

        # Each channel's ring kernel is a recvCopySend loop: its send and
        # receive directions stream *concurrently*.  The serial-TB runtime
        # models that as two cooperating halves of the one fused TB.
        # Tasks are bucketed once by (channel, rank), in DAG order.
        sends_of: Dict[Tuple[int, int], List[TransmissionTask]] = defaultdict(list)
        recvs_of: Dict[Tuple[int, int], List[TransmissionTask]] = defaultdict(list)
        for t in dag.tasks:
            channel = channel_of_task[t.task_id]
            sends_of[channel, t.src].append(t)
            recvs_of[channel, t.dst].append(t)
        tb_programs: List[TBProgram] = []
        for rank in range(nranks):
            count = 0
            for channel in range(self.nchannels):
                sends = sends_of.get((channel, rank))
                recvs = recvs_of.get((channel, rank))
                for tasks, half in ((sends, "send"), (recvs, "recv")):
                    if not tasks:
                        continue
                    tb_programs.append(
                        TBProgram(
                            rank=rank,
                            tb_index=count,
                            invocations=algorithm_level_order(
                                tasks, rank, range(n_mb)
                            ),
                            nwarps=self.nwarps,
                            label=f"nccl:ch{channel}:{half}",
                        )
                    )
                    count += 1
        plan = ExecutionPlan(
            name=f"NCCL/{base.name}",
            cluster=cluster,
            program=combined,
            dag=dag,
            n_microbatches=n_mb,
            chunk_bytes=chunk_bytes,
            tb_programs=tb_programs,
            mode=ExecMode.KERNEL,
            # Lazy algorithm-level execution re-uses one buffer slot per
            # connection each iteration: no sender run-ahead.
            config=self.config or SimConfig(fifo_depth=1),
            chunks_per_microbatch=chunks_per_mb,
        )
        plan.cache_key = plan_key(
            self.name,
            repr(self),
            cluster.fingerprint(),
            collective.value,
            float(buffer_bytes),
        )
        return plan


__all__ = ["NCCLBackend", "channel_permutation", "permute_transfers"]
