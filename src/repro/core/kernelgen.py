"""Lightweight kernel generation (section 4.5).

ResCCL lowers the scheduled primitive pipeline into directly executable
kernels instead of interpreting the algorithm at runtime.  The paradigm
has three dimensions:

* **Rank dimension** — the complete primitive set each GPU executes
  (one generated kernel per rank);
* **TB dimension** — the primitives assigned to each thread block (one
  ``switch`` arm per TB);
* **Pipeline dimension** — within a TB, primitives grouped by pipeline
  index, each cycling through every micro-batch invocation (task-level
  execution: ``for task in pipeline order: for mb in micro-batches``).

:func:`lower_to_programs` produces the simulator-executable form;
:func:`render_kernel_source` emits a human-readable CUDA-style listing of
the same kernel, used by the examples and documentation.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List

from ..ir.dag import DependencyDAG
from ..ir.primitives import PrimKind
from ..ir.task import CommType
from ..obs.spans import span as obs_span
from ..runtime.plan import Invocation, Side, TBProgram
from .tballoc import TBAssignment


def lower_to_programs(
    assignments: List[TBAssignment],
    n_microbatches: int,
    nwarps: int,
) -> List[TBProgram]:
    """Lower TB assignments into task-level invocation programs."""
    with obs_span("kernelgen") as sp:
        programs: List[TBProgram] = []
        per_rank: Dict[int, int] = {}
        for assignment in assignments:
            invocations = [
                Invocation(task_id=task_id, side=side, mb=mb)
                for task_id, side in assignment.ordered_sides()
                for mb in range(n_microbatches)
            ]
            index = per_rank.get(assignment.rank, 0)
            per_rank[assignment.rank] = index + 1
            programs.append(
                TBProgram(
                    rank=assignment.rank,
                    tb_index=index,
                    invocations=invocations,
                    nwarps=nwarps,
                    label=assignment.label,
                )
            )
        sp.set(
            tb_programs=len(programs),
            invocations=sum(len(p.invocations) for p in programs),
        )
    return programs


def _primitive_name(side: Side, op: CommType) -> str:
    if side is Side.SEND:
        return PrimKind.SEND.value
    if op is CommType.RRC:
        return PrimKind.RECV_REDUCE_COPY.value
    return PrimKind.RECV.value


def render_kernel_source(
    rank: int,
    tb_programs: List[TBProgram],
    dag: DependencyDAG,
    algo_name: str = "algo",
) -> str:
    """CUDA-style listing of one rank's generated kernel.

    Renders lowered programs (:func:`lower_to_programs`), so the listing
    shows a plan that actually runs.  It makes the three generation
    dimensions visible: the kernel is the rank dimension, each ``case``
    arm is a TB, and each loop nest is one pipeline-dimension entry — a
    run of consecutive invocations of one ``(task, side)`` — cycling
    through its micro-batches.
    """
    lines = [
        f"// ResCCL generated kernel — {algo_name}, rank {rank}",
        "// Direct execution: no runtime interpreter, one-time pipeline load.",
        f"__global__ void resccl_{algo_name.replace('-', '_')}_r{rank}"
        "(ResCCLComm *comm) {",
        "  load_pipeline(comm);  // t_Load, paid once",
        "  switch (blockIdx.x) {",
    ]
    for tb in (p for p in tb_programs if p.rank == rank):
        lines.append(f"  case {tb.tb_index}:  // {tb.label}")
        entries = groupby(tb.invocations, key=lambda i: (i.task_id, i.side))
        for pipeline_index, ((task_id, side), run) in enumerate(entries):
            task = dag.task(task_id)
            prim = _primitive_name(side, task.op)
            peer = task.dst if side is Side.SEND else task.src
            lines.append(
                f"    // pipeline {pipeline_index}: task {task_id} "
                f"chunk {task.chunk} ({task.link})"
            )
            lines.append(
                f"    for (int mb = 0; mb < {sum(1 for _ in run)}; ++mb)"
            )
            lines.append(
                f"      {prim}(comm, /*peer=*/{peer}, "
                f"/*chunk=*/{task.chunk}, mb);"
            )
        lines.append("    break;")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = ["lower_to_programs", "render_kernel_source"]
