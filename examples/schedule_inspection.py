#!/usr/bin/env python3
"""Inspect how ResCCL schedules an algorithm: DAG, pipeline, TB timeline.

A guided tour of the compiler internals on the ring AllGather of the
paper's Figure 5: the dependency DAG, the HPDS sub-pipelines, the static
timeline analysis behind TB allocation, and an ASCII activity chart of
each thread block's window — plus the HPDS vs round-robin comparison.
"""

from repro import multi_node
from repro.algorithms import hm_allreduce, ring_allgather
from repro.core import (
    ResCCLCompiler,
    allocate_tbs,
    build_endpoint_groups,
    hpds_schedule,
    rr_schedule,
    timeline_slots,
)
from repro.ir.dag import build_dag
from repro.topology import single_node


def show_figure5_example() -> None:
    """The paper's running example: 4-rank ring AllGather."""
    print("=== Figure 5 example: ring AllGather, 4 ranks ===\n")
    cluster = single_node(4)
    program = ring_allgather(4)
    dag = build_dag(program.transfers, cluster)

    print(f"Dependency DAG: {len(dag)} tasks, {dag.edge_count} data edges, "
          f"critical path {dag.critical_path_length()}")
    for task in dag.tasks:
        deps = sorted(dag.preds[task.task_id])
        print(f"  v{task.task_id}: chunk {task.chunk} r{task.src}->r{task.dst} "
              f"step {task.step}" + (f"  needs {deps}" if deps else ""))

    pipeline = hpds_schedule(dag)
    print(f"\nHPDS schedule ({pipeline.depth} sub-pipelines):")
    for sp in pipeline.sub_pipelines:
        tasks = ", ".join(
            f"v{t}(c{dag.task(t).chunk})" for t in sp.task_ids
        )
        print(f"  sub-pipeline {sp.index}: {tasks}")


def show_tb_timeline() -> None:
    """ASCII activity windows of rank 0's TBs for HM AllReduce 2x4."""
    print("\n=== TB timeline: HM AllReduce, 2 servers x 4 GPUs ===\n")
    cluster = multi_node(2, 4)
    compiled = ResCCLCompiler().compile(hm_allreduce(2, 4), cluster)
    slots = timeline_slots(compiled.dag, compiled.pipeline)
    horizon = max(slots.values()) + 1
    print(f"timeline: {horizon} slots   (#=active window)")
    assignments = allocate_tbs(compiled.dag, compiled.pipeline)
    for tb in (a for a in assignments if a.rank == 0):
        lo, hi = tb.window
        bar = "".join(
            "#" if lo <= slot <= hi else "." for slot in range(horizon)
        )
        print(f"  rank0 [{bar}] {tb.label}")


def show_scheduler_comparison() -> None:
    """HPDS vs round-robin pipeline shape (the Figure 10b ablation)."""
    print("\n=== HPDS vs round-robin (Figure 10b) ===\n")
    cluster = multi_node(2, 4)
    dag = build_dag(hm_allreduce(2, 4).transfers, cluster)
    for schedule in (hpds_schedule, rr_schedule):
        pipeline = schedule(dag)
        sizes = [len(sp) for sp in pipeline.sub_pipelines]
        print(f"  {pipeline.scheduler:<5} depth={pipeline.depth:<3} "
              f"sub-pipeline sizes={sizes}")


def main() -> None:
    show_figure5_example()
    show_tb_timeline()
    show_scheduler_comparison()


if __name__ == "__main__":
    main()
