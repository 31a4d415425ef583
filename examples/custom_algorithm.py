#!/usr/bin/env python3
"""Author a collective algorithm in textual ResCCLang, compile, inspect.

Shows the full developer workflow of section 4.2:

1. write the algorithm as ResCCLang source (here: a 2-server x 4-GPU
   hierarchical AllGather in the Figure 16 style);
2. parse and statically validate it;
3. verify its collective semantics symbolically;
4. compile it with the ResCCL compiler (parsing / analysis / scheduling
   phases);
5. inspect the scheduled pipeline, then plan one call — TB allocation and
   lowering happen there, once the micro-batch count is known — and
   inspect its TBs and generated lightweight kernel for rank 0;
6. execute that plan and report bandwidth.
"""

from repro import MB, ResCCLBackend, multi_node, simulate, validate_program
from repro.core import ResCCLCompiler, render_kernel_source
from repro.lang import parse_program
from repro.runtime import verify_collective

# A hand-written hierarchical AllGather for 2 nodes x 4 GPUs: intra-node
# full mesh at step 0, inter-node ring among ring-aligned peers, then a
# local re-broadcast of the remote chunks.
SOURCE = """\
def ResCCLAlgo(nRanks=8, nChannels=4, nWarps=16, AlgoName="hm-ag-2x4",
               OpType="Allgather", GPUPerNode=4, NICPerNode=2):
    nNodes = 2
    G = 4
    N = nNodes * G
    # Broadcast 1a: intra-node full mesh of each rank's own chunk.
    for n in range(0, nNodes):
        for r in range(0, G):
            src = n * G + r
            for offset in range(0, G - 1):
                dst = n * G + (r + offset + 1) % G
                transfer(src, dst, 0, src, recv)
    # Broadcast 1b: inter-node ring over ring-aligned peers.
    for src in range(0, N):
        for b in range(0, nNodes - 1):
            transfer(src, (src + G) % N, b, (src - b * G + N) % N, recv)
    # Broadcast 2: re-broadcast remote chunks to local peers.
    for n in range(0, nNodes):
        for r in range(0, G):
            src = n * G + r
            for b in range(0, nNodes - 1):
                chunk = (src - (b + 1) * G + N * 2) % N
                for offset in range(0, G - 1):
                    dst = n * G + (r + offset + 1) % G
                    transfer(src, dst, nNodes - 1 + b, chunk, recv)
"""


def main() -> None:
    # 1-2. Parse and validate.
    program = parse_program(SOURCE)
    cluster = multi_node(nodes=2, gpus_per_node=4)
    validate_program(program, cluster).raise_if_failed()
    print(f"Parsed {program!r}")

    # 3. Symbolic correctness check.
    verify_collective(program).raise_if_failed()
    print("Collective semantics verified: every rank gathers every chunk.\n")

    # 4. Compile through the offline phases, up to the scheduled pipeline.
    compiled = ResCCLCompiler().compile(program, cluster)
    print("Offline compiler phases:")
    for phase, micros in compiled.phase_times_us.items():
        print(f"  {phase:<11} {micros / 1000.0:8.2f} ms")

    # 5a. Scheduled pipeline.
    pipeline = compiled.pipeline
    print(
        f"\nHPDS pipeline: {pipeline.task_count} tasks in "
        f"{pipeline.depth} sub-pipelines"
    )
    for sp in pipeline.sub_pipelines[:4]:
        links = [compiled.dag.task(t).link for t in sp.task_ids]
        print(f"  sub-pipeline {sp.index}: {len(sp.task_ids)} tasks on "
              f"{len(set(links))} distinct links")

    # 5b. TB allocation, done per call at the call's micro-batch count.
    plan = ResCCLBackend().plan(cluster, program, 128 * MB)
    rank0 = [tb for tb in plan.tb_programs if tb.rank == 0]
    print(f"\nRank 0 thread blocks at {plan.n_microbatches} micro-batches "
          f"({len(rank0)}):")
    for tb in rank0:
        print(f"  TB {tb.tb_index}: {tb.label} ({len(tb)} invocations)")

    # 5c. Generated kernel listing of the plan that runs.
    print("\nGenerated kernel for rank 0 (first 24 lines):")
    source = render_kernel_source(0, plan.tb_programs, plan.dag, program.name)
    for line in source.splitlines()[:24]:
        print(f"  {line}")

    # 6. Execute.
    report = simulate(plan)
    print(f"\nExecution: {report.summary()}")


if __name__ == "__main__":
    main()
