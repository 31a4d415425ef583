"""Extension & ablation experiments: design choices DESIGN.md calls out."""

from __future__ import annotations

import copy

from ..algorithms import hm_allreduce, hm_reducescatter
from ..baselines import MSCCLBackend
from ..core import ResCCLBackend, ResCCLCompiler, allocate_tbs
from ..core.kernelgen import lower_to_programs
from ..ir.task import Collective
from ..runtime import simulate
from ..runtime.plan import (
    ExecMode,
    ExecutionPlan,
    Protocol,
    SimConfig,
    plan_microbatches,
)
from ..synth import TACCLSynthesizer
from .base import (
    DEFAULT_MAX_MICROBATCHES,
    MB,
    ExperimentResult,
    a100_cluster,
    run_backend,
)


# ----------------------------------------------------------------------
# Execution granularity (section 3, Eq. 3-5)
# ----------------------------------------------------------------------


def run_granularity(sizes_mb=(16, 64, 256)) -> ExperimentResult:
    """The same HM AllReduce at the three execution granularities.

    All variants run in interpreter mode so the measured differences
    isolate *scheduling granularity* from kernel generation.
    ``data`` maps size_mb -> {granularity: SimReport}.
    """
    cluster = a100_cluster(2, 8)
    staged = hm_allreduce(2, 8)
    flat = copy.deepcopy(staged)
    flat.stage_starts = [0]  # algorithm-level: no manual stage division

    algo_level = MSCCLBackend(max_microbatches=DEFAULT_MAX_MICROBATCHES)
    stage_level = MSCCLBackend(max_microbatches=DEFAULT_MAX_MICROBATCHES)
    task_level = ResCCLBackend(
        mode=ExecMode.INTERPRETER, max_microbatches=DEFAULT_MAX_MICROBATCHES
    )
    results = {}
    for size in sizes_mb:
        results[size] = {
            "algorithm-level": run_backend(
                algo_level, cluster, size * MB, program=flat
            ),
            "stage-level": run_backend(
                stage_level, cluster, size * MB, program=staged
            ),
            "task-level": run_backend(
                task_level, cluster, size * MB, program=staged
            ),
        }

    rows = []
    for size, by_level in results.items():
        for level, report in by_level.items():
            rows.append(
                [
                    f"{size} MB",
                    level,
                    f"{report.completion_time_us / 1e3:.2f}",
                    f"{report.algo_bandwidth_gbps:.1f}",
                    str(report.max_tbs_per_rank()),
                ]
            )
    return ExperimentResult(
        name="granularity",
        title="Ablation — execution granularity (HM AllReduce, interpreter "
        "mode for all)",
        headers=["buffer", "granularity", "time ms", "GB/s", "TB/rank"],
        rows=rows,
        data=results,
        paper_note="Equation 6: lim T_A : T_S : T_P — task-level strictly "
        "smallest",
    )


# ----------------------------------------------------------------------
# TB-merge pipelining allowance (section 4.4 design choice)
# ----------------------------------------------------------------------


def _run_with_allowance(cluster, program, buffer_bytes, allowance_from_mb):
    compiled = ResCCLCompiler().compile(program, cluster)
    n_mb, chunk = plan_microbatches(
        buffer_bytes, program.nchunks, max_microbatches=16
    )
    allowance = n_mb if allowance_from_mb else 0
    assignments = allocate_tbs(
        compiled.dag, compiled.pipeline, pipelining_allowance=allowance
    )
    plan = ExecutionPlan(
        name=f"{program.name}/allow={allowance}",
        cluster=cluster,
        program=program,
        dag=compiled.dag,
        n_microbatches=n_mb,
        chunk_bytes=chunk,
        tb_programs=lower_to_programs(assignments, n_mb, nwarps=16),
    )
    return simulate(plan)


def run_tb_merge(buffer_mb: int = 128) -> ExperimentResult:
    """Naive (allowance-0) vs pipelining-aware TB merging.

    ``data`` maps algorithm -> {policy: SimReport}.
    """
    cluster = a100_cluster(2, 8)
    programs = {
        "HM ReduceScatter": hm_reducescatter(2, 8),
        "TACCL AllGather": TACCLSynthesizer().synthesize(
            cluster, Collective.ALLGATHER
        ),
    }
    results = {}
    for name, program in programs.items():
        results[name] = {
            "naive merge (allowance 0)": _run_with_allowance(
                cluster, program, buffer_mb * MB, False
            ),
            "allowance = n_mb": _run_with_allowance(
                cluster, program, buffer_mb * MB, True
            ),
        }

    rows = []
    for name, variants in results.items():
        for variant, report in variants.items():
            rows.append(
                [
                    name,
                    variant,
                    f"{report.algo_bandwidth_gbps:.1f}",
                    str(report.max_tbs_per_rank()),
                ]
            )
    return ExperimentResult(
        name="tb-merge",
        title="Ablation — TB-merge pipelining allowance",
        headers=["algorithm", "merge policy", "GB/s", "TB/rank"],
        rows=rows,
        data=results,
        paper_note="static windows ignore micro-batch overlap; merging "
        "across small gaps serializes pipelined connections",
    )


# ----------------------------------------------------------------------
# Congestion resilience (section 4.4 discussion)
# ----------------------------------------------------------------------


def background_on_all_nics(cluster, rate: float):
    """An external job streaming at ``rate`` through every NIC direction."""
    flows = []
    for node in range(cluster.nodes):
        for nic in range(cluster.nics_per_node):
            flows.append(((f"nic:out:{node}:{nic}",), rate))
            flows.append(((f"nic:in:{node}:{nic}",), rate))
    return flows


def run_contention(
    gammas=(0.0, 0.03, 0.1, 0.3), buffer_mb: int = 128
) -> ExperimentResult:
    """Clean and congested bandwidth across fabric conflict penalties.

    ``data`` maps gamma -> {backend: (clean_gbps, loaded_gbps)}.
    """
    cluster = a100_cluster(2, 8)
    program = hm_allreduce(2, 8)
    congestors = background_on_all_nics(
        cluster, cluster.profile.nic.bandwidth / 2
    )
    results = {}
    for gamma in gammas:
        msccl = MSCCLBackend(
            instances=4,
            max_microbatches=16,
            config=SimConfig(gamma=gamma, fifo_depth=1),
        )
        resccl = ResCCLBackend(
            max_microbatches=16, config=SimConfig(gamma=gamma)
        )
        row = {}
        for name, backend in (("MSCCL", msccl), ("ResCCL", resccl)):
            clean = run_backend(
                backend, cluster, buffer_mb * MB, program=program
            ).algo_bandwidth_gbps
            loaded = run_backend(
                backend,
                cluster,
                buffer_mb * MB,
                program=program,
                background_traffic=congestors,
            ).algo_bandwidth_gbps
            row[name] = (clean, loaded)
        results[gamma] = row

    rows = [
        [
            f"{gamma:.2f}",
            f"{row['MSCCL'][0]:.1f}",
            f"{row['MSCCL'][1]:.1f}",
            f"{row['ResCCL'][0]:.1f}",
            f"{row['ResCCL'][1]:.1f}",
            f"{row['ResCCL'][1] / row['MSCCL'][1]:.2f}x",
        ]
        for gamma, row in results.items()
    ]
    return ExperimentResult(
        name="contention",
        title="Section 4.4 — congestion resilience (HM AllReduce, 2x8)",
        headers=["gamma", "MSCCL clean", "MSCCL loaded", "ResCCL clean",
                 "ResCCL loaded", "loaded advantage"],
        rows=rows,
        data=results,
        paper_note="conflict-free allocation inherently mitigates congestion",
    )


# ----------------------------------------------------------------------
# Transport protocols (Table 2 setup)
# ----------------------------------------------------------------------


def run_protocols(sizes_mb=(1, 4, 16, 64, 512)) -> ExperimentResult:
    """Simple / LL / LL128 across buffer sizes.

    ``data`` maps (protocol_name, size_mb) -> GB/s.
    """
    cluster = a100_cluster(2, 8)
    program = hm_allreduce(2, 8)
    results = {}
    for protocol in Protocol:
        backend = ResCCLBackend(
            max_microbatches=16, config=SimConfig(protocol=protocol)
        )
        for size in sizes_mb:
            report = run_backend(
                backend, cluster, size * MB, program=program
            )
            results[(protocol.value, size)] = report.algo_bandwidth_gbps

    rows = [
        [f"{size} MB"] + [f"{results[(p.value, size)]:.2f}" for p in Protocol]
        for size in sizes_mb
    ]
    return ExperimentResult(
        name="protocols",
        title="Ablation — transport protocols (HM AllReduce, 2x8)",
        headers=["buffer"] + [p.value for p in Protocol],
        rows=rows,
        data=results,
        paper_note="Simple = sustained bandwidth, LL = lowest latency, "
        "LL128 = both (partially)",
    )


# ----------------------------------------------------------------------
# Chunk size (Table 2's ChunkSize = 1 MB configuration)
# ----------------------------------------------------------------------


def run_chunk_size(
    chunk_sizes_mb=(0.25, 0.5, 1.0, 2.0, 4.0, 16.0), buffer_mb: int = 256
) -> ExperimentResult:
    """Sweep the transfer chunk size at a fixed buffer.

    Small chunks pay per-chunk startup latency on every hop; huge chunks
    leave too few micro-batches for task-level pipelining to fill the
    pipeline.  Table 2's 1 MB default sits in the flat middle.
    ``data`` maps chunk_mb -> (n_microbatches, GB/s).
    """
    cluster = a100_cluster(2, 8)
    program = hm_allreduce(2, 8)
    results = {}
    for chunk_mb in chunk_sizes_mb:
        backend = ResCCLBackend(
            target_chunk_kb=int(chunk_mb * 1024), max_microbatches=512
        )
        plan = backend.plan(cluster, program, buffer_mb * MB)
        report = simulate(plan)
        results[chunk_mb] = (plan.n_microbatches, report.algo_bandwidth_gbps)

    rows = [
        [f"{chunk_mb:g} MB", str(n_mb), f"{gbps:.1f}"]
        for chunk_mb, (n_mb, gbps) in results.items()
    ]
    return ExperimentResult(
        name="chunk-size",
        title=f"Ablation — transfer chunk size (HM AllReduce, {buffer_mb} MB "
        "buffer)",
        headers=["chunk", "micro-batches", "GB/s"],
        rows=rows,
        data=results,
        paper_note="Table 2 fixes ChunkSize at 1 MB",
    )


__all__ = [
    "run_granularity",
    "run_tb_merge",
    "run_contention",
    "run_protocols",
    "run_chunk_size",
    "background_on_all_nics",
]
