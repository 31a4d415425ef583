"""Figure 10: offline workflow scaling (a) and HPDS vs round-robin (b)."""

from __future__ import annotations

import time

from ..algorithms import hm_allgather, hm_allreduce
from ..core import ResCCLBackend, ResCCLCompiler, allocate_tbs, lower_to_programs
from ..ir.task import Collective
from ..synth import TACCLSynthesizer, TECCLSynthesizer
from ..topology import multi_node
from .base import MB, ExperimentResult, a100_cluster, run_backend


def run_phases(scales=((2, 8), (4, 8), (8, 8), (16, 8), (32, 8))) -> ExperimentResult:
    """Figure 10(a): real wall-clock of the four offline workflow phases.

    Parsing, analysis and scheduling are the compiler's own phase times;
    lowering is TB allocation plus kernel generation for a one-micro-batch
    call, which is where the compiled pipeline meets a call.
    ``data`` is a list of (world_size, task_count, {phase: us}).
    """
    results = []
    compiler = ResCCLCompiler()
    for nodes, gpus in scales:
        cluster = multi_node(nodes, gpus)
        source = hm_allreduce(nodes, gpus).to_source()
        compiled = compiler.compile(source, cluster)
        phases = dict(compiled.phase_times_us)
        start = time.perf_counter()
        assignments = allocate_tbs(compiled.dag, compiled.pipeline, pipelining_allowance=1)
        lower_to_programs(assignments, 1, nwarps=16)
        phases["lowering"] = (time.perf_counter() - start) * 1e6
        results.append((cluster.world_size, len(compiled.dag), phases))

    rows = []
    for world, tasks, phases in results:
        total = sum(phases.values())
        rows.append(
            [
                f"{world}",
                f"{tasks}",
                f"{phases['parsing'] / 1e3:.1f}",
                f"{phases['analysis'] / 1e3:.1f}",
                f"{phases['scheduling'] / 1e3:.1f}",
                f"{phases['lowering'] / 1e3:.1f}",
                f"{total / 1e3:.1f}",
            ]
        )
    return ExperimentResult(
        name="fig10a",
        title="Figure 10(a) — offline workflow phase breakdown",
        headers=["GPUs", "tasks", "parse ms", "analyze ms", "schedule ms",
                 "lower ms", "total ms"],
        rows=rows,
        data=results,
        paper_note="whole pipeline ~11 min at 1,024 GPUs, once, offline",
    )


def run_schedulers(sizes_mb=(32, 128)) -> ExperimentResult:
    """Figure 10(b): HPDS vs RR on the 8-GPU two-server topology.

    ``data`` maps (algorithm, size_mb) -> (hpds_gbps, rr_gbps).
    """
    cluster = a100_cluster(2, 4)
    programs = {
        "expert-AG": hm_allgather(2, 4),
        "expert-AR": hm_allreduce(2, 4),
        "TACCL-AG": TACCLSynthesizer().synthesize(cluster, Collective.ALLGATHER),
        "TACCL-AR": TACCLSynthesizer().synthesize(cluster, Collective.ALLREDUCE),
        "TECCL-AG": TECCLSynthesizer().synthesize(cluster, Collective.ALLGATHER),
        "TECCL-AR": TECCLSynthesizer().synthesize(cluster, Collective.ALLREDUCE),
    }
    hpds = ResCCLBackend(scheduler="hpds", max_microbatches=16)
    rr = ResCCLBackend(scheduler="rr", max_microbatches=16)
    results = {}
    for name, program in programs.items():
        for size in sizes_mb:
            h = run_backend(hpds, cluster, size * MB, program=program)
            r = run_backend(rr, cluster, size * MB, program=program)
            results[(name, size)] = (
                h.algo_bandwidth_gbps,
                r.algo_bandwidth_gbps,
            )

    rows = [
        [name, f"{size} MB", f"{h:.1f}", f"{r:.1f}", f"{h / r:.2f}x"]
        for (name, size), (h, r) in sorted(results.items())
    ]
    return ExperimentResult(
        name="fig10b",
        title="Figure 10(b) — HPDS vs round-robin scheduling (2x4 GPUs)",
        headers=["algorithm", "buffer", "HPDS GB/s", "RR GB/s", "speedup"],
        rows=rows,
        data=results,
        paper_note="HPDS consistently ahead, up to 187%",
    )


__all__ = ["run_phases", "run_schedulers"]
