"""The ResCCL offline compiler: DSL text -> optimized execution pipeline.

The four serial phases of Figure 10(a):

1. **Parsing** — ResCCLang source to AST, then elaboration into the flat
   transfer program;
2. **Analysis** — transfers to the data-dependency DAG (plus validation);
3. **Scheduling** — HPDS (or the round-robin ablation baseline) over the
   DAG, producing the global task pipeline;
4. **Lowering** — task pipeline to TB assignments and generated kernels.

Each phase's wall-clock time is recorded so the Figure 10(a)
scalability experiment measures the *actual* cost of this
implementation, not a model.  With a metrics registry armed, every
phase also lands one ``compile_wall_us`` histogram observation labelled
by stage and entry point, and the ``compile``/``compile_residual``
spans carry per-stage wall counters — the observability contract of the
cold-compile path (``docs/performance.md``).

Analysis, scheduling and lowering run near-linearithmic indexed
implementations; the literal references they replaced live in
``tests/oracles/compile.py``.  :func:`compile_fingerprint` captures
everything observable about a compile, so tests, benchmarks, golden
digests and CI can assert that the two agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..ir.dag import DependencyDAG, build_dag
from ..lang.builder import AlgoProgram
from ..lang.parser import parse_module
from ..lang.builder import evaluate_module
from ..lang.validate import validate_program
from ..obs.metrics import current_registry
from ..obs.spans import span as obs_span
from ..topology import Cluster
from .hpds import hpds_schedule
from .kernelgen import render_kernel_source
from .pipeline import GlobalPipeline
from .rr import rr_schedule
from .tballoc import TBAssignment, allocate_tbs

SCHEDULERS: Dict[str, Callable[..., GlobalPipeline]] = {
    "hpds": hpds_schedule,
    "rr": rr_schedule,
}


def _observe_stage_wall(stage: str, micros: float, entry: str) -> None:
    """Publish one cold-compile stage wall time to the ambient registry."""
    registry = current_registry()
    if registry is not None:
        registry.observe("compile_wall_us", micros, stage=stage, entry=entry)


@dataclass
class CompileResult:
    """Everything the compiler produces for one algorithm + cluster."""

    program: AlgoProgram
    dag: DependencyDAG
    pipeline: GlobalPipeline
    assignments: List[TBAssignment]
    cluster: Cluster
    scheduler: str
    phase_times_us: Dict[str, float] = field(default_factory=dict)
    #: Content-hash under which the plan cache stored this result; set
    #: by :meth:`repro.core.plancache.PlanCache.compile` and empty for
    #: results built outside the cache.  Keys the per-call TB
    #: allocation + lowering memo on the plan hot path.
    cache_key: str = ""

    @property
    def total_time_us(self) -> float:
        return sum(self.phase_times_us.values())

    def kernel_source(self, rank: int, n_microbatches: int = 1) -> str:
        """Render the generated kernel listing for one rank."""
        return render_kernel_source(
            rank,
            self.assignments,
            self.dag,
            n_microbatches,
            algo_name=self.program.name,
        )

    def tb_count(self) -> int:
        return len(self.assignments)


def compile_fingerprint(
    result: CompileResult, kernel_ranks: Optional[List[int]] = None
) -> dict:
    """Content fingerprint of a compile's observable outputs.

    Captures the global pipeline (per-sub-pipeline task sequences), the
    TB assignments (per-TB endpoint groups with sides, peers, ordered
    task ids, and windows), and — when ``kernel_ranks`` is given — the
    rendered kernel source per rank.  Two compiles are bit-identical iff
    their fingerprints compare equal; the golden digests, the
    reference-equivalence suite and the compile-scaling benchmark all
    assert on this.
    """
    fp = {
        "scheduler": result.pipeline.scheduler,
        "pipeline": [list(sp.task_ids) for sp in result.pipeline.sub_pipelines],
        "assignments": [
            (
                tb.rank,
                [
                    (g.side.value, g.peer, tuple(g.task_ids), g.window)
                    for g in tb.groups
                ],
            )
            for tb in result.assignments
        ],
    }
    if kernel_ranks is not None:
        fp["kernels"] = {
            rank: result.kernel_source(rank) for rank in kernel_ranks
        }
    return fp


class ResCCLCompiler:
    """Compiles ResCCLang algorithms into scheduled TB pipelines.

    Args:
        scheduler: ``"hpds"`` (default) or ``"rr"`` (the ablation
            baseline of Figure 10(b)).
        validate: run static program validation during Analysis.
    """

    def __init__(self, scheduler: str = "hpds", validate: bool = True) -> None:
        if scheduler not in SCHEDULERS:
            known = ", ".join(sorted(SCHEDULERS))
            raise ValueError(f"unknown scheduler {scheduler!r}; known: {known}")
        self.scheduler = scheduler
        self.validate = validate

    def compile(
        self,
        algorithm: Union[str, AlgoProgram],
        cluster: Cluster,
        frontend: Optional[Tuple[AlgoProgram, DependencyDAG]] = None,
    ) -> CompileResult:
        """Run the full pipeline on DSL source text or a built program.

        ``frontend`` optionally supplies an already-parsed ``(program,
        dag)`` pair for this exact (algorithm, cluster, validate)
        combination — the plan cache uses it to skip phases 1-2 when
        only the scheduler differs between compiles.  Their phase times
        are recorded as 0.0.
        """
        times: Dict[str, float] = {}

        with obs_span("compile", scheduler=self.scheduler) as compile_sp:
            if frontend is not None:
                program, dag = frontend
                times["parsing"] = 0.0
                times["analysis"] = 0.0
            else:
                # Phase 1: Parsing (DSL text -> AST -> elaborated program).
                start = time.perf_counter()
                with obs_span("parsing") as sp:
                    if isinstance(algorithm, str):
                        program = evaluate_module(parse_module(algorithm))
                    else:
                        program = algorithm
                    sp.set(transfers=len(program.transfers))
                times["parsing"] = (time.perf_counter() - start) * 1e6

                # Phase 2: Analysis (program -> dependency DAG).
                start = time.perf_counter()
                with obs_span("analysis") as sp:
                    if self.validate:
                        validate_program(program, cluster).raise_if_failed()
                    dag = build_dag(program.transfers, cluster)
                    sp.set(dag_nodes=len(dag), dag_edges=dag.edge_count)
                times["analysis"] = (time.perf_counter() - start) * 1e6

            # Phase 3: Scheduling (DAG -> global task pipeline).
            start = time.perf_counter()
            with obs_span("scheduling") as sp:
                pipeline = SCHEDULERS[self.scheduler](dag)
                pipeline.check_all(dag)
                sp.set(
                    tasks_scheduled=pipeline.task_count,
                    sub_pipelines=pipeline.depth,
                )
            times["scheduling"] = (time.perf_counter() - start) * 1e6

            # Phase 4: Lowering (pipeline -> TB assignments).
            start = time.perf_counter()
            with obs_span("lowering"):
                assignments = allocate_tbs(dag, pipeline)
            times["lowering"] = (time.perf_counter() - start) * 1e6

            for stage, micros in times.items():
                _observe_stage_wall(stage, micros, entry="full")
            compile_sp.set(
                total_wall_us=sum(times.values()),
                **{f"{stage}_wall_us": t for stage, t in times.items()},
            )

        return CompileResult(
            program=program,
            dag=dag,
            pipeline=pipeline,
            assignments=assignments,
            cluster=cluster,
            scheduler=self.scheduler,
            phase_times_us=times,
        )


def compile_residual(
    dag: DependencyDAG,
    scheduler: str = "hpds",
    pipelining_allowance: int = 1,
) -> Tuple[GlobalPipeline, List[TBAssignment]]:
    """Scheduling + lowering for an already-built (residual) DAG.

    The replan-and-resume recovery path enters the pipeline here: it has
    no DSL source and must not re-run whole-program validation — its
    transfer set is a precedence-closed *residue* of a collective, built
    directly against the degraded cluster (whose link annotations the DAG
    already carries).  Phases 3 and 4 are identical to a full compile:
    HPDS (or round-robin) over the DAG, then state-based TB allocation.

    Returns ``(pipeline, assignments)``; kernel generation stays with the
    caller, which knows the resume plan's micro-batch count.
    """
    if scheduler not in SCHEDULERS:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(f"unknown scheduler {scheduler!r}; known: {known}")
    with obs_span("compile_residual", scheduler=scheduler) as sp:
        start = time.perf_counter()
        pipeline = SCHEDULERS[scheduler](dag)
        pipeline.check_all(dag)
        scheduling_us = (time.perf_counter() - start) * 1e6
        start = time.perf_counter()
        assignments = allocate_tbs(
            dag, pipeline, pipelining_allowance=pipelining_allowance
        )
        lowering_us = (time.perf_counter() - start) * 1e6
        _observe_stage_wall("scheduling", scheduling_us, entry="residual")
        _observe_stage_wall("lowering", lowering_us, entry="residual")
        sp.set(
            dag_nodes=len(dag),
            sub_pipelines=pipeline.depth,
            tbs=len(assignments),
            scheduling_wall_us=scheduling_us,
            lowering_wall_us=lowering_us,
        )
    return pipeline, assignments


__all__ = [
    "ResCCLCompiler",
    "CompileResult",
    "SCHEDULERS",
    "compile_fingerprint",
    "compile_residual",
]
