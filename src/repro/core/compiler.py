"""The ResCCL offline compiler: DSL text -> optimized execution pipeline.

The compiler runs the first three serial phases of Figure 10(a):

1. **Parsing** — ResCCLang source to the flat transfer program (literal
   transfer lines skip the AST; see :mod:`repro.lang.parser`);
2. **Analysis** — transfers to the data-dependency DAG, which also serves
   validation (one DAG per compile; see :mod:`repro.lang.validate`);
3. **Scheduling** — HPDS (or the round-robin ablation baseline) over the
   DAG, producing the global task pipeline.

It stops at the pipeline.  The fourth phase, **lowering** (TB allocation
plus kernel generation), depends on the micro-batch count of a call, so
it runs where that count is known: :meth:`repro.core.backend.
ResCCLBackend.plan`, the replan path and the ablations.

Each phase's wall-clock time is recorded so the Figure 10(a)
scalability experiment measures the *actual* cost of this
implementation, not a model.  With a metrics registry armed, every
phase also lands one ``compile_wall_us`` histogram observation labelled
by stage, and the ``compile`` span carries per-stage wall counters — the
observability contract of the cold-compile path (``docs/performance.md``).

Analysis, scheduling and TB allocation run near-linearithmic indexed
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
from ..lang.parser import parse_program
from ..lang.validate import validated_dag
from ..obs.metrics import current_registry
from ..obs.spans import span as obs_span
from ..topology import Cluster
from .hpds import hpds_schedule
from .kernelgen import lower_to_programs, render_kernel_source
from .pipeline import GlobalPipeline
from .rr import rr_schedule
from .tballoc import TBAssignment, allocate_tbs

SCHEDULERS: Dict[str, Callable[..., GlobalPipeline]] = {
    "hpds": hpds_schedule,
    "rr": rr_schedule,
}


def resolve_scheduler(name: str) -> Callable[..., GlobalPipeline]:
    """The scheduling pass registered as ``name``; ``ValueError`` if none."""
    if name not in SCHEDULERS:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(f"unknown scheduler {name!r}; known: {known}")
    return SCHEDULERS[name]


@dataclass
class CompileResult:
    """Everything the compiler produces for one algorithm + cluster."""

    program: AlgoProgram
    dag: DependencyDAG
    pipeline: GlobalPipeline
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


def compile_fingerprint(
    result: CompileResult,
    kernel_ranks: Optional[List[int]] = None,
    assignments: Optional[List[TBAssignment]] = None,
) -> dict:
    """Content fingerprint of a compile's observable outputs.

    Captures the global pipeline (per-sub-pipeline task sequences), the
    TB assignments (per-TB endpoint groups with sides, peers, ordered
    task ids, and windows), and — when ``kernel_ranks`` is given — the
    kernel source per rank, rendered from those assignments lowered at
    one micro-batch.  ``assignments`` defaults to the allowance-0
    allocation of ``result``; the reference-equivalence suite passes the
    oracle's allocation instead.  Two compiles are bit-identical iff
    their fingerprints compare equal; the golden digests, the
    reference-equivalence suite and the compile-scaling benchmark all
    assert on this.
    """
    if assignments is None:
        assignments = allocate_tbs(result.dag, result.pipeline)
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
            for tb in assignments
        ],
    }
    if kernel_ranks is not None:
        programs = lower_to_programs(assignments, 1, nwarps=16)
        fp["kernels"] = {
            rank: render_kernel_source(
                rank, programs, result.dag, result.program.name
            )
            for rank in kernel_ranks
        }
    return fp


class ResCCLCompiler:
    """Compiles ResCCLang algorithms into scheduled task pipelines.

    Args:
        scheduler: ``"hpds"`` (default) or ``"rr"`` (the ablation
            baseline of Figure 10(b)).
        validate: run static program validation during Analysis.
    """

    def __init__(self, scheduler: str = "hpds", validate: bool = True) -> None:
        resolve_scheduler(scheduler)
        self.scheduler = scheduler
        self.validate = validate

    def compile(
        self,
        algorithm: Union[str, AlgoProgram],
        cluster: Cluster,
        frontend: Optional[Tuple[AlgoProgram, DependencyDAG]] = None,
    ) -> CompileResult:
        """Parse, analyze and schedule DSL source text or a built program.

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
                # Phase 1: Parsing (DSL text -> elaborated program).
                start = time.perf_counter()
                with obs_span("parsing") as sp:
                    if isinstance(algorithm, str):
                        program = parse_program(algorithm)
                    else:
                        program = algorithm
                    sp.set(transfers=len(program.transfers))
                times["parsing"] = (time.perf_counter() - start) * 1e6

                # Phase 2: Analysis (program -> dependency DAG, validated
                # by the same build).
                start = time.perf_counter()
                with obs_span("analysis") as sp:
                    if self.validate:
                        dag = validated_dag(program, cluster)
                    else:
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

            registry = current_registry()
            if registry is not None:
                for stage, micros in times.items():
                    registry.observe("compile_wall_us", micros, stage=stage)
            compile_sp.set(
                total_wall_us=sum(times.values()),
                **{f"{stage}_wall_us": t for stage, t in times.items()},
            )

        return CompileResult(
            program=program,
            dag=dag,
            pipeline=pipeline,
            cluster=cluster,
            scheduler=self.scheduler,
            phase_times_us=times,
        )


__all__ = [
    "ResCCLCompiler",
    "CompileResult",
    "SCHEDULERS",
    "compile_fingerprint",
    "resolve_scheduler",
]
