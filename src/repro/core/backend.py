"""The ResCCL backend facade: compile once, plan and execute collectives.

Usage::

    backend = ResCCLBackend()
    plan = backend.plan(cluster, hm_allreduce(2, 8), buffer_bytes=1 << 30)
    report = simulate(plan)

The backend combines the paper's three techniques: HPDS primitive-level
scheduling (section 4.3), state-based TB allocation (section 4.4), and
lightweight generated kernels (section 4.5, kernel mode — interpreter
mode is available for the Figure 3 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..lang.builder import AlgoProgram
from ..obs.spans import span as obs_span
from ..runtime.plan import (
    ExecMode,
    ExecutionPlan,
    SimConfig,
    plan_microbatches,
)
from ..topology import Cluster
from .compiler import CompileResult, ResCCLCompiler
from .kernelgen import lower_to_programs
from .plancache import get_cache, plan_key
from .tballoc import allocate_tbs


@dataclass
class ResCCLBackend:
    """Resource-efficient scheduling backend (the paper's contribution).

    Args:
        scheduler: ``"hpds"`` or ``"rr"`` (ablation).
        nwarps: warps per generated TB (Table 2: 16).
        mode: ``ExecMode.KERNEL`` for generated kernels (default) or
            ``ExecMode.INTERPRETER`` for the Figure 3 ablation.
        max_microbatches: cap on micro-batch count per plan.
        config: runtime constants override.
        target_chunk_kb: target transfer-chunk size for micro-batch
            planning; ``None`` keeps the paper's 1 MB (Table 2).
        tb_allowance: cap on the pipelining allowance handed to TB
            allocation; ``None`` keeps the default (the plan's own
            micro-batch count).
        use_tuning: consult the installed tuning table
            (:func:`repro.tuning.get_table`) at plan time.  With no
            table installed — the default — planning is bit-identical
            to the untuned path.
    """

    scheduler: str = "hpds"
    nwarps: int = 16
    mode: ExecMode = ExecMode.KERNEL
    max_microbatches: int = 32
    config: Optional[SimConfig] = None
    target_chunk_kb: Optional[int] = None
    tb_allowance: Optional[int] = None
    use_tuning: bool = True

    name = "ResCCL"

    def __post_init__(self) -> None:
        self._compiler = ResCCLCompiler(scheduler=self.scheduler)

    def compile(
        self, algorithm: Union[str, AlgoProgram], cluster: Cluster
    ) -> CompileResult:
        """Compile an algorithm for a cluster through the shared plan cache.

        Memoization is content-addressed (``repro.core.plancache``): the
        key covers the DSL source, the cluster fingerprint, and this
        backend's scheduler, so two backends compiling the same
        algorithm on equivalent clusters share one ``CompileResult``.
        """
        return get_cache().compile(self._compiler, algorithm, cluster)

    def plan(
        self,
        cluster: Cluster,
        program: Union[str, AlgoProgram],
        buffer_bytes: float,
    ) -> ExecutionPlan:
        """Build the execution plan for one collective call.

        TB allocation and kernel generation run here, once per call shape
        (compile stops at the pipeline): the micro-batch count of this
        call sets the pipelining allowance of the state-based merge (a
        connection keeps streaming micro-batches past its static window,
        so windows closer than one pipeline depth are not truly disjoint).
        The plan's ``cache_key`` covers the compile's content hash and
        every knob the lowering and the run read, so equal calls share
        one simulation (the plan cache's report tier).

        When a tuning table is installed (``resccl tune`` +
        :func:`repro.tuning.configure_tuning`) and covers this
        ``(collective, size, topology)`` cell, the winning plan source
        and knobs replace the requested ones — the autotuned plan is
        served at cache-hit speed, with no search on this path.  With
        no table installed the untuned path below runs unchanged.
        """
        tuned = self._tuned_lookup(program, cluster, buffer_bytes)
        if tuned is not None:
            program, scheduler, chunk_kb, max_mb, allowance = tuned
        else:
            scheduler = self.scheduler
            chunk_kb = self.target_chunk_kb
            max_mb = self.max_microbatches
            allowance = self.tb_allowance
        with obs_span("plan", backend=self.name) as sp:
            if scheduler == self.scheduler:
                compiled = self.compile(program, cluster)
            else:
                compiled = get_cache().compile(
                    ResCCLCompiler(scheduler=scheduler), program, cluster
                )
            if chunk_kb is None:
                n_mb, chunk_bytes = plan_microbatches(
                    buffer_bytes,
                    compiled.program.nchunks,
                    max_microbatches=max_mb,
                )
            else:
                n_mb, chunk_bytes = plan_microbatches(
                    buffer_bytes,
                    compiled.program.nchunks,
                    target_chunk_bytes=chunk_kb * 1024.0,
                    max_microbatches=max_mb,
                )
            effective_allowance = (
                n_mb if allowance is None
                else max(1, min(allowance, n_mb))
            )

            def lower():
                assignments = allocate_tbs(
                    compiled.dag,
                    compiled.pipeline,
                    pipelining_allowance=effective_allowance,
                )
                return lower_to_programs(
                    assignments, n_mb, nwarps=self.nwarps
                )

            # Repeat calls with the same compile + knobs (the serving
            # hot path) reuse the lowered programs instead of paying TB
            # allocation + lowering again.
            tb_programs = get_cache().lowered(
                compiled.cache_key,
                n_mb,
                effective_allowance,
                self.nwarps,
                build=lower,
            )
            sp.set(
                n_microbatches=n_mb,
                tbs=len(tb_programs),
                tuned=tuned is not None,
            )
        config = self.config or SimConfig()
        plan = ExecutionPlan(
            name=f"ResCCL/{compiled.program.name}",
            cluster=cluster,
            program=compiled.program,
            dag=compiled.dag,
            n_microbatches=n_mb,
            chunk_bytes=chunk_bytes,
            tb_programs=tb_programs,
            mode=self.mode,
            config=config,
        )
        if compiled.cache_key:
            plan.cache_key = plan_key(
                self.name,
                compiled.cache_key,
                n_mb,
                chunk_bytes,
                effective_allowance,
                self.nwarps,
                self.mode.value,
                repr(config),
            )
        return plan

    def _tuned_lookup(self, program, cluster: Cluster, buffer_bytes: float):
        """The tuned (program, knobs) for this call, or ``None``.

        Misses are free of side effects beyond a counter bump; with no
        table installed the lookup short-circuits before touching the
        tuning layer's state at all, keeping the untuned path
        bit-identical to a build without :mod:`repro.tuning`.
        """
        if not self.use_tuning or not isinstance(program, AlgoProgram):
            return None
        from ..tuning.table import get_table

        table = get_table()
        if table is None:
            return None
        config = table.lookup(
            program.collective.value, buffer_bytes, cluster
        )
        if config is None:
            return None
        return (
            table.resolve_program(config, cluster),
            config.scheduler,
            config.chunk_kb,
            config.max_microbatches,
            config.tb_allowance,
        )


__all__ = ["ResCCLBackend"]
