"""The plan autotuner: an exact branch-and-bound search over plan knobs.

For each ``(collective, size, topology)`` cell the tuner sweeps the
plan-shaping knobs — plan source (the paper's HPDS-scheduled built-ins
vs the TACCL/TECCL synthesizers), micro-batch count, chunk size, and TB
pipelining allowance — and persists the winner in a
:class:`~repro.tuning.table.TuningTable`.

Before any simulation runs, the candidate grid is pruned TACCL-sketch
style: knob combinations that resolve to the same effective
``(plan source, micro-batch count, chunk, allowance)`` are deduplicated
by cheap static analysis.  Every surviving candidate is then planned and
given its physics lower bound (:func:`repro.analysis.bounds.lower_bound`),
and candidates are simulated under ``exact`` fidelity in ascending
``(bound, index)`` order, in waves as wide as the sweep's worker count.
The untuned default is always simulated.  A candidate is skipped once
its bound exceeds the incumbent's time, or equals it at a higher index:
it cannot beat the incumbent, nor win a tie against it.  The winner,
its ``tuned_us`` and its ``default_us`` are therefore exactly those of
scoring the whole grid (the exhaustive reference in
``tests/oracles/tuning.py``).

Runs are resumable: cells already present in the table are skipped, and
the table is re-saved atomically after every scored cell, so an
interrupted ``resccl tune`` loses at most the in-flight cell.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.bounds import lower_bound
from ..experiments.base import parallel_sweep
from ..obs.log import get_logger
from ..obs.metrics import current_registry
from ..obs.spans import span as obs_span
from ..runtime.plan import MB, plan_microbatches
from ..request import build_cluster, resolve_spec
from ..topology import Cluster
from .table import TunedConfig, TuningTable, cell_key, make_entry

#: The plan-source arms of the search ("scheduler choice" in NCCL-tuner
#: terms): the paper's HPDS-scheduled built-ins vs each synthesizer.
SCHEDULER_CHOICES = ("hpds", "taccl", "teccl")

#: Default knob grids.  Deliberately modest — the sketch-style dedupe
#: prunes further, and the lower bound skips most of what is left.
DEFAULT_MBS_GRID = (4, 8, 16)
DEFAULT_CHUNK_KB_GRID = (512, 1024, 2048)
DEFAULT_TB_ALLOWANCE_GRID = (None, 2)


@dataclass(frozen=True)
class Cell:
    """One tuning cell: a collective at a size on a topology."""

    collective: str
    buffer_mb: float
    nodes: int
    gpus: int
    profile: str = "A100"

    @property
    def buffer_bytes(self) -> int:
        return int(round(self.buffer_mb * MB))

    def cluster(self) -> Cluster:
        return build_cluster(self.nodes, self.gpus, self.profile)

    def label(self) -> str:
        return (
            f"{self.collective}/{self.buffer_mb:g}MB/"
            f"{self.nodes}x{self.gpus}/{self.profile}"
        )

    def to_dict(self) -> dict:
        return {
            "collective": self.collective,
            "buffer_mb": self.buffer_mb,
            "nodes": self.nodes,
            "gpus": self.gpus,
            "profile": self.profile,
        }


def default_config(collective: str) -> TunedConfig:
    """The untuned baseline: the reference ring at stock knobs.

    This is what degraded mode serves and what a request that names no
    preference effectively gets — the NCCL-style conservative default.
    """
    return TunedConfig(algorithm=f"ring-{collective}")


def candidate_space(
    cell: Cell,
    cluster: Optional[Cluster] = None,
    schedulers: Sequence[str] = SCHEDULER_CHOICES,
    mbs_grid: Sequence[int] = DEFAULT_MBS_GRID,
    chunk_kb_grid: Sequence[int] = DEFAULT_CHUNK_KB_GRID,
    tb_allowance_grid: Sequence[Optional[int]] = DEFAULT_TB_ALLOWANCE_GRID,
) -> List[TunedConfig]:
    """The deduplicated candidate grid for one cell, default first.

    The sketch-style prune: for every plan source the program is built
    once (no compile, no simulation) and each knob combination is
    reduced to its *effective* ``(n_microbatches, chunk, allowance)``
    via :func:`plan_microbatches`; combinations that collapse onto an
    already-seen effective plan shape are dropped before any simulation
    is spent on them.
    """
    cluster = cluster or cell.cluster()
    specs: List[str] = []
    for choice in schedulers:
        if choice == "hpds":
            if cluster.nodes >= 2:
                specs.append(f"hm-{cell.collective}")
            specs.append(f"mesh-{cell.collective}")
            specs.append(f"ring-{cell.collective}")
        else:
            specs.append(f"{choice}:{cell.collective}")

    candidates: List[TunedConfig] = [default_config(cell.collective)]
    seen: Dict[Tuple, int] = {}
    nchunks_by_spec: Dict[str, int] = {}

    def effective_shape(config: TunedConfig) -> Optional[Tuple]:
        nchunks = nchunks_by_spec.get(config.algorithm)
        if nchunks is None:
            try:
                program = resolve_spec(config.algorithm, cluster)
            except ValueError:
                return None  # spec invalid on this topology: pruned
            nchunks = program.nchunks
            nchunks_by_spec[config.algorithm] = nchunks
        n_mb, chunk_bytes = plan_microbatches(
            cell.buffer_bytes,
            nchunks,
            target_chunk_bytes=config.chunk_kb * 1024.0,
            max_microbatches=config.max_microbatches,
        )
        allowance = (
            n_mb if config.tb_allowance is None
            else max(1, min(config.tb_allowance, n_mb))
        )
        return (config.algorithm, n_mb, round(chunk_bytes, 6), allowance)

    shape = effective_shape(candidates[0])
    if shape is not None:
        seen[shape] = 0
    for spec in specs:
        for mbs in mbs_grid:
            for chunk_kb in chunk_kb_grid:
                for allowance in tb_allowance_grid:
                    config = TunedConfig(
                        algorithm=spec,
                        max_microbatches=mbs,
                        chunk_kb=chunk_kb,
                        tb_allowance=allowance,
                    )
                    shape = effective_shape(config)
                    if shape is None or shape in seen:
                        continue
                    seen[shape] = len(candidates)
                    candidates.append(config)
    return candidates


# ----------------------------------------------------------------------
# Bounding and scoring (parallel_sweep targets — module-level, picklable)
# ----------------------------------------------------------------------


def _plan_point(point: dict):
    """The execution plan of one candidate."""
    from ..core import ResCCLBackend

    cell = Cell(**point["cell"])
    config = TunedConfig.from_dict(point["config"])
    cluster = cell.cluster()
    backend = ResCCLBackend(
        scheduler=config.scheduler,
        max_microbatches=config.max_microbatches,
        target_chunk_kb=config.chunk_kb,
        tb_allowance=config.tb_allowance,
        use_tuning=False,  # scoring must never consult an installed table
    )
    program = resolve_spec(config.algorithm, cluster)
    return backend.plan(cluster, program, float(cell.buffer_bytes))


def _bound_point(point: dict) -> float:
    """Plan one candidate and return its completion-time lower bound."""
    return lower_bound(_plan_point(point)).bound_us


def _score_point(point: dict) -> float:
    """Plan one candidate and return its ``exact`` completion time."""
    from ..runtime import simulate

    return simulate(_plan_point(point)).completion_time_us


def candidate_points(cell: Cell, candidates: Sequence[TunedConfig]) -> List[dict]:
    """The sweep points of a cell's candidates, in candidate order."""
    return [
        {"cell": cell.to_dict(), "config": config.to_dict()}
        for config in candidates
    ]


# ----------------------------------------------------------------------
# The tuner driver
# ----------------------------------------------------------------------


@dataclass
class CellResult:
    """Outcome of tuning (or skipping) one cell."""

    cell: Cell
    status: str  # "scored" | "skipped" | "failed"
    entry: Optional[dict] = None
    candidates: int = 0
    exact_scored: int = 0
    #: Summed per-point cost of planning and bounding every candidate,
    #: and of the exact simulations (stable under parallelism), plus
    #: the cell's wall clock.
    bound_cost_s: float = 0.0
    exact_cost_s: float = 0.0
    wall_s: float = 0.0
    #: The winner's lower bound (reported, not stored in the table).
    bound_us: float = 0.0
    error: str = ""

    @property
    def search_cost_s(self) -> float:
        return self.bound_cost_s + self.exact_cost_s

    @property
    def improvement(self) -> float:
        """Fractional completion-time win of tuned over default."""
        if self.entry is None or self.entry["default_us"] <= 0:
            return 0.0
        return 1.0 - self.entry["tuned_us"] / self.entry["default_us"]


@dataclass
class TuneReport:
    """Everything one ``tune()`` run did, plus the resulting table."""

    table: TuningTable
    results: List[CellResult] = field(default_factory=list)

    @property
    def scored(self) -> List[CellResult]:
        return [r for r in self.results if r.status == "scored"]

    @property
    def skipped(self) -> List[CellResult]:
        return [r for r in self.results if r.status == "skipped"]

    @property
    def search_cost_s(self) -> float:
        return sum(r.search_cost_s for r in self.results)


def tune(
    cells: Sequence[Cell],
    table_path,
    jobs: Optional[int] = None,
    schedulers: Sequence[str] = SCHEDULER_CHOICES,
    mbs_grid: Sequence[int] = DEFAULT_MBS_GRID,
    chunk_kb_grid: Sequence[int] = DEFAULT_CHUNK_KB_GRID,
    tb_allowance_grid: Sequence[Optional[int]] = DEFAULT_TB_ALLOWANCE_GRID,
    force: bool = False,
) -> TuneReport:
    """Tune every cell and persist winners to ``table_path``.

    Args:
        jobs: sweep worker processes, and so the width of each wave of
            exact simulations; ``None`` means one per CPU core.
        force: re-score cells already present in the table instead of
            skipping them (the resumability default).
    """
    logger = get_logger("tuner")
    table = TuningTable.load(table_path)
    report = TuneReport(table=table)
    registry = current_registry()

    for cell in cells:
        cluster = cell.cluster()
        key = cell_key(cell.collective, cell.buffer_bytes, cluster.fingerprint())
        if key in table.entries and not force:
            logger.info("tune-cell-skipped", cell=cell.label())
            if registry is not None:
                registry.inc("tuning_cells_skipped_total")
            report.results.append(CellResult(cell=cell, status="skipped",
                                             entry=table.entries[key]))
            continue

        started = time.perf_counter()
        with obs_span("tune-cell", cell=cell.label()):
            candidates = candidate_space(
                cell, cluster, schedulers=schedulers, mbs_grid=mbs_grid,
                chunk_kb_grid=chunk_kb_grid,
                tb_allowance_grid=tb_allowance_grid,
            )
            logger.info("tune-cell-start", cell=cell.label(),
                        candidates=len(candidates))
            result = _tune_cell(cell, cluster, candidates, jobs)
        result.wall_s = time.perf_counter() - started
        report.results.append(result)
        if result.status != "scored":
            logger.warning(
                "tune-cell-failed", cell=cell.label(), error=result.error
            )
            continue
        if registry is not None:
            registry.inc("tuning_cells_scored_total")
            registry.inc("tuning_candidates_exact_total", result.exact_scored)
        table.put(result.entry)
        # Atomic per-cell save: an interrupted run resumes from here.
        table.save(table_path)
        logger.info(
            "tune-cell-done",
            cell=cell.label(),
            winner=result.entry["config"]["algorithm"],
            tuned_us=round(result.entry["tuned_us"], 1),
            default_us=round(result.entry["default_us"], 1),
            bound_us=round(result.bound_us, 1),
            improvement=round(result.improvement, 4),
            simulated=result.exact_scored,
            candidates=result.candidates,
            wall_s=round(result.wall_s, 2),
        )
    return report


def _tune_cell(
    cell: Cell,
    cluster: Cluster,
    candidates: Sequence[TunedConfig],
    jobs: Optional[int],
) -> CellResult:
    """Branch and bound over one cell's candidates (index 0 = default)."""
    result = CellResult(cell=cell, status="failed", candidates=len(candidates))
    points = candidate_points(cell, candidates)
    # Bound inline: the plans land in this process's plan cache, which
    # forked scoring workers inherit.  A candidate that cannot be
    # planned cannot be scored either; only the default is scored
    # regardless.
    bounded = parallel_sweep(_bound_point, points, jobs=1, strict=False)
    result.bound_cost_s = sum(o.wall_s for o in bounded)
    bounds = {o.index: o.value for o in bounded if o.ok}
    queue = deque(sorted((bounds[i], i) for i in bounds if i != 0))
    width = max(1, (os.cpu_count() or 1) if jobs is None else jobs)

    best: Optional[Tuple[float, int]] = None  # (tuned_us, index)
    wave: List[int] = [0]
    while True:
        # Ascending order: once one candidate is bounded out, all later
        # ones are too.
        while queue and len(wave) < width and (best is None or queue[0] < best):
            wave.append(queue.popleft()[1])
        if not wave:
            break
        outcomes = parallel_sweep(
            _score_point, [points[i] for i in wave], jobs=jobs, strict=False
        )
        for index, outcome in zip(wave, outcomes):
            result.exact_scored += 1
            result.exact_cost_s += outcome.wall_s
            if index == 0 and not outcome.ok:
                result.error = outcome.error
                return result
            if index == 0:
                default_us = outcome.value
            if outcome.ok and (best is None or (outcome.value, index) < best):
                best = (outcome.value, index)
        wave = []

    tuned_us, winner_index = best
    result.bound_us = bounds.get(winner_index, 0.0)
    result.entry = make_entry(
        collective=cell.collective,
        buffer_bytes=cell.buffer_bytes,
        cluster=cluster,
        config=candidates[winner_index],
        tuned_us=tuned_us,
        default_us=default_us,
        default_algorithm=candidates[0].algorithm,
    )
    result.status = "scored"
    return result


__all__ = [
    "Cell",
    "CellResult",
    "DEFAULT_CHUNK_KB_GRID",
    "DEFAULT_MBS_GRID",
    "DEFAULT_TB_ALLOWANCE_GRID",
    "SCHEDULER_CHOICES",
    "TuneReport",
    "candidate_points",
    "candidate_space",
    "default_config",
    "tune",
]
