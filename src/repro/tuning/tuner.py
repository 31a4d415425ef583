"""The plan autotuner: two-stage search over plan-shaping knobs.

For each ``(collective, size, topology)`` cell the tuner sweeps the
plan-shaping knobs — plan source (the paper's HPDS-scheduled built-ins
vs the TACCL/TECCL synthesizers), micro-batch count, chunk size, and TB
pipelining allowance — and persists the winner in a
:class:`~repro.tuning.table.TuningTable`.

Search cost stays bounded by successive halving:

1. **Screen** every surviving candidate under the ``fast`` simulation
   fidelity (rate hysteresis + micro-batch collapse — bounded error,
   large speedup).  Candidates whose collapse was a *no-op* (single
   micro-batch, ``agg_collapse_noop``) are logged per cell: for those
   the screen silently paid exact cost, the PR 9 mesh-allreduce gotcha.
2. **Re-score** the top fraction (plus the default config) under
   ``exact`` fidelity and pick the winner, so the final ranking never
   depends on fast-fidelity error.

Before any simulation runs, the candidate grid is pruned TACCL-sketch
style: knob combinations that resolve to the same effective
``(plan source, micro-batch count, chunk, allowance)`` are deduplicated
by cheap static analysis, so most of the grid never reaches the
simulator.

Runs are resumable: cells already present in the table are skipped, and
the table is re-saved atomically after every scored cell, so an
interrupted ``resccl tune`` loses at most the in-flight cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.base import SweepOutcome, parallel_sweep
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
#: prunes further, and successive halving bounds what reaches ``exact``.
DEFAULT_MBS_GRID = (4, 8, 16)
DEFAULT_CHUNK_KB_GRID = (512, 1024, 2048)
DEFAULT_TB_ALLOWANCE_GRID = (None, 2)

#: Fraction of screened candidates re-scored under ``exact``.
DEFAULT_SURVIVOR_FRACTION = 0.25
MIN_SURVIVORS = 3


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
# Scoring (runs in parallel_sweep workers — module-level, picklable)
# ----------------------------------------------------------------------


def _score_point(point: dict) -> dict:
    """Plan + simulate one candidate; the sweep worker target."""
    from ..core import ResCCLBackend
    from ..runtime import simulate

    cell = Cell(**point["cell"])
    config = TunedConfig.from_dict(point["config"])
    cluster = cell.cluster()
    program = resolve_spec(config.algorithm, cluster)
    backend = ResCCLBackend(
        scheduler=config.scheduler,
        max_microbatches=config.max_microbatches,
        target_chunk_kb=config.chunk_kb,
        tb_allowance=config.tb_allowance,
        use_tuning=False,  # scoring must never consult an installed table
    )
    plan = backend.plan(cluster, program, float(cell.buffer_bytes))
    plan = plan.with_fidelity(point["fidelity"])
    report = simulate(plan)
    return {
        "completion_time_us": report.completion_time_us,
        "algo_bandwidth_gbps": report.algo_bandwidth_gbps,
        "n_microbatches": plan.n_microbatches,
        "collapse_noop": report.counters.agg_collapse_noop,
        "runs_collapsed": report.counters.agg_runs_collapsed,
    }


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
    screened: int = 0
    exact_scored: int = 0
    #: Summed per-point simulation cost (stable under parallelism) and
    #: stage wall-clock, for the with/without-screen comparison.
    screen_cost_s: float = 0.0
    exact_cost_s: float = 0.0
    wall_s: float = 0.0
    collapse_noops: int = 0
    error: str = ""

    @property
    def search_cost_s(self) -> float:
        return self.screen_cost_s + self.exact_cost_s

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


def _rank(outcomes: Sequence[SweepOutcome]) -> List[int]:
    """Candidate indices ordered best-first; failures rank last."""
    def sort_key(outcome: SweepOutcome):
        if not outcome.ok:
            return (math.inf, outcome.index)
        return (outcome.value["completion_time_us"], outcome.index)

    return [o.index for o in sorted(outcomes, key=sort_key)]


def tune(
    cells: Sequence[Cell],
    table_path,
    jobs: Optional[int] = None,
    schedulers: Sequence[str] = SCHEDULER_CHOICES,
    mbs_grid: Sequence[int] = DEFAULT_MBS_GRID,
    chunk_kb_grid: Sequence[int] = DEFAULT_CHUNK_KB_GRID,
    tb_allowance_grid: Sequence[Optional[int]] = DEFAULT_TB_ALLOWANCE_GRID,
    screen_fidelity: Optional[str] = "fast",
    survivor_fraction: float = DEFAULT_SURVIVOR_FRACTION,
    force: bool = False,
) -> TuneReport:
    """Tune every cell and persist winners to ``table_path``.

    Args:
        screen_fidelity: ``"fast"`` runs the two-stage search (screen
            then exact re-score of survivors); ``None`` or ``"exact"``
            scores the *whole* grid under exact fidelity in one stage
            (the expensive reference the benchmark compares against).
        force: re-score cells already present in the table instead of
            skipping them (the resumability default).
    """
    logger = get_logger("tuner")
    table = TuningTable.load(table_path)
    report = TuneReport(table=table)
    registry = current_registry()
    two_stage = screen_fidelity not in (None, "exact")

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
            result = _tune_cell(
                cell, cluster, jobs=jobs, schedulers=schedulers,
                mbs_grid=mbs_grid, chunk_kb_grid=chunk_kb_grid,
                tb_allowance_grid=tb_allowance_grid,
                screen_fidelity=screen_fidelity if two_stage else None,
                survivor_fraction=survivor_fraction, logger=logger,
            )
        result.wall_s = time.perf_counter() - started
        report.results.append(result)
        if result.status != "scored":
            logger.warning(
                "tune-cell-failed", cell=cell.label(), error=result.error
            )
            continue
        if registry is not None:
            registry.inc("tuning_cells_scored_total")
            registry.inc("tuning_candidates_screened_total", result.screened)
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
            improvement=round(result.improvement, 4),
            wall_s=round(result.wall_s, 2),
        )
    return report


def _tune_cell(
    cell: Cell,
    cluster: Cluster,
    jobs: Optional[int],
    schedulers: Sequence[str],
    mbs_grid: Sequence[int],
    chunk_kb_grid: Sequence[int],
    tb_allowance_grid: Sequence[Optional[int]],
    screen_fidelity: Optional[str],
    survivor_fraction: float,
    logger,
) -> CellResult:
    candidates = candidate_space(
        cell, cluster, schedulers=schedulers, mbs_grid=mbs_grid,
        chunk_kb_grid=chunk_kb_grid, tb_allowance_grid=tb_allowance_grid,
    )
    result = CellResult(cell=cell, status="failed", candidates=len(candidates))
    logger.info(
        "tune-cell-start",
        cell=cell.label(),
        candidates=len(candidates),
        screen=screen_fidelity or "exact-only",
    )

    def points(indices: Sequence[int], fidelity: str) -> List[dict]:
        return [
            {
                "cell": cell.to_dict(),
                "config": candidates[i].to_dict(),
                "fidelity": fidelity,
            }
            for i in indices
        ]

    exact_indices = list(range(len(candidates)))
    if screen_fidelity is not None:
        screened = parallel_sweep(
            _score_point,
            points(exact_indices, screen_fidelity),
            jobs=jobs,
            strict=False,
        )
        result.screened = len(screened)
        result.screen_cost_s = sum(o.wall_s for o in screened)
        result.collapse_noops = sum(
            o.value["collapse_noop"] for o in screened if o.ok
        )
        # The PR 9 gotcha, surfaced per cell: a no-op collapse means the
        # screen paid exact cost for those candidates (single micro-batch
        # plans have nothing to fold).
        logger.info(
            "tune-screen-done",
            cell=cell.label(),
            screened=len(screened),
            failures=sum(1 for o in screened if not o.ok),
            collapse_noops=result.collapse_noops,
            cost_s=round(result.screen_cost_s, 2),
        )
        keep = max(
            MIN_SURVIVORS,
            int(math.ceil(len(candidates) * survivor_fraction)),
        )
        ranked = _rank(screened)
        survivors = ranked[:keep]
        if 0 not in survivors:  # the default always reaches exact scoring
            survivors.append(0)
        exact_indices = sorted(survivors)

    exact = parallel_sweep(
        _score_point, points(exact_indices, "exact"), jobs=jobs, strict=False
    )
    result.exact_scored = len(exact)
    result.exact_cost_s = sum(o.wall_s for o in exact)
    by_candidate = {
        exact_indices[o.index]: o for o in exact
    }
    default_outcome = by_candidate.get(0)
    winners = [
        (o.value["completion_time_us"], index)
        for index, o in sorted(by_candidate.items())
        if o.ok
    ]
    if not winners or default_outcome is None or not default_outcome.ok:
        failures = [o.error for o in exact if not o.ok]
        result.error = failures[0] if failures else "no candidate scored"
        return result
    tuned_us, winner_index = min(winners)
    result.entry = make_entry(
        collective=cell.collective,
        buffer_bytes=cell.buffer_bytes,
        cluster=cluster,
        config=candidates[winner_index],
        tuned_us=tuned_us,
        default_us=default_outcome.value["completion_time_us"],
        default_algorithm=candidates[0].algorithm,
    )
    result.status = "scored"
    return result


__all__ = [
    "Cell",
    "CellResult",
    "DEFAULT_CHUNK_KB_GRID",
    "DEFAULT_MBS_GRID",
    "DEFAULT_SURVIVOR_FRACTION",
    "DEFAULT_TB_ALLOWANCE_GRID",
    "SCHEDULER_CHOICES",
    "TuneReport",
    "candidate_space",
    "default_config",
    "tune",
]
