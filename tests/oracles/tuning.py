"""Exhaustive exact tuning, the reference for the branch-and-bound tuner.

:func:`exhaustive_tune` simulates every candidate of every cell under
``exact`` fidelity and keeps the fastest, ties going to the lower
candidate index.  It plans, scores and records winners through the same
helpers as :func:`repro.tuning.tuner.tune`, so the two must write
byte-identical tables (``tests/test_tuning.py``,
``benchmarks/test_tuning.py``).  Its summed per-point cost is the
baseline the tuner's search cost is compared against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import parallel_sweep
from repro.tuning.table import TuningTable, make_entry
from repro.tuning.tuner import (
    DEFAULT_CHUNK_KB_GRID,
    DEFAULT_MBS_GRID,
    DEFAULT_TB_ALLOWANCE_GRID,
    SCHEDULER_CHOICES,
    Cell,
    CellResult,
    TuneReport,
    _score_point,
    candidate_points,
    candidate_space,
)


def exhaustive_tune(
    cells: Sequence[Cell],
    table_path,
    jobs: Optional[int] = None,
    schedulers: Sequence[str] = SCHEDULER_CHOICES,
    mbs_grid: Sequence[int] = DEFAULT_MBS_GRID,
    chunk_kb_grid: Sequence[int] = DEFAULT_CHUNK_KB_GRID,
    tb_allowance_grid: Sequence[Optional[int]] = DEFAULT_TB_ALLOWANCE_GRID,
) -> TuneReport:
    """Score every candidate of every cell and save the winners."""
    table = TuningTable.load(table_path)
    report = TuneReport(table=table)
    for cell in cells:
        cluster = cell.cluster()
        candidates = candidate_space(
            cell, cluster, schedulers=schedulers, mbs_grid=mbs_grid,
            chunk_kb_grid=chunk_kb_grid, tb_allowance_grid=tb_allowance_grid,
        )
        outcomes = parallel_sweep(
            _score_point, candidate_points(cell, candidates), jobs=jobs,
            strict=False,
        )
        result = CellResult(
            cell=cell, status="failed", candidates=len(candidates),
            exact_scored=len(outcomes),
            exact_cost_s=sum(o.wall_s for o in outcomes),
        )
        report.results.append(result)
        scored = [(o.value, o.index) for o in outcomes if o.ok]
        if not outcomes[0].ok:
            result.error = outcomes[0].error
            continue
        tuned_us, winner = min(scored)
        result.entry = make_entry(
            collective=cell.collective,
            buffer_bytes=cell.buffer_bytes,
            cluster=cluster,
            config=candidates[winner],
            tuned_us=tuned_us,
            default_us=outcomes[0].value,
            default_algorithm=candidates[0].algorithm,
        )
        result.status = "scored"
        table.put(result.entry)
    table.save(table_path)
    return report
