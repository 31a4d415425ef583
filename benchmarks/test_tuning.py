"""Autotuner acceptance benchmark.

Tunes the 2x4 serving matrix (allreduce / allgather / reducescatter at
64 and 128 MB) and records, per cell, the tuned winner against the untuned
ring default, the request-time cost of serving a tuned plan against an
ordinary plan-cache hit, and the search cost of the branch-and-bound
tuner against scoring the whole grid under ``exact`` (the exhaustive
reference in ``tests/oracles/tuning.py``).  Writes ``BENCH_tuning.json``
at the repo root for CI diffing.

Asserted acceptance shape:

* the tuned winner is **strictly better** than the default on every
  cell, and **>= 10% better** on at least one;
* a **table hit adds no search to the hot path** — best-of-N
  ``ResCCLBackend.plan`` latency with the table installed stays within
  2x of a plain plan-cache hit;
* the lower bound cuts summed search cost **>= 2x** against the
  exhaustive reference while writing a **byte-identical table**.

Search costs are compared as summed per-point seconds — every plan,
bound and simulation (``CellResult.bound_cost_s + exact_cost_s``) —
which is stable under worker parallelism, rather than end-to-end wall
clock.  The plan cache is emptied before each search, so neither
inherits the other's plans.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from conftest import once

from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend, plancache
from repro.tuning.table import configure_tuning
from repro.tuning.tuner import Cell, tune
from tests.oracles.tuning import exhaustive_tune

OUT = Path(__file__).resolve().parent.parent / "BENCH_tuning.json"

#: 64 MB and up keeps every candidate genuinely micro-batched.
CELLS = tuple(
    Cell(collective=collective, buffer_mb=buffer_mb, nodes=2, gpus=4)
    for collective in ("allreduce", "allgather", "reducescatter")
    for buffer_mb in (64, 128)
)

MIN_CELLS_IMPROVED = 3
MIN_BEST_IMPROVEMENT = 0.10
MAX_HIT_LATENCY_RATIO = 2.0
MIN_SEARCH_COST_REDUCTION = 2.0

LATENCY_ROUNDS = 25


def _best_of(fn, rounds=LATENCY_ROUNDS):
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _hit_latencies(table_path):
    """Best-of-N ``plan()`` latency per cell: table hit vs cache hit.

    Both paths are warmed first, so the comparison is pure request-time
    overhead — the tuned path pays the table lookup plus the memoized
    program resolve on top of the same plan-cache hit.
    """
    rows = []
    for cell in CELLS:
        cluster = cell.cluster()
        program = build_algorithm(f"ring-{cell.collective}", cluster)
        tuned_backend = ResCCLBackend(max_microbatches=16)
        plain_backend = ResCCLBackend(max_microbatches=16, use_tuning=False)
        try:
            configure_tuning(str(table_path))
            tuned_backend.plan(cluster, program, cell.buffer_bytes)
            tuned_s = _best_of(
                lambda: tuned_backend.plan(cluster, program, cell.buffer_bytes)
            )
        finally:
            configure_tuning(None)
        plain_backend.plan(cluster, program, cell.buffer_bytes)
        plain_s = _best_of(
            lambda: plain_backend.plan(cluster, program, cell.buffer_bytes)
        )
        rows.append(
            {
                "cell": cell.label(),
                "table_hit_s": tuned_s,
                "plan_cache_hit_s": plain_s,
                "ratio": tuned_s / plain_s,
            }
        )
        print(
            f"  {cell.label():>28}  table hit {tuned_s * 1e6:7.1f}us"
            f"  cache hit {plain_s * 1e6:7.1f}us"
            f"  ratio {tuned_s / plain_s:.2f}x",
            flush=True,
        )
    return rows


def _cell_rows(report):
    rows = []
    for result in report.scored:
        entry = result.entry
        rows.append(
            {
                "cell": result.cell.label(),
                "winner": entry["config"]["algorithm"],
                "winner_config": entry["config"],
                "default": entry["default_algorithm"],
                "tuned_us": entry["tuned_us"],
                "default_us": entry["default_us"],
                "improvement": result.improvement,
                "bound_us": result.bound_us,
                "candidates": result.candidates,
                "exact_scored": result.exact_scored,
                "bound_cost_s": result.bound_cost_s,
                "exact_cost_s": result.exact_cost_s,
                "wall_s": result.wall_s,
            }
        )
        print(
            f"  {result.cell.label():>28}  {entry['config']['algorithm']:<18}"
            f"  tuned {entry['tuned_us']:8.1f}us"
            f"  bound {result.bound_us:8.1f}us"
            f"  default {entry['default_us']:8.1f}us"
            f"  {result.improvement:+.1%}"
            f"  simulated {result.exact_scored}/{result.candidates}",
            flush=True,
        )
    return rows


def test_tuning(once, tmp_path):
    tuned_path = tmp_path / "tuned.json"
    exact_path = tmp_path / "exact.json"

    print("\nbranch-and-bound search:", flush=True)
    plancache.get_cache().clear()
    tuned = once(tune, CELLS, tuned_path)
    print("exhaustive exact reference search:", flush=True)
    plancache.get_cache().clear()
    exact = exhaustive_tune(CELLS, exact_path)

    cells = _cell_rows(tuned)
    print("serving latency (best of "
          f"{LATENCY_ROUNDS}):", flush=True)
    latency = _hit_latencies(tuned_path)

    tuned_cost = sum(r.search_cost_s for r in tuned.scored)
    exact_cost = sum(r.search_cost_s for r in exact.scored)
    winners = {
        key: entry["config"] for key, entry in tuned.table.entries.items()
    }
    reference = {
        key: entry["config"] for key, entry in exact.table.entries.items()
    }
    search = {
        "tuned_cost_s": tuned_cost,
        "exact_only_cost_s": exact_cost,
        "reduction": exact_cost / tuned_cost if tuned_cost else None,
        "simulated": sum(r.exact_scored for r in tuned.scored),
        "candidates": sum(r.candidates for r in tuned.scored),
        "winners_identical": winners == reference,
        "table_identical": tuned_path.read_bytes() == exact_path.read_bytes(),
    }
    print(
        f"  search cost: branch-and-bound {tuned_cost:.2f}s"
        f"  exact-only {exact_cost:.2f}s"
        f"  reduction {search['reduction']:.2f}x"
        f"  ({search['simulated']}/{search['candidates']} simulated)",
        flush=True,
    )

    result = {
        "matrix": [cell.to_dict() for cell in CELLS],
        "cells": cells,
        "serving_latency": latency,
        "search": search,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {OUT}")

    # Tuned strictly better everywhere, >= 10% somewhere.
    assert len(cells) >= MIN_CELLS_IMPROVED, cells
    assert all(row["improvement"] > 0 for row in cells), cells
    assert max(row["improvement"] for row in cells) >= MIN_BEST_IMPROVEMENT, (
        cells
    )

    # Serving a tuned plan costs a table lookup, not a search.
    assert all(
        row["ratio"] <= MAX_HIT_LATENCY_RATIO for row in latency
    ), latency

    # The bound pays for itself without changing any winner.
    assert search["winners_identical"], (winners, reference)
    assert search["table_identical"], search
    assert search["reduction"] >= MIN_SEARCH_COST_REDUCTION, search
