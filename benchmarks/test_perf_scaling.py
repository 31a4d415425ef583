"""Perf extension: incremental rate solver + compiled-plan cache.

Times the discrete-event simulator with the incremental dirty-edge rate
allocator against the brute-force reference allocator
(``BruteForceFlowNetwork`` in ``tests/oracles/rates.py``) on growing
collectives.  The reference solves once per admission
(``PerAdmissionSimulator``), as the production simulator did before it
settled each event instant's joins in one pass, so the reference's work
stays pinned (:data:`REFERENCE_PASSES_LARGEST`) while production gets
faster.  Checks that (a) the two complete at the bit-identical
simulated instant, (b) the incremental solver computes strictly fewer
edge shares, and (c) the wall-clock speedup on the largest collective
clears the 3x acceptance bar.  The speedup over the same brute-force
network run with one pass per instant is reported too
(``speedup_vs_batched_reference``), not asserted.  Also replays a repeated compile sweep through the
content-addressed plan cache (``repro.core.plancache``) and asserts a
>0.9 hit rate plus a working disk tier.  Writes ``BENCH_perf.json`` at
the repo root for CI diffing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import once

from repro import MB
from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend, ResCCLCompiler
from repro.core.plancache import PlanCache
from repro.runtime.simulator import Simulator, simulate
from repro.topology import Cluster
from tests.oracles.rates import BruteForceFlowNetwork, PerAdmissionSimulator

OUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: (nodes, gpus, algorithm, max_microbatches, buffer_mb); the last entry
#: is the largest collective and carries the 3x acceptance assertion.
SCALES = (
    (2, 8, "ring-allreduce", 8, 64),
    (2, 8, "mesh-allreduce", 8, 64),
    (4, 8, "mesh-allreduce", 16, 128),
)

MIN_SPEEDUP_LARGEST = 3.0
#: Solver passes of the per-admission reference on the largest cell.
REFERENCE_PASSES_LARGEST = 10363
MIN_CACHE_HIT_RATE = 0.9
SWEEP_POINTS = 12


def _best_wall_time(plan, run=simulate, repeats: int = 2):
    """Best-of-N wall clock of one simulation (first call also warms)."""
    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = run(plan)
        best = min(best, time.perf_counter() - start)
    return best, report


class _ReferenceSimulator(PerAdmissionSimulator):
    network_class = BruteForceFlowNetwork


class _BatchedReferenceSimulator(Simulator):
    network_class = BruteForceFlowNetwork


def _reference(plan):
    return _ReferenceSimulator(plan).run()


def _batched_reference(plan):
    return _BatchedReferenceSimulator(plan).run()


def _solver_scaling() -> list:
    rows = []
    for nodes, gpus, algo, mbs, buffer_mb in SCALES:
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        program = build_algorithm(algo, cluster)
        plan = ResCCLBackend(max_microbatches=mbs).plan(
            cluster, program, buffer_mb * MB
        )
        wall_fast, fast = _best_wall_time(plan)
        wall_ref, ref = _best_wall_time(plan, run=_reference)
        wall_batched, batched = _best_wall_time(plan, run=_batched_reference)
        rows.append(
            {
                "scale": f"{nodes}x{gpus}",
                "algorithm": algo,
                "buffer_mb": buffer_mb,
                "max_microbatches": mbs,
                "flows": fast.counters.flows_admitted,
                "events_posted": fast.counters.events_posted,
                "events_popped": fast.counters.events_popped,
                "stale_events_skipped": fast.counters.stale_events_skipped,
                "reallocations": fast.counters.reallocations,
                "reallocations_reference": ref.counters.reallocations,
                "shares_computed_incremental": fast.counters.shares_computed,
                "shares_computed_reference": ref.counters.shares_computed,
                "completion_time_us": fast.completion_time_us,
                "completion_time_us_reference": ref.completion_time_us,
                "completion_time_us_batched_reference": (
                    batched.completion_time_us
                ),
                "wall_s_incremental": wall_fast,
                "wall_s_reference": wall_ref,
                "wall_s_batched_reference": wall_batched,
                "speedup": wall_ref / wall_fast,
                "speedup_vs_batched_reference": wall_batched / wall_fast,
            }
        )
    return rows


def _cache_sweep(disk_dir: Path) -> dict:
    """A repeated experiment sweep through one plan cache.

    Mirrors what ``resccl experiment`` does: every sweep point re-enters
    ``compile`` for the same (algorithm, cluster) — only the buffer size
    changes, which is a plan-time knob, so every compile after the first
    must hit.
    """
    cluster = Cluster(nodes=2, gpus_per_node=8)
    program = build_algorithm("ring-allreduce", cluster)
    compiler = ResCCLCompiler()

    cache = PlanCache(cache_dir=disk_dir)
    for _ in range(SWEEP_POINTS):
        cache.compile(compiler, program, cluster)

    # A second process (modeled by a fresh cache over the same dir)
    # starts from the disk tier instead of compiling.
    warm = PlanCache(cache_dir=disk_dir)
    warm.compile(compiler, program, cluster)

    return {
        "sweep_points": SWEEP_POINTS,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "hit_rate": cache.stats.hit_rate,
        "disk_writes": cache.stats.disk_writes,
        "cold_process_disk_hits": warm.stats.disk_hits,
    }


def test_perf_scaling(once, tmp_path):
    scaling = once(_solver_scaling)
    cache = _cache_sweep(tmp_path / "plancache")
    result = {"solver": scaling, "plan_cache": cache}
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {OUT}")
    for row in scaling:
        print(
            f"  {row['scale']} {row['algorithm']:<16} "
            f"{row['flows']} flows  "
            f"inc {row['wall_s_incremental']:.3f}s vs "
            f"ref {row['wall_s_reference']:.3f}s  "
            f"speedup {row['speedup']:.2f}x "
            f"({row['speedup_vs_batched_reference']:.2f}x vs the "
            f"reference batched per instant)"
        )
    print(
        f"  plan cache: {cache['hits']}/{cache['hits'] + cache['misses']} "
        f"hits ({cache['hit_rate']:.1%}), "
        f"{cache['cold_process_disk_hits']} disk hit(s) cold"
    )

    for row in scaling:
        # The optimization is bit-exact on the headline metric and does
        # strictly less rate-solving work.
        assert row["completion_time_us"] == row["completion_time_us_reference"]
        assert (
            row["completion_time_us"]
            == row["completion_time_us_batched_reference"]
        )
        assert (
            row["shares_computed_incremental"]
            < row["shares_computed_reference"]
        ), row
    largest = scaling[-1]
    assert largest["reallocations_reference"] == REFERENCE_PASSES_LARGEST
    assert largest["speedup"] >= MIN_SPEEDUP_LARGEST, largest

    assert cache["misses"] == 1, cache
    assert cache["hit_rate"] > MIN_CACHE_HIT_RATE, cache
    assert cache["disk_writes"] == 1, cache
    assert cache["cold_process_disk_hits"] == 1, cache
