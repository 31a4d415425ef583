"""Thousand-GPU simulation scale-up benchmark.

Sweeps mesh-allreduce from 2x8 up to 64x8 (512 GPUs) and records, per
scale, the wall clock of the optimized simulator (incremental re-rater
over a per-edge share cache + earliest-wins lazy invalidation + one
solver pass per event instant + a step table lowered once per TB)
against the pre-scale-out discipline (from-scratch edge shares, every
step lowered from scratch, eager repost-every-change invalidation),
rebuilt from the reference classes in ``tests/oracles/rates.py`` and
``tests/oracles/eager.py``.  Writes ``BENCH_sim_scale.json`` at the repo
root for CI diffing.

Asserted acceptance shape:

* **>= 3x wall-time speedup** over the pre-PR baseline at 16x8;
* **near-linear wall-time-vs-flows scaling** — the log-log exponent of
  wall time against admitted flows across the sweep stays well below
  the super-linear regime the per-event heap + dense re-rater exhibit;
* **bit-identical reports** between the production network and the
  from-scratch-share network in exact mode (work counters excepted);
* **fast fidelity** (``SimConfig.with_fidelity("fast")``) completes
  within 15% of the exact completion time while doing less work.

The baseline is only timed through 16x8: its wall time grows
super-linearly (393 s at 32x8 on the reference VM, vs 38 s optimized),
so larger baseline points would add tens of minutes for no additional
signal.  Scales above 16x8 run the optimized simulator only and are
gated behind ``RESCCL_SIM_BENCH_SCALES=full`` to keep the default
benchmark run short; the committed JSON is generated with the full
sweep.  Timing runs are interleaved baseline/optimized with best-of-N
so single-core machine noise hits both configurations alike.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from pathlib import Path

from conftest import once

from repro import MB
from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.runtime.metrics import SimCounters
from repro.runtime.simulator import Simulator, simulate
from repro.topology import Cluster
from tests.oracles.eager import EagerSimulator
from tests.oracles.rates import FromScratchStepSimulator, ScalarFlowNetwork

OUT = Path(__file__).resolve().parent.parent / "BENCH_sim_scale.json"

ALGO = "mesh-allreduce"
BUFFER_MB = 64
MAX_MICROBATCHES = 4

#: Node counts (x8 GPUs each) always swept; the baseline is timed at
#: every one of these and the 3x assertion applies to the largest.
SCALES = (2, 4, 8, 16)
#: Optimized-only extension swept when RESCCL_SIM_BENCH_SCALES=full.
FULL_SCALES = (32, 64)

MIN_SPEEDUP_AT_16X8 = 3.0
#: Upper bound on the log-log wall-vs-flows exponent across the sweep.
#: Linear scaling is 1.0; the pre-PR simulator measures ~1.8-2.0 on the
#: same sweep.  1.35 leaves room for log-factor queue costs and timer
#: noise while still rejecting any super-linear regression.
MAX_SCALING_EXPONENT = 1.35
MAX_FAST_REL_ERROR = 0.15

#: The pre-scale-out simulator discipline: from-scratch edge shares
#: (network), every step lowered from scratch, and eager
#: repost-every-rate-change event invalidation (simulator).
BASELINE = dict(
    network="ScalarFlowNetwork",
    simulator=["EagerSimulator", "FromScratchStepSimulator"],
)


class _BaselineSimulator(EagerSimulator, FromScratchStepSimulator):
    network_class = ScalarFlowNetwork


def _baseline(plan):
    return _BaselineSimulator(plan).run()


def _fingerprint(report):
    """Physical report identity: everything but the work counters."""
    data = dataclasses.asdict(report)
    for fieldname in SimCounters.WORK_COUNTER_FIELDS:
        data["counters"].pop(fieldname)
    data["mode"] = report.mode.value
    return data


def _interleaved_best(runs, repeats=2):
    """Best-of-N wall clock per run, rounds interleaved across runs.

    On a single-core VM a background hiccup during one measurement run
    would skew a sequential A/A/B/B ordering; interleaving A/B/A/B makes
    the best-of representative for both.
    """
    best = [math.inf] * len(runs)
    reports = [None] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            reports[i] = run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, reports


def _plan_for(nodes):
    cluster = Cluster(nodes=nodes, gpus_per_node=8)
    program = build_algorithm(ALGO, cluster)
    return ResCCLBackend(max_microbatches=MAX_MICROBATCHES).plan(
        cluster, program, BUFFER_MB * MB
    )


def _sweep():
    full = os.environ.get("RESCCL_SIM_BENCH_SCALES", "") == "full"
    rows = []
    for nodes in SCALES + (FULL_SCALES if full else ()):
        plan = _plan_for(nodes)
        time_baseline = nodes <= max(SCALES)
        # Large optimized-only points are stable enough single-shot and
        # expensive enough (190 s at 64x8) that repeats would double the
        # sweep for little signal.
        repeats = 2 if time_baseline else 1
        # The simulator runs directly: simulate() would answer the
        # repeat of this keyed plan from the report tier.
        runs = [lambda: Simulator(plan).run()]
        if time_baseline:
            runs.append(lambda: _baseline(plan))
        walls, reports = _interleaved_best(runs, repeats=repeats)
        new = reports[0]
        c = new.counters
        row = {
            "scale": f"{nodes}x8",
            "gpus": nodes * 8,
            "flows": c.flows_admitted,
            "events_posted": c.events_posted,
            "events_popped": c.events_popped,
            "stale_events_skipped": c.stale_events_skipped,
            "rate_updates": c.rate_updates,
            "reallocations": c.reallocations,
            "queue_depth_max": c.queue_depth_max,
            "completion_time_us": new.completion_time_us,
            "wall_s": walls[0],
            "wall_s_baseline": walls[1] if time_baseline else None,
            "speedup": walls[1] / walls[0] if time_baseline else None,
        }
        rows.append(row)
        print(
            f"  {row['scale']:>5} {row['flows']:>7} flows  "
            f"new {row['wall_s']:.2f}s"
            + (
                f"  base {row['wall_s_baseline']:.2f}s  "
                f"speedup {row['speedup']:.2f}x"
                if time_baseline
                else "  (optimized only)"
            ),
            flush=True,
        )
    return rows


class _ScalarSimulator(Simulator):
    network_class = ScalarFlowNetwork


def _fingerprint_identity():
    """Production and from-scratch-share networks pin the same physical
    report."""
    plan = _plan_for(4)
    production = simulate(plan)
    scalar = _ScalarSimulator(plan).run()
    return {
        "scale": "4x8",
        "production_equals_scalar": (
            _fingerprint(production) == _fingerprint(scalar)
        ),
        "reallocations": production.counters.reallocations,
        "scalar_passes": scalar.counters.scalar_passes,
    }


def _fidelity_check():
    """Fast fidelity stays within the documented completion error bound.

    Measured at 2x8 — the largest sweep scale where ``plan_microbatches``
    still yields n_microbatches > 1 for this algorithm/buffer (mesh
    chunk count equals the rank count, so at 8x8 and above a 64 MB
    buffer plans a single micro-batch and collapse has nothing to do).
    The collapse approximation trades away micro-batch pipeline overlap,
    so its error grows with fabric contention; 15% is the contract at
    micro-batched scales, not a universal bound.
    """
    plan = _plan_for(2)
    exact = simulate(plan)
    t0 = time.perf_counter()
    fast = simulate(
        dataclasses.replace(plan, config=plan.config.with_fidelity("fast"))
    )
    wall_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    Simulator(plan).run()  # simulate(plan) would be a report-tier hit
    wall_exact = time.perf_counter() - t0
    rel = abs(fast.completion_time_us - exact.completion_time_us) / (
        exact.completion_time_us
    )
    return {
        "scale": "2x8",
        "n_microbatches": plan.n_microbatches,
        "completion_exact_us": exact.completion_time_us,
        "completion_fast_us": fast.completion_time_us,
        "rel_error": rel,
        "bound": MAX_FAST_REL_ERROR,
        "wall_s_exact": wall_exact,
        "wall_s_fast": wall_fast,
        "fast_runs_collapsed": fast.counters.agg_runs_collapsed,
        "fast_rate_updates": fast.counters.rate_updates,
        "exact_rate_updates": exact.counters.rate_updates,
    }


def test_sim_scale(once):
    rows = once(_sweep)
    identity = _fingerprint_identity()
    fidelity = _fidelity_check()
    result = {
        "algorithm": ALGO,
        "buffer_mb": BUFFER_MB,
        "max_microbatches": MAX_MICROBATCHES,
        "baseline_config": BASELINE,
        "scales": rows,
        "fingerprint_identity": identity,
        "fidelity": fidelity,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {OUT}")

    # >= 3x over the pre-PR discipline at the largest baselined scale.
    largest_baselined = [r for r in rows if r["speedup"] is not None][-1]
    assert largest_baselined["scale"] == "16x8"
    assert largest_baselined["speedup"] >= MIN_SPEEDUP_AT_16X8, largest_baselined

    # Near-linear wall-vs-flows scaling across the sweep (8x8 up, where
    # fixed per-run costs no longer dominate the measurement).
    lo = next(r for r in rows if r["scale"] == "8x8")
    hi = rows[-1]
    exponent = math.log(hi["wall_s"] / lo["wall_s"]) / math.log(
        hi["flows"] / lo["flows"]
    )
    print(
        f"  wall-vs-flows exponent {lo['scale']}->{hi['scale']}: "
        f"{exponent:.2f} (bound {MAX_SCALING_EXPONENT})"
    )
    assert exponent <= MAX_SCALING_EXPONENT, (lo, hi, exponent)

    # Exact mode: the share cache is an optimization, not a model.
    assert identity["production_equals_scalar"], identity
    assert identity["scalar_passes"] > 0, identity

    # Fast fidelity: collapse actually engaged, bounded completion
    # error, strictly less rate work.
    assert fidelity["n_microbatches"] > 1, fidelity
    assert fidelity["fast_runs_collapsed"] > 0, fidelity
    assert fidelity["rel_error"] <= MAX_FAST_REL_ERROR, fidelity
    assert fidelity["fast_rate_updates"] < fidelity["exact_rate_updates"], fidelity
