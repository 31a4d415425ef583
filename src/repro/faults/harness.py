"""Chaos harness: run an execution plan under an injected fault scenario.

:func:`run_with_faults` is the one-stop entry used by the CLI
(``resccl run --inject ...``), the resilience experiment, and the
benchmarks: it measures the clean baseline first (which also yields the
horizon the fault generator spreads events over), builds a seeded
:class:`~repro.faults.plan.FaultPlan` restricted to the contention edges
the plan actually exercises, then re-runs under injection with the
requested recovery policy and ring fallback armed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..obs.metrics import current_registry
from ..runtime.metrics import SimReport
from ..runtime.plan import ExecutionPlan
from ..runtime.simulator import Simulator
from .plan import FaultPlan, parse_inject_spec
from .recovery import RecoveryPolicy, ResilientRunner, make_policy


def _publish_fault_metrics(report: SimReport) -> None:
    """Publish the faulted run's counters into the ambient registry."""
    registry = current_registry()
    stats = report.fault_stats
    if registry is None or stats is None:
        return
    registry.inc("fault_injected_total", stats.injected)
    registry.inc("fault_stalls_detected_total", stats.detected_stalls)
    registry.inc("fault_recovered_total", stats.recovered)
    registry.inc("fault_retries_total", stats.retries)
    registry.inc("fault_unrecovered_total", stats.unrecovered)
    registry.inc("fault_fallbacks_total", stats.fallbacks)
    registry.inc("fault_replans_total", stats.replans)
    registry.set("fault_downtime_us", stats.downtime_us)
    for latency in stats.recovery_latencies_us:
        registry.observe("fault_recovery_latency_us", latency)


def plan_edges(plan: ExecutionPlan) -> List[str]:
    """Contention edges the plan's task routes actually traverse."""
    edges = set()
    for task in plan.dag.tasks:
        edges.update(plan.cluster.path(task.src, task.dst).edges)
    return sorted(edges)


@dataclass
class FaultRunOutcome:
    """Baseline vs faulted run of one plan under one fault scenario."""

    baseline: SimReport
    report: SimReport
    fault_plan: FaultPlan

    @property
    def goodput_ratio(self) -> float:
        """Faulted algbw as a fraction of the clean run's (<= ~1.0)."""
        if self.baseline.algo_bandwidth <= 0.0:
            return 0.0
        return self.report.algo_bandwidth / self.baseline.algo_bandwidth

    @property
    def slowdown(self) -> float:
        """Faulted completion time over clean completion time (>= ~1.0)."""
        if self.baseline.completion_time_us <= 0.0:
            return 1.0
        return self.report.completion_time_us / self.baseline.completion_time_us


def run_with_faults(
    plan: ExecutionPlan,
    inject: Union[str, FaultPlan, None],
    seed: int = 0,
    intensity: float = 1.0,
    recovery: Union[str, RecoveryPolicy, None] = "fallback",
    record_trace: bool = False,
    background_traffic=None,
    fallback_capacity_factor: float = 0.25,
    verify: bool = True,
    max_replans: int = 3,
) -> FaultRunOutcome:
    """Run ``plan`` clean, then under faults, and report both.

    Args:
        plan: the compiled execution plan to stress.
        inject: a ``--inject`` spec string (``link-flap``,
            ``link-kill:count=2``, ...), a prebuilt :class:`FaultPlan`,
            or ``None``/empty for a control run with the injector armed
            on an empty schedule.
        seed: single RNG seed for schedule generation (determinism).
        intensity: scales the generated event count (cumulative prefix);
            in [0, 1].
        recovery: policy name (``none``/``retry``/``fallback``/
            ``replan``) or a policy instance.
        record_trace: record fault/recovery :class:`TraceEvent`\\ s.
        background_traffic: forwarded to both runs.
        fallback_capacity_factor: derating applied to dead edges when the
            run falls back to a ring plan, in [0, 1] (0 models "no
            failover path": a partition then raises ``RecoveryImpossible``).
        verify: prove the collective postcondition of every surviving
            run — including stitched checkpoint + resume executions —
            with the semantic delivery verifier.
        max_replans: re-replanning budget before escalating to ring.

    A value outside [0, 1] raises ``ValueError``.
    """
    for name, value in (
        ("intensity", intensity),
        ("fallback_capacity_factor", fallback_capacity_factor),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    baseline = Simulator(
        plan,
        background_traffic=background_traffic,
        record_trace=False,
    ).run()

    if isinstance(inject, FaultPlan):
        fault_plan = inject
    elif inject:
        fault_plan = parse_inject_spec(
            inject,
            edges=plan_edges(plan),
            horizon_us=baseline.completion_time_us,
            seed=seed,
            intensity=intensity,
            window_us=plan.config.watchdog_window_us,
        )
    else:
        fault_plan = FaultPlan(seed=seed)

    policy: Optional[RecoveryPolicy]
    if isinstance(recovery, RecoveryPolicy):
        policy = recovery
    else:
        policy = make_policy(recovery or "none")

    runner = ResilientRunner(
        plan,
        fault_plan,
        policy=policy,
        record_trace=record_trace,
        background_traffic=background_traffic,
        fallback_capacity_factor=fallback_capacity_factor,
        max_replans=max_replans,
        verify=verify,
    )
    report = runner.run()
    if plan.config.collapse_microbatches and plan.n_microbatches > 1:
        # Fast-fidelity temporal collapse is never applied on the fault
        # path: sibling micro-batch timing is observable through
        # checkpoints, per-instance retries, and resume stitching.  The
        # resilient runner builds Simulators directly (no collapse),
        # so record the refusal exactly as ``simulate`` would.
        report.counters.agg_collapse_disabled = 1
        baseline.counters.agg_collapse_disabled = 1
    _publish_fault_metrics(report)
    return FaultRunOutcome(
        baseline=baseline, report=report, fault_plan=fault_plan
    )


#: The seeded chaos corpus: every (algorithm, scenario, seed) cell is
#: replayed identically for each recovery policy under test.
CHAOS_ALGORITHMS = ("ring-allreduce", "ring-allgather", "mesh-allreduce")
CHAOS_SCENARIOS = ("link-flap", "link-kill", "chaos")
CHAOS_SEEDS = (0, 1)


class ChaosCorpusError(RuntimeError):
    """A chaos-corpus cell failed with an unexpected exception.

    The worker's formatted traceback is in the message; ``rows`` holds
    the full corpus result (failed cells carry ``outcome="failed"`` and
    an ``error`` traceback string) for post-mortem inspection.
    """

    def __init__(self, message: str, rows: List[dict]) -> None:
        super().__init__(message)
        self.rows = rows


def _chaos_cell(point: dict) -> dict:
    """Run one (algorithm, scenario, seed, policy) corpus cell.

    Module-level so the parallel sweep can pickle it; each worker
    rebuilds the cluster, backend, and plan from the cell coordinates
    (compiles hit the worker's plan cache across that worker's cells).
    Only :class:`SimulationDeadlock` is an expected outcome here; every
    other exception propagates to the sweep runner as a failure.
    """
    from ..algorithms.registry import build_algorithm
    from ..core.backend import ResCCLBackend
    from ..runtime.simulator import SimulationDeadlock
    from ..topology import Cluster

    cluster = Cluster(
        nodes=point["nodes"], gpus_per_node=point["gpus_per_node"]
    )
    backend = ResCCLBackend(max_microbatches=4)
    program = build_algorithm(point["algorithm"], cluster)
    plan = backend.plan(cluster, program, point["buffer_mb"] * 1e6)
    row = {
        "algorithm": point["algorithm"],
        "scenario": point["scenario"],
        "seed": point["seed"],
        "policy": point["policy"],
        "outcome": "completed",
        "goodput_ratio": 0.0,
        "replans": 0,
        "fallbacks": 0,
    }
    try:
        outcome = run_with_faults(
            plan,
            point["scenario"],
            seed=point["seed"],
            recovery=point["policy"],
            verify=True,
        )
    except SimulationDeadlock:
        row["outcome"] = "stalled"
    else:
        row["goodput_ratio"] = outcome.goodput_ratio
        stats = outcome.report.fault_stats
        if stats is not None:
            row["replans"] = stats.replans
            row["fallbacks"] = stats.fallbacks
    return row


def run_chaos_corpus(
    policies: Sequence[str] = ("retry", "fallback", "replan"),
    algorithms: Sequence[str] = CHAOS_ALGORITHMS,
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    seeds: Sequence[int] = CHAOS_SEEDS,
    nodes: int = 2,
    gpus_per_node: int = 4,
    buffer_mb: float = 8.0,
    jobs: int = 1,
    strict: bool = True,
) -> List[dict]:
    """Replay the seeded fault corpus under the given recovery policies.

    Every surviving run is postcondition-checked by the semantic
    delivery verifier (``verify=True`` hard-fails on any violation) —
    this is the CI chaos-matrix entry point.  Runs that legitimately
    cannot survive a scenario under a weak policy (e.g. ``retry`` against
    a permanent kill) are recorded as ``stalled`` rather than failed.

    ``jobs > 1`` fans cells out over worker processes.  An unexpected
    exception in any cell (in-process or in a worker) marks that cell
    ``outcome="failed"`` with its traceback in ``error``; with
    ``strict=True`` (the default) the corpus then raises
    :class:`ChaosCorpusError` carrying the first failing cell's
    traceback — worker exceptions are never silently dropped.

    Returns one row per (algorithm, scenario, seed, policy) cell, in
    corpus order regardless of ``jobs``.
    """
    from ..experiments.base import parallel_sweep

    points = [
        {
            "algorithm": algo_name,
            "scenario": scenario,
            "seed": seed,
            "policy": policy,
            "nodes": nodes,
            "gpus_per_node": gpus_per_node,
            "buffer_mb": buffer_mb,
        }
        for algo_name in algorithms
        for scenario in scenarios
        for seed in seeds
        for policy in policies
    ]
    outcomes = parallel_sweep(_chaos_cell, points, jobs=jobs, strict=False)

    rows: List[dict] = []
    first_failure = None
    for outcome in outcomes:
        if outcome.ok:
            rows.append(outcome.value)
            continue
        point = outcome.point
        rows.append(
            {
                "algorithm": point["algorithm"],
                "scenario": point["scenario"],
                "seed": point["seed"],
                "policy": point["policy"],
                "outcome": "failed",
                "goodput_ratio": 0.0,
                "replans": 0,
                "fallbacks": 0,
                "error": outcome.error,
            }
        )
        if first_failure is None:
            first_failure = outcome
    if strict and first_failure is not None:
        cell = first_failure.point
        raise ChaosCorpusError(
            f"chaos cell ({cell['algorithm']}, {cell['scenario']}, "
            f"seed={cell['seed']}, {cell['policy']}) failed:\n"
            f"{first_failure.error}",
            rows,
        )
    return rows


__all__ = [
    "CHAOS_ALGORITHMS",
    "CHAOS_SCENARIOS",
    "CHAOS_SEEDS",
    "ChaosCorpusError",
    "FaultRunOutcome",
    "plan_edges",
    "run_chaos_corpus",
    "run_with_faults",
]
