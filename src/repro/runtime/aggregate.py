"""Micro-batch aggregation: representative instances with report fan-out.

The kernel generator emits every thread-block program as uniform
micro-batch *runs*: for each task side assigned to a TB, the ``M``
instances ``(task, side, 0..M-1)`` appear consecutively.  Siblings of
one run share their route, per-TB send cap, receive copy duration, and
dependency shape — everything about them is identical except *when* they
execute, because the TB serializes them.  Aggregation exploits the
identical part at two fidelity levels:

* **Exact** (always on) — ``ExecutionPlan.validate`` checks one
  representative run at a time instead of every instance.  Timing is
  untouched: the simulator's step table still gives each instance its
  own TB's send cap and copy time (``Simulator._lower``), and the golden
  digests and ``FromScratchStepSimulator`` in ``tests/oracles/rates.py``
  pin the reports.

* **Fast** (``SimConfig.collapse_microbatches``, part of the ``fast``
  fidelity preset) — :func:`collapse_microbatch_runs` rewrites the plan
  so each run becomes a *single* representative instance carrying the
  run's whole payload (``chunk_bytes * M``), and
  :func:`expand_report` fans the representative back out into ``M``
  per-instance report entries afterwards.  This is approximate: it
  ignores the per-instance route-latency gaps and FIFO-credit
  round-trips between siblings (error sources and the measured bound
  live in ``docs/performance.md``; ``benchmarks/test_sim_scale.py``
  asserts the bound).  Collapse is refused whenever a fault injector,
  recovery policy, or background traffic is present — sibling timing is
  then observable (checkpoints, per-instance retries, contention from
  outside the plan), so only the expanded simulation is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import List, Optional

from .metrics import SimReport, TraceEvent
from .plan import ExecutionPlan, Invocation, TBProgram


@dataclass(frozen=True)
class CollapsedPlan:
    """A plan rewritten to one representative instance per run."""

    plan: ExecutionPlan
    #: Micro-batch count of the original plan (the fan-out factor).
    n_microbatches: int
    #: Micro-batch runs collapsed (send and receive sides counted
    #: separately).
    runs_collapsed: int


def collapse_microbatch_runs(plan: ExecutionPlan) -> Optional[CollapsedPlan]:
    """Collapse each uniform micro-batch run into one instance.

    Returns ``None`` when the plan has a single micro-batch or any TB
    program does not match the uniform-run pattern (in which case the
    caller simulates the plan unchanged).
    """
    n_mb = plan.n_microbatches
    if n_mb <= 1:
        return None
    if not plan._validate_microbatch_runs():
        return None
    runs = 0
    programs: List[TBProgram] = []
    for tb in plan.tb_programs:
        collapsed = [
            Invocation(inv.task_id, inv.side, 0)
            for inv in tb.invocations[::n_mb]
        ]
        runs += len(collapsed)
        programs.append(
            TBProgram(
                rank=tb.rank,
                tb_index=tb.tb_index,
                invocations=collapsed,
                nwarps=tb.nwarps,
                label=tb.label,
            )
        )
    collapsed_plan = dc_replace(
        plan,
        n_microbatches=1,
        chunk_bytes=plan.chunk_bytes * n_mb,
        tb_programs=programs,
    )
    return CollapsedPlan(
        plan=collapsed_plan, n_microbatches=n_mb, runs_collapsed=runs
    )


def expand_report(report: SimReport, collapsed: CollapsedPlan) -> SimReport:
    """Fan a collapsed run's report back out to per-instance entries.

    Mutates ``report`` in place and returns it: each representative
    completion becomes ``M`` sibling completions, each representative
    send/recv trace interval is split into ``M`` equal sub-intervals,
    and per-TB invocation / per-link flow counts are scaled back to
    instance granularity.  Timing fields are left exactly as simulated —
    the collapse itself, not the fan-out, is the approximation.
    """
    n_mb = collapsed.n_microbatches
    report.completion_order = [
        (task_id, mb)
        for task_id, _ in report.completion_order
        for mb in range(n_mb)
    ]
    for tb in report.tb_stats:
        tb.invocations *= n_mb
    for stats in report.link_stats.values():
        stats.flows_carried *= n_mb
    if report.trace:
        expanded: List[TraceEvent] = []
        for ev in report.trace:
            if ev.kind in ("send", "recv") and ev.task_id >= 0:
                step = (ev.end_us - ev.start_us) / n_mb
                for mb in range(n_mb):
                    expanded.append(
                        TraceEvent(
                            tb_index=ev.tb_index,
                            rank=ev.rank,
                            kind=ev.kind,
                            start_us=ev.start_us + mb * step,
                            end_us=ev.start_us + (mb + 1) * step,
                            task_id=ev.task_id,
                            mb=mb,
                        )
                    )
            else:
                expanded.append(ev)
        report.trace = expanded
    return report


__all__ = ["CollapsedPlan", "collapse_microbatch_runs", "expand_report"]
