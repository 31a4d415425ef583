"""Recovery policies: what to do when the watchdog declares a stall.

Four escalation rungs, mirroring production CCL behavior:

1. **Retry with exponential backoff** (transient link failures) — starved
   flows on downed edges are aborted and re-admission is attempted at
   geometrically growing intervals; the remaining bytes are retransmitted
   when the fabric heals.
2. **Immediate re-admission after a flap** — the injector notifies the
   policy the instant a downed edge restores, so pending retries skip the
   rest of their backoff.
3. **Replan and resume** (permanent link death) — the run checkpoints its
   delivered progress, compiles the *residual collective* (only the
   undelivered instances, rerouted around dead edges) through the full
   HPDS → TB-allocation → kernel-generation pipeline, and resumes from
   the checkpoint time.  The stitched execution is proved correct by the
   semantic delivery verifier before the report is returned.
4. **Graceful degradation** (replanning infeasible, e.g. a partitioned
   topology with a modeled failover path) — the run abandons the compiled
   plan and falls back to a conservative ring algorithm on a cluster
   whose dead edges are derated to a slow failover path, trading
   bandwidth for liveness.  Without a failover path
   (``fallback_capacity_factor == 0``) a partition is unrecoverable and
   surfaces as :class:`RecoveryImpossible`.

Policies are pluggable: the simulator only calls ``bind`` /
``on_stall`` / ``on_edge_restored`` / ``on_event``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.ring import (
    ring_allgather,
    ring_allreduce,
    ring_reducescatter,
)
from ..analysis.verify_delivery import verify_delivery, verify_stitched
from ..baselines.msccl import MSCCLBackend
from ..ir.task import Collective
from ..obs.metrics import current_registry
from ..runtime.metrics import FaultStats, SimReport, TraceEvent
from ..runtime.plan import ExecutionPlan
from ..runtime.simulator import SimulationDeadlock, Simulator
from .checkpoint import CollectiveCheckpoint
from .injector import FaultInjector
from .plan import FaultPlan
from .replan import ReplanInfeasible, ResumePlan, build_resume_plan
from .watchdog import ProgressStall

#: The policy vocabulary `make_policy` accepts (CLI ``choices=`` source).
POLICY_NAMES = ("none", "retry", "fallback", "replan")


def backoff_delay(base: float, multiplier: float, attempt: int) -> float:
    """Geometric backoff delay for the given (0-based) retry attempt.

    The one backoff curve shared by every retry rung in the tree:
    :class:`RetryBackoffPolicy` spaces flow re-admissions with it (in
    simulated microseconds) and the service worker supervisor
    (:mod:`repro.service.workers`) spaces crashed-worker job retries
    with it (in wall-clock seconds).
    """
    return base * (multiplier ** attempt)


class FallbackRequested(RuntimeError):
    """Raised through ``Simulator.run`` to demand algorithm fallback."""

    def __init__(
        self,
        dead_edges: List[str],
        at_us: float,
        stall: Optional[ProgressStall] = None,
        fault_stats: Optional[FaultStats] = None,
    ) -> None:
        super().__init__(
            f"permanent link failure on {', '.join(dead_edges)} at "
            f"t={at_us:.1f}us; falling back to ring"
        )
        self.dead_edges = dead_edges
        self.at_us = at_us
        self.stall = stall
        self.fault_stats = fault_stats


class ReplanRequested(RuntimeError):
    """Raised through ``Simulator.run`` to demand replan-and-resume.

    Carries the still-intact (stalled) simulator so the runner can
    checkpoint its delivered progress before compiling a resume plan.
    """

    def __init__(
        self,
        sim: Simulator,
        dead_edges: List[str],
        at_us: float,
        stall: Optional[ProgressStall] = None,
        fault_stats: Optional[FaultStats] = None,
    ) -> None:
        super().__init__(
            f"permanent link failure on {', '.join(dead_edges)} at "
            f"t={at_us:.1f}us; checkpointing for replan"
        )
        self.sim = sim
        self.dead_edges = dead_edges
        self.at_us = at_us
        self.stall = stall
        self.fault_stats = fault_stats


class RecoveryImpossible(SimulationDeadlock):
    """No recovery rung can complete the collective (e.g. a partition).

    A :class:`~repro.runtime.simulator.SimulationDeadlock` subclass so
    callers that already map deadlocks to a hard error (the CLI's exit
    code 2) treat an unrecoverable fault the same way instead of hanging
    or mis-reporting success.
    """


class RecoveryPolicy:
    """No-op base policy: detect, diagnose, but never intervene."""

    name = "none"

    def bind(self, sim) -> None:
        """Called once when the simulator adopts this policy."""

    def fresh(self) -> "RecoveryPolicy":
        """A clean-state clone for a follow-up (resume) simulation."""
        return self

    def on_stall(self, sim, stall: ProgressStall) -> bool:
        """React to a detected stall; True means recovery is in progress."""
        return False

    def on_edge_restored(self, sim, edge: str) -> None:
        """A downed edge came back up."""

    def on_event(self, sim, payload) -> None:
        """A scheduled ``retry`` event fired."""


@dataclass
class _PendingRetry:
    task_id: int
    mb: int
    sender: int
    edges: Tuple[str, ...]
    remaining: float
    cap: float
    stalled_since: float
    attempts: int = 0


@dataclass
class RetryBackoffPolicy(RecoveryPolicy):
    """Retry-with-backoff for transient faults, optional escalation.

    Args:
        base_us: first retry delay; defaults to a quarter of the
            watchdog window when left ``None``.
        multiplier: geometric backoff growth per failed attempt.
        max_attempts: retries before a transfer is declared unrecoverable.
        fallback: escalate permanent/unrecoverable link death to
            :class:`FallbackRequested` instead of giving up.
        replan: escalate permanent/unrecoverable link death to
            :class:`ReplanRequested` (checkpoint + residual replanning);
            takes precedence over ``fallback``, which remains the
            runner's final rung when replanning is infeasible.
    """

    base_us: Optional[float] = None
    multiplier: float = 2.0
    max_attempts: int = 6
    fallback: bool = False
    replan: bool = False

    name = "retry"

    _pending: Dict[int, _PendingRetry] = field(default_factory=dict)
    _next_id: int = 0

    def bind(self, sim) -> None:
        if self.base_us is None:
            self.base_us = max(1.0, sim.watchdog_window_us / 4.0)

    def fresh(self) -> "RetryBackoffPolicy":
        return RetryBackoffPolicy(
            base_us=self.base_us,
            multiplier=self.multiplier,
            max_attempts=self.max_attempts,
            fallback=self.fallback,
            replan=self.replan,
        )

    # ------------------------------------------------------------------

    def on_stall(self, sim, stall: ProgressStall) -> bool:
        injector = sim.injector
        dead = [
            edge for edge in stall.down_edges
            if injector is not None and injector.is_permanent(edge)
        ]
        if dead:
            self._escalate(sim, dead, stall=stall)
            return False
        down = set(stall.down_edges)
        acted = False
        for flow, task_id, mb, sender in list(sim.zero_rate_flows()):
            if not any(edge in down for edge in flow.edges):
                continue
            flow, task_id, mb, sender = sim.abort_flow(flow.flow_id)
            retry_id = self._next_id
            self._next_id += 1
            self._pending[retry_id] = _PendingRetry(
                task_id=task_id,
                mb=mb,
                sender=sender,
                edges=tuple(flow.edges),
                remaining=flow.remaining,
                cap=flow.cap,
                stalled_since=sim._last_progress_us,
            )
            if sim.fault_stats is not None:
                sim.fault_stats.retries += 1
            sim._post(sim.now + self.base_us, "retry", retry_id)
            acted = True
        return acted or bool(self._pending)

    def _escalate(self, sim, dead: List[str], stall=None) -> None:
        """Permanent/unrecoverable death: replan first, fallback second."""
        if self.replan:
            raise ReplanRequested(
                sim, dead, sim.now, stall=stall,
                fault_stats=sim.fault_stats,
            )
        if self.fallback:
            raise FallbackRequested(
                dead, sim.now, stall=stall, fault_stats=sim.fault_stats
            )

    def on_event(self, sim, retry_id: int) -> None:
        entry = self._pending.get(retry_id)
        if entry is None:
            return  # already re-admitted via on_edge_restored
        if self._edges_up(sim, entry.edges):
            self._readmit(sim, retry_id, entry)
            return
        entry.attempts += 1
        if sim.fault_stats is not None:
            sim.fault_stats.retries += 1
        if entry.attempts >= self.max_attempts:
            del self._pending[retry_id]
            down = [
                e for e in entry.edges
                if sim.network.capacity_factor(e) <= 0.0
            ]
            if down:
                self._escalate(sim, down)
            if sim.fault_stats is not None:
                sim.fault_stats.unrecovered += 1
            return
        delay = backoff_delay(self.base_us, self.multiplier, entry.attempts)
        sim._post(sim.now + delay, "retry", retry_id)

    def on_edge_restored(self, sim, edge: str) -> None:
        for retry_id, entry in list(self._pending.items()):
            if edge in entry.edges and self._edges_up(sim, entry.edges):
                self._readmit(sim, retry_id, entry)

    # ------------------------------------------------------------------

    @staticmethod
    def _edges_up(sim, edges: Tuple[str, ...]) -> bool:
        return all(sim.network.capacity_factor(e) > 0.0 for e in edges)

    def _readmit(self, sim, retry_id: int, entry: _PendingRetry) -> None:
        del self._pending[retry_id]
        sim.post_send(
            entry.task_id, entry.mb, entry.sender, entry.edges,
            entry.remaining, entry.cap,
        )
        if sim.fault_stats is not None:
            sim.fault_stats.recovered += 1
            sim.fault_stats.recovery_latencies_us.append(
                sim.now - entry.stalled_since
            )
        sim.record_fault_event(
            "recover:readmit", entry.stalled_since, sim.now,
            tb_index=entry.sender,
        )


def make_policy(name: str) -> Optional[RecoveryPolicy]:
    """CLI/experiment policy names -> policy instances (or None)."""
    name = (name or "none").lower()
    if name == "none":
        return None
    if name == "retry":
        return RetryBackoffPolicy(fallback=False)
    if name in ("fallback", "retry+fallback"):
        return RetryBackoffPolicy(fallback=True)
    if name in ("replan", "retry+replan"):
        # Ring fallback stays armed as the final rung for the runner to
        # use when replanning is infeasible.
        return RetryBackoffPolicy(replan=True, fallback=True)
    valid = ", ".join(POLICY_NAMES)
    raise ValueError(
        f"unknown recovery policy {name!r}; valid policies: {valid}"
    )


_RING_BUILDERS = {
    Collective.ALLREDUCE: ring_allreduce,
    Collective.ALLGATHER: ring_allgather,
    Collective.REDUCESCATTER: ring_reducescatter,
}

#: One resume segment: the resume plan and its executed task order.
ResumeSegment = Tuple[ResumePlan, List[int]]


class ResilientRunner:
    """Runs a plan under faults with replan-and-resume plus ring fallback.

    The primary plan runs with the injector armed.  On permanent link
    death the recovery policy escalates:

    * :class:`ReplanRequested` (the ``replan`` policy) — the runner
      checkpoints delivered progress, compiles a resume plan for the
      residual collective on the degraded cluster, re-arms the remaining
      fault timeline, and resumes from the checkpoint time.  A further
      death during the resume run triggers re-replanning (bounded by
      ``max_replans``).  Before reporting, the stitched
      checkpoint + resume execution is proved exactly-once by the
      semantic delivery verifier.
    * :class:`FallbackRequested` (the ``fallback`` policy, or the final
      rung when replanning is infeasible and a failover path is modeled)
      — the collective restarts as a conservative ring on a cluster whose
      dead edges are derated to ``fallback_capacity_factor`` of their
      healthy capacity, and the time burned in the failed attempt is
      charged to the final completion time.

    A partitioned topology with no failover path
    (``fallback_capacity_factor == 0``) raises
    :class:`RecoveryImpossible`.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        fault_plan: FaultPlan,
        policy: Optional[RecoveryPolicy] = None,
        record_trace: bool = False,
        background_traffic=None,
        fallback_capacity_factor: float = 0.25,
        max_replans: int = 3,
        verify: bool = True,
    ) -> None:
        self.plan = plan
        self.fault_plan = fault_plan
        self.policy = policy
        self.record_trace = record_trace
        self.background_traffic = background_traffic
        self.fallback_capacity_factor = fallback_capacity_factor
        self.max_replans = max_replans
        self.verify = verify

    def run(self) -> SimReport:
        sim = Simulator(
            self.plan,
            background_traffic=self.background_traffic,
            record_trace=self.record_trace,
            injector=FaultInjector(self.fault_plan),
            recovery=self.policy,
        )
        try:
            report = sim.run()
        except FallbackRequested as request:
            return self._run_fallback(request)
        except ReplanRequested as request:
            return self._run_replan(request)
        if self.verify and self.fault_plan.armed:
            verify_delivery(
                self.plan, order=report.completion_order
            ).raise_if_failed()
        return report

    # ------------------------------------------------------------------
    # Replan-and-resume
    # ------------------------------------------------------------------

    def _run_replan(self, request: ReplanRequested) -> SimReport:
        stats = request.fault_stats or FaultStats()
        base_checkpoint = CollectiveCheckpoint.capture(
            request.sim, request.dead_edges
        )
        checkpoint = base_checkpoint
        dead = set(request.dead_edges)
        segments: List[ResumeSegment] = []
        replan_events: List[TraceEvent] = []
        report: Optional[SimReport] = None

        while True:
            if stats.replans >= self.max_replans:
                return self._final_fallback(
                    sorted(dead), checkpoint.at_us, stats,
                    reason=f"replan budget ({self.max_replans}) exhausted",
                )
            try:
                resume = build_resume_plan(
                    self.plan,
                    checkpoint,
                    sorted(dead),
                    dead_edge_factor=self._dead_edge_factor(),
                )
            except ReplanInfeasible as exc:
                if exc.partitioned and self.fallback_capacity_factor <= 0.0:
                    raise RecoveryImpossible(
                        f"unrecoverable fault: {exc} and no failover path "
                        f"is modeled (fallback_capacity_factor=0)"
                    ) from exc
                return self._final_fallback(
                    sorted(dead), checkpoint.at_us, stats, reason=str(exc)
                )
            stats.replans += 1
            stats.recovery_latencies_us.append(
                checkpoint.at_us - request.sim._last_progress_us
            )
            replan_events.append(
                TraceEvent(
                    tb_index=-1, rank=-1, kind="recover:checkpoint",
                    start_us=checkpoint.at_us, end_us=checkpoint.at_us,
                )
            )
            residual_faults = self._residual_fault_plan(checkpoint.at_us)
            policy = self.policy.fresh() if self.policy is not None else None
            sim = Simulator(
                resume.plan,
                background_traffic=self.background_traffic,
                record_trace=self.record_trace,
                injector=FaultInjector(residual_faults),
                recovery=policy,
                start_at_us=checkpoint.at_us,
            )
            try:
                report = sim.run()
            except ReplanRequested as again:
                partial = again.sim.export_checkpoint()
                completed_ids = [tid for tid, _mb in partial["completed"]]
                segments.append((resume, completed_ids))
                delivered = [
                    (resume.metas[tid].orig_task_id, resume.metas[tid].mb)
                    for tid in completed_ids
                    if resume.metas[tid].delivers
                ]
                dead |= set(again.dead_edges)
                checkpoint = checkpoint.advanced(
                    delivered, again.at_us, sorted(dead)
                )
                self._merge_stats(stats, again.fault_stats)
                replan_events.append(
                    TraceEvent(
                        tb_index=-1, rank=-1, kind="recover:replan",
                        start_us=resume.checkpoint.at_us,
                        end_us=again.at_us,
                    )
                )
                continue
            except FallbackRequested as again:
                self._merge_stats(stats, again.fault_stats)
                return self._final_fallback(
                    sorted(dead | set(again.dead_edges)), again.at_us,
                    stats, reason="resume plan hit a further dead edge",
                )
            segments.append(
                (resume, [tid for tid, _mb in report.completion_order])
            )
            replan_events.append(
                TraceEvent(
                    tb_index=-1, rank=-1, kind="recover:replan",
                    start_us=resume.checkpoint.at_us,
                    end_us=report.completion_time_us,
                )
            )
            self._merge_stats(stats, report.fault_stats)
            break

        if self.verify:
            verify_stitched(
                self.plan,
                base_checkpoint.completed,
                [(resume.metas, order) for resume, order in segments],
            ).raise_if_failed()
        registry = current_registry()
        if registry is not None:
            registry.inc("recovery_resumes_total", len(segments))

        # Stitch: the resume simulation already ran in global time
        # (start_at_us = checkpoint time), so its completion time charges
        # the failed attempt automatically.
        report.plan_name = f"{self.plan.name}+replan"
        report.total_bytes = self.plan.total_bytes
        report.fault_stats = stats
        report.trace = sorted(
            [*report.trace, *replan_events],
            key=lambda e: (e.start_us, e.end_us),
        )
        return report

    def _dead_edge_factor(self) -> float:
        """Resume-cluster derating for dead edges (routes avoid them)."""
        if self.fallback_capacity_factor > 0.0:
            return self.fallback_capacity_factor
        return 0.05

    def _residual_fault_plan(self, at_us: float) -> FaultPlan:
        """The fault timeline still ahead of the checkpoint.

        Events at or before the checkpoint have played out: permanent
        kills live on as the resume cluster's derated dead edges, and
        elapsed transient windows are over.  Later events re-arm so a
        second death can land *during* the resume run.
        """
        return FaultPlan(
            events=[e for e in self.fault_plan.events if e.at_us > at_us],
            seed=self.fault_plan.seed,
        )

    @staticmethod
    def _merge_stats(base: FaultStats, extra: Optional[FaultStats]) -> None:
        if extra is None or extra is base:
            return
        base.detected_stalls += extra.detected_stalls
        base.recovered += extra.recovered
        base.retries += extra.retries
        base.unrecovered += extra.unrecovered
        base.downtime_us += extra.downtime_us
        base.recovery_latencies_us.extend(extra.recovery_latencies_us)

    # ------------------------------------------------------------------
    # Ring fallback (final rung)
    # ------------------------------------------------------------------

    def _run_fallback(self, request: FallbackRequested) -> SimReport:
        stats = request.fault_stats or FaultStats()
        return self._final_fallback(
            request.dead_edges, request.at_us, stats,
            reason=str(request), original=request,
        )

    def _final_fallback(
        self,
        dead_edges: Sequence[str],
        at_us: float,
        stats: FaultStats,
        reason: str = "",
        original: Optional[FallbackRequested] = None,
    ) -> SimReport:
        program = self.plan.program
        builder = _RING_BUILDERS.get(program.collective)
        if builder is None:
            if original is not None:
                raise original
            raise RecoveryImpossible(
                f"no ring fallback for collective {program.collective} "
                f"({reason})"
            )
        if self.fallback_capacity_factor <= 0.0:
            raise RecoveryImpossible(
                f"ring fallback needs a failover path but "
                f"fallback_capacity_factor=0 ({reason})"
            )
        ring = builder(
            program.nranks, name=f"{program.name}-ring-fallback"
        )
        degraded = self.plan.cluster.degraded(
            dead_edges, self.fallback_capacity_factor
        )
        backend = MSCCLBackend(
            max_microbatches=max(1, self.plan.n_microbatches)
        )
        # Renamed through replace(), so the plan drops the backend's
        # provenance key along with its name.
        fallback_plan = replace(
            backend.plan(degraded, ring, self.plan.total_bytes),
            name=f"{self.plan.name}+ring-fallback",
        )
        report = Simulator(
            fallback_plan,
            background_traffic=self.background_traffic,
            record_trace=self.record_trace,
        ).run()
        if self.verify:
            # The ring restarts the collective from the input buffers, so
            # it is verified standalone (the abandoned partial progress is
            # discarded, not stitched).
            verify_delivery(
                fallback_plan, order=report.completion_order
            ).raise_if_failed()
        stats.fallbacks += 1
        stats.fallback_overhead_us += at_us
        stats.recovery_latencies_us.append(at_us)
        # The failed primary attempt is real elapsed time: charge it.
        report.completion_time_us += at_us
        report.fault_stats = stats
        report.trace.append(
            # Recovery event spanning the abandoned attempt.
            TraceEvent(
                tb_index=-1, rank=-1, kind="recover:fallback",
                start_us=0.0, end_us=at_us,
            )
        )
        return report


__all__ = [
    "POLICY_NAMES",
    "backoff_delay",
    "RecoveryPolicy",
    "RetryBackoffPolicy",
    "FallbackRequested",
    "ReplanRequested",
    "RecoveryImpossible",
    "ResilientRunner",
    "ResumeSegment",
    "make_policy",
]
