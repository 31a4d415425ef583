"""Measurement results of one simulated collective execution.

The report captures exactly the quantities the paper's evaluation tracks:

* **algorithm bandwidth** — total synchronized bytes over completion time
  (footnote 3 of section 5.2: bandwidth and latency are equivalent);
* **per-TB time breakdown** — busy (execution), control overhead,
  sync-blocking (waiting for peers/credits), data stalls, and the tail a
  TB spends occupying its SM after finishing, when the backend cannot
  release it early (Figure 2, Figure 12, Table 3);
* **per-link activity** — busy intervals and bytes, from which global
  link utilization (Table 1) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .plan import ExecMode


@dataclass
class TBStats:
    """Time breakdown for one thread block.

    All durations are in microseconds.  ``sync_wait`` counts time blocked
    on peers (missing data at a receiver, exhausted FIFO credits at a
    sender); ``data_wait`` counts time blocked on unsatisfied data
    dependencies; ``overhead`` is control-plane cost (interpreter decode
    or one-time kernel load).
    """

    rank: int
    tb_index: int
    label: str
    nwarps: int
    busy: float = 0.0
    overhead: float = 0.0
    data_wait: float = 0.0
    sync_wait: float = 0.0
    release_time: float = 0.0
    invocations: int = 0

    def lifetime(self, global_end: float, early_release: bool) -> float:
        """SM occupancy span: until release (ResCCL) or kernel end."""
        return self.release_time if early_release else global_end

    def idle_time(self, global_end: float, early_release: bool) -> float:
        """Occupied-but-not-executing time within the TB's lifetime."""
        span = self.lifetime(global_end, early_release)
        return max(0.0, span - self.busy - self.overhead)

    def idle_fraction(self, global_end: float, early_release: bool) -> float:
        span = self.lifetime(global_end, early_release)
        if span <= 0:
            return 0.0
        return self.idle_time(global_end, early_release) / span

    def busy_fraction(self, global_end: float, early_release: bool) -> float:
        span = self.lifetime(global_end, early_release)
        if span <= 0:
            return 0.0
        return (self.busy + self.overhead) / span


@dataclass
class LinkStats:
    """Activity of one logical link (NVLink pair or NIC direction)."""

    link: str
    busy_time: float = 0.0
    bytes_moved: float = 0.0
    flows_carried: int = 0

    def utilization(self, total_time: float) -> float:
        """Fraction of the run during which the link was moving data."""
        if total_time <= 0:
            return 0.0
        return min(1.0, self.busy_time / total_time)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded thread-block activity interval (optional tracing).

    ``kind`` is one of ``send``, ``recv``, ``overhead``, ``wait:data``,
    ``wait:sync``.  ``task_id`` and ``mb`` are -1 for non-transfer
    intervals.
    """

    tb_index: int
    rank: int
    kind: str
    start_us: float
    end_us: float
    task_id: int = -1
    mb: int = -1

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class FaultStats:
    """Fault-injection, detection, and recovery counters for one run.

    Populated only when a :class:`~repro.faults.FaultInjector` is armed;
    ``SimReport.fault_stats`` stays ``None`` on healthy runs so the
    disarmed path is provably untouched.  ``recovery_latencies_us``
    records, per recovered transfer, the span from the instant the fault
    stalled it to the instant bytes moved again.
    """

    injected: int = 0
    detected_stalls: int = 0
    recovered: int = 0
    retries: int = 0
    unrecovered: int = 0
    fallbacks: int = 0
    #: Resume plans compiled after a checkpoint (replan-and-resume rung).
    replans: int = 0
    downtime_us: float = 0.0
    fallback_overhead_us: float = 0.0
    recovery_latencies_us: List[float] = field(default_factory=list)
    #: Fault/detection/recovery trace events by kind — complete even
    #: when the bounded fault-trace ring buffer evicted some.
    events: Dict[str, int] = field(default_factory=dict)
    #: Edge capacity changes (derates and restores) by fabric tier.
    capacity_changes: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_recovery_latency_us(self) -> float:
        if not self.recovery_latencies_us:
            return 0.0
        return sum(self.recovery_latencies_us) / len(self.recovery_latencies_us)

    def summary(self) -> str:
        """One-line digest for CLI output."""
        return (
            f"faults: {self.injected} injected, "
            f"{self.detected_stalls} stall(s) detected, "
            f"{self.recovered} recovered "
            f"(mean latency {self.mean_recovery_latency_us:.0f} us), "
            f"{self.retries} retries, {self.replans} replan(s), "
            f"{self.fallbacks} fallback(s), "
            f"{self.unrecovered} unrecovered"
        )


@dataclass
class SimCounters:
    """Cheap event-loop and rate-solver counters for one simulated run.

    Maintained unconditionally (plain integer bumps on paths that are
    already per-event), surfaced by ``resccl profile``, and asserted on
    by ``benchmarks/test_perf_scaling.py`` to keep the incremental
    solver's work bounded.  They are the single source of the ``sim_*``
    and ``net_*`` metric series: when a registry is armed the simulator
    publishes them once per run, after the event loop, and never
    touches the registry per event.

    Physical report fields must be bit-identical between the production
    solver and the reference solvers in ``tests/oracles/``; a few *work
    counters* are allowed to differ because they describe how the answer
    was computed, not the answer: ``shares_computed`` (incremental vs
    brute-force allocator), ``vectorized_passes``/``scalar_passes``
    and ``queue_refills`` (kept only for the performance ledger), and
    the ``agg_*`` family (shared vs per-instance metadata, fast-fidelity
    collapse).  The golden determinism digests mask exactly that set and
    pin everything else.
    """

    events_posted: int = 0
    events_popped: int = 0
    stale_events_skipped: int = 0
    reallocations: int = 0
    shares_computed: int = 0
    rate_updates: int = 0
    flows_admitted: int = 0
    #: Sender waits on an exhausted FIFO credit (one per blocked send).
    credit_stalls: int = 0
    #: Always 0: the flow network has one re-rater, a plain loop.  Kept
    #: because the performance ledger reads it.
    vectorized_passes: int = 0
    #: Always equal to ``reallocations``: every solver pass runs the one
    #: re-rater.  Kept because the performance ledger reads it.
    scalar_passes: int = 0
    #: Event-queue occupancy high-water mark (cancelled entries included).
    queue_depth_max: int = 0
    #: Always 0: the event queue is a single binary heap that never
    #: refills.  Kept because the performance ledger reads it.
    queue_refills: int = 0
    #: Micro-batch runs temporally collapsed (fast fidelity only).
    agg_runs_collapsed: int = 0
    #: Sibling instances reconstructed by report fan-out after collapse.
    agg_instances_expanded: int = 0
    #: 1 when collapse was requested but refused (faults, recovery, or
    #: background traffic present).
    agg_collapse_disabled: int = 0

    #: Work-counter fields allowed to differ between configurations that
    #: must otherwise produce bit-identical reports.
    WORK_COUNTER_FIELDS = (
        "shares_computed",
        "vectorized_passes",
        "scalar_passes",
        "queue_refills",
        "agg_runs_collapsed",
        "agg_instances_expanded",
        "agg_collapse_disabled",
    )

    def summary(self) -> str:
        """One-line digest for CLI output."""
        text = (
            f"events: {self.events_posted} posted / "
            f"{self.events_popped} popped "
            f"({self.stale_events_skipped} stale skipped, "
            f"queue depth <= {self.queue_depth_max}); "
            f"rates: {self.reallocations} reallocation passes, "
            f"{self.shares_computed} edge shares computed, "
            f"{self.rate_updates} rate updates; "
            f"{self.flows_admitted} flow(s) admitted, "
            f"{self.credit_stalls} credit stall(s)"
        )
        if self.agg_runs_collapsed:
            text += (
                f"; collapse: {self.agg_runs_collapsed} run(s) -> "
                f"{self.agg_instances_expanded} instance(s) fanned out"
            )
        if self.agg_collapse_disabled:
            text += "; collapse disabled (faults/background traffic)"
        return text


@dataclass
class SimReport:
    """Full outcome of simulating one execution plan."""

    plan_name: str
    mode: ExecMode
    completion_time_us: float
    total_bytes: float
    tb_stats: List[TBStats] = field(default_factory=list)
    link_stats: Dict[str, LinkStats] = field(default_factory=dict)
    #: (task_id, micro_batch) pairs in dynamic completion order — the
    #: executed schedule, replayable through the symbolic engine.
    completion_order: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-TB activity intervals; populated only when the simulator runs
    #: with ``record_trace=True``.  Fault, detection, and recovery events
    #: are recorded unconditionally whenever an injector is armed, into a
    #: bounded ring buffer (``SimConfig.fault_trace_cap``).
    trace: List["TraceEvent"] = field(default_factory=list)
    #: Fault-injection counters; ``None`` unless an injector was armed.
    fault_stats: Optional["FaultStats"] = None
    #: Fault/recovery events evicted from the bounded fault-trace ring
    #: buffer (oldest first) because a chaos run outgrew the cap.
    trace_dropped: int = 0
    #: Link-occupancy counter samples ``(link, time_us, active_flows)``;
    #: populated only with ``record_trace=True``.  Feeds the Perfetto
    #: counter tracks of the unified trace export.
    link_trace: List[Tuple[str, float, int]] = field(default_factory=list)
    #: Event-loop and rate-solver work counters (always populated).
    counters: SimCounters = field(default_factory=SimCounters)

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------

    @property
    def algo_bandwidth(self) -> float:
        """Algorithm bandwidth in bytes/us (== GB/s * 1e-3 * 1e3)."""
        if self.completion_time_us <= 0:
            return 0.0
        return self.total_bytes / self.completion_time_us

    @property
    def algo_bandwidth_gbps(self) -> float:
        """Algorithm bandwidth in GB/s."""
        return self.algo_bandwidth / 1000.0

    @property
    def early_release(self) -> bool:
        """Generated kernels release finished TBs; interpreters do not."""
        return self.mode is ExecMode.KERNEL

    # ------------------------------------------------------------------
    # Aggregates used by the paper's tables
    # ------------------------------------------------------------------

    def tb_count(self) -> int:
        return len(self.tb_stats)

    def max_tbs_per_rank(self) -> int:
        per_rank: Dict[int, int] = {}
        for tb in self.tb_stats:
            per_rank[tb.rank] = per_rank.get(tb.rank, 0) + 1
        return max(per_rank.values(), default=0)

    def avg_busy_fraction(self) -> float:
        """Mean "Comm Time" share across TBs (Table 3)."""
        if not self.tb_stats:
            return 0.0
        end = self.completion_time_us
        return sum(
            tb.busy_fraction(end, self.early_release) for tb in self.tb_stats
        ) / len(self.tb_stats)

    def avg_idle_fraction(self) -> float:
        """Mean TB idle ratio (Table 3 "Avg Idle")."""
        if not self.tb_stats:
            return 0.0
        end = self.completion_time_us
        return sum(
            tb.idle_fraction(end, self.early_release) for tb in self.tb_stats
        ) / len(self.tb_stats)

    def max_idle_fraction(self) -> float:
        """Worst TB idle ratio (Table 3 "Max Idle")."""
        end = self.completion_time_us
        return max(
            (tb.idle_fraction(end, self.early_release) for tb in self.tb_stats),
            default=0.0,
        )

    def link_utilization(self) -> float:
        """Global link utilization: mean busy fraction over active links.

        This is Table 1's metric — how much of the run each link that the
        algorithm uses actually spends transferring.
        """
        active = [ls for ls in self.link_stats.values() if ls.flows_carried > 0]
        if not active:
            return 0.0
        return sum(
            ls.utilization(self.completion_time_us) for ls in active
        ) / len(active)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.plan_name}: {self.algo_bandwidth_gbps:.2f} GB/s algbw, "
            f"{self.completion_time_us / 1000.0:.2f} ms, "
            f"{self.tb_count()} TBs ({self.max_tbs_per_rank()}/rank), "
            f"link util {self.link_utilization():.1%}, "
            f"avg TB idle {self.avg_idle_fraction():.1%}"
        )


__all__ = [
    "TBStats",
    "LinkStats",
    "SimCounters",
    "SimReport",
    "TraceEvent",
    "FaultStats",
]
