"""Discrete-event execution of a plan over the fluid-flow fabric model.

Execution semantics (mirroring an RDMA-write, credit-based transport —
NCCL's Simple protocol):

* Every thread block executes its invocation list strictly in order.
* A **send** invocation waits for its task's data dependencies (the DAG
  predecessors, same micro-batch) and for a FIFO credit on its
  connection, then streams the chunk as a flow; the TB is busy for the
  flow's duration.  Credits let a sender run ahead of its receiver by
  ``fifo_depth`` chunks — running further ahead blocks (sync wait).
* A **recv** invocation waits for the data to have arrived and for its
  own data dependencies, then copies the chunk out of the communication
  buffer (busy at the TB's copy bandwidth, plus the reduction cost for
  ``recvReduceCopy``).  Completion of the copy completes the task
  invocation: dependents unblock and the FIFO credit is released.
* Interpreter mode charges every invocation a decode cost; kernel mode
  charges a one-time pipeline load per TB (Equation 5's ``t_Load``).

The simulator reports a :class:`~repro.runtime.metrics.SimReport` and
raises :class:`SimulationDeadlock` (with per-TB diagnostics) if progress
stops — which turns plan-construction bugs into loud failures instead of
silent hangs.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..ir.task import CommType
from ..obs.metrics import current_registry
from ..obs.spans import span as obs_span
from ..topology.cluster import TIERS, tier_of
from .aggregate import collapse_microbatch_runs, expand_report
from .events import make_event_queue
from .flows import Flow, FlowNetwork
from .metrics import (
    FaultStats,
    LinkStats,
    SimCounters,
    SimReport,
    TBStats,
    TraceEvent,
)
from .plan import ExecMode, ExecutionPlan, Invocation, Side


class SimulationDeadlock(RuntimeError):
    """The event queue drained while thread blocks were still blocked."""


class SimulationStall(SimulationDeadlock):
    """The progress watchdog declared a stall no recovery policy cleared.

    Carries the structured :class:`~repro.faults.watchdog.ProgressStall`
    diagnostic as ``.stall`` — per-TB wait kinds and durations plus the
    per-edge flow census at detection time.
    """

    def __init__(self, message: str, stall=None) -> None:
        super().__init__(message)
        self.stall = stall


_EPS = 1e-6
_INF = float("inf")

# TB phases.
_FETCH = "fetch"  # about to pay control overhead for the next invocation
_READY = "ready"  # overhead paid; waiting to satisfy start conditions
_INFLIGHT = "inflight"  # streaming a flow / copying out a chunk
_DONE = "done"


class _TB:
    """Mutable execution state of one thread block."""

    __slots__ = (
        "index",
        "program",
        "pc",
        "phase",
        "blocked_on",
        "wait_start",
        "wait_kind",
        "stats",
    )

    def __init__(self, index: int, program, stats: TBStats) -> None:
        self.index = index
        self.program = program
        self.pc = 0
        self.phase = _FETCH
        self.blocked_on: Optional[Tuple[str, object]] = None
        self.wait_start: float = 0.0
        self.wait_kind: str = ""
        self.stats = stats

    def current(self) -> Optional[Invocation]:
        if self.pc < len(self.program.invocations):
            return self.program.invocations[self.pc]
        return None


class Simulator:
    """Executes one :class:`ExecutionPlan` and gathers metrics."""

    def __init__(
        self,
        plan: ExecutionPlan,
        background_traffic: Optional[List[Tuple[Tuple[str, ...], float]]] = None,
        record_trace: bool = False,
        injector=None,
        recovery=None,
        start_at_us: float = 0.0,
    ) -> None:
        """Args:
            plan: the execution plan to run.
            background_traffic: optional external congestors — a list of
                ``(edges, rate_cap)`` persistent flows occupying the
                given contention edges for the whole run (e.g. another
                job's traffic sharing a NIC).  Used by the
                network-contention experiments of section 4.4.
            record_trace: collect per-TB activity intervals into
                ``report.trace`` (timeline/Chrome-trace export).
            injector: optional :class:`~repro.faults.FaultInjector`; when
                armed, its scheduled fault events are applied during the
                run and ``report.fault_stats`` is populated.
            recovery: optional recovery policy (see
                :mod:`repro.faults.recovery`) consulted by the progress
                watchdog before a stall is raised.
            start_at_us: clock origin.  A resume plan produced by the
                replan-and-resume recovery path starts where the failed
                primary attempt stalled, so its completion time — and
                every trace/fault timestamp — is already in global run
                time and stitches directly onto the checkpoint.
        """
        plan.validate()
        self.plan = plan
        self.cluster = plan.cluster
        self.config = plan.config
        self.dag = plan.dag
        # Ambient metrics registry, or None.  Nothing on the event path
        # touches it: run() publishes the run's own counters once, at
        # the end (see _publish_metrics).
        self._metrics = current_registry()
        self.network = FlowNetwork(
            {e: self.cluster.edge_capacity(e) for e in self.cluster.edges},
            gamma=self.config.gamma,
            incremental=self.config.incremental_rates,
            rate_rel_epsilon=self.config.rate_rel_epsilon,
            vectorize=self.config.vectorized_rates,
            vectorize_min_flows=self.config.vectorize_min_flows,
        )
        self.start_at_us = start_at_us
        self.now = start_at_us
        self.counters = SimCounters()
        self._queue = make_event_queue(
            self.config.event_queue,
            plan.total_invocations,
            self.config.event_bucket_width_us,
        )
        self._seq = itertools.count()
        # Lazy invalidation (default): the live completion-event entry of
        # each flow is tracked in `_flow_cell` and cancelled in place
        # when a re-rate supersedes it, so stale events are skipped
        # inside the queue without a dispatch.  With
        # ``lazy_invalidation=False`` (the pre-bucket discipline, kept as
        # the benchmark baseline) stale events are dispatched and
        # recognised by a per-flow version check instead.
        self._lazy_inval = self.config.lazy_invalidation
        self._flow_cell: Dict[int, list] = {}
        # Batched finish re-rates (lazy mode): edges whose membership
        # changed at `self.now` but whose reallocation is still pending.
        # Simultaneous completions — pervasive in symmetric collectives —
        # then share one re-rate pass and one repost wave.  The batch is
        # flushed before the clock advances, before any non-flow event,
        # and before any admission or other rate read, so no observable
        # state ever sees a stale rate (no simulated time passes between
        # the deferred removals and the flush).
        self._dirty_edges: Dict[str, None] = {}
        # Per-task protocol-adjusted route latency (hot on flow finish).
        self._task_latency: Dict[int, float] = {}
        # Exact micro-batch aggregation: one representative instance's
        # schedule metadata (route + send cap, recv copy duration) is
        # computed once per task and shared by its siblings.  Disabled
        # (recomputed per instance) when ``aggregate_microbatches`` is
        # off; both modes are bit-identical.
        self._agg_meta = self.config.aggregate_microbatches
        self._task_send_meta: Dict[int, Tuple[Tuple[str, ...], float]] = {}
        self._task_recv_duration: Dict[int, float] = {}
        for edges, cap in background_traffic or ():
            # Effectively-infinite payload: the congestor never drains.
            self.network.start_flow(
                edges=tuple(edges), nbytes=float("inf"), cap=cap, now=self.now
            )

        self.tbs = [
            _TB(
                i,
                tbp,
                TBStats(
                    rank=tbp.rank,
                    tb_index=tbp.tb_index,
                    label=tbp.label,
                    nwarps=tbp.nwarps,
                ),
            )
            for i, tbp in enumerate(plan.tb_programs)
        ]

        # Data-dependency tracking (per micro-batch; micro-batches are
        # data-independent, so dependencies never cross them).
        self._deps_left: Dict[Tuple[int, int], int] = {}
        self._completed: Set[Tuple[int, int]] = set()
        self._dep_waiters: Dict[Tuple[int, int], List[int]] = defaultdict(list)

        # Flow-progress tracking.  ``_flow_started`` marks (task, mb) whose
        # sender began streaming (a receiver may then start its overlapped
        # copy); ``_flow_done`` marks fully-arrived payloads.
        self._flow_started: Set[Tuple[int, int]] = set()
        self._flow_done: Set[Tuple[int, int]] = set()
        self._data_waiters: Dict[Tuple[int, int], int] = {}
        # In-progress receives: key -> [tb_index, start_time, copy_elapsed].
        self._recv_state: Dict[Tuple[int, int], list] = {}

        # FIFO credits, per (sender TB, destination rank): each sending TB
        # owns a private chunk FIFO towards each peer, as NCCL channels do.
        self._credits: Dict[Tuple[int, int], int] = defaultdict(
            lambda: self.config.fifo_depth
        )
        self._credit_queue: Dict[Tuple[int, int], Deque[int]] = defaultdict(deque)
        # Which credit key each in-flight (task, mb) must release.
        self._credit_owner: Dict[Tuple[int, int], Tuple[int, int]] = {}

        # Active flows: flow_id -> (flow, task_id, mb, sender tb index).
        self._flows: Dict[int, Tuple[Flow, int, int, int]] = {}
        self._flow_version: Dict[int, int] = {}

        # Completed (task, mb) invocations in completion order — lets
        # callers replay the dynamic schedule through the symbolic
        # correctness engine.
        self._completion_log: List[Tuple[int, int]] = []

        self._record_trace = record_trace
        self._trace: List[TraceEvent] = []
        # Fault/detection/recovery events live in their own bounded ring
        # buffer: they are recorded even with tracing off, so a long
        # chaos run must not grow memory without limit.
        self._fault_trace: Deque[TraceEvent] = deque()
        self._trace_dropped = 0
        # Link-occupancy counter samples (link, time, active flows).
        self._link_trace: List[Tuple[str, float, int]] = []

        # Per-logical-link activity.
        self._link_stats: Dict[str, LinkStats] = {}
        self._link_active: Dict[str, int] = defaultdict(int)
        self._link_busy_since: Dict[str, float] = {}

        self._unfinished = len(self.tbs)

        # --- Progress watchdog & fault-injection state -----------------
        # ``_progress_counter`` bumps on every byte-moving or
        # pc-advancing action; the watchdog declares a stall only when it
        # has not moved for a full window AND nothing currently scheduled
        # could move it (no draining flow, no pending recv clock, no
        # pending TB timer).
        self._progress_counter = 0
        self._last_progress_us = self.now
        self._watchdog_seen_counter = -1
        self._stall_reported = False
        self._tb_timers = 0  # pending "tb" wakeups (overhead / unfreeze)
        self._frozen: Dict[int, float] = {}  # tb_index -> stall end time
        self._frozen_posted: Set[int] = set()
        #: Stall episodes the watchdog detected (also without an injector).
        self.stalls_detected = 0

        self.injector = injector
        self.recovery = recovery
        self.fault_stats: Optional[FaultStats] = None
        if injector is not None:
            self.fault_stats = FaultStats()
            injector.arm(self)
        if recovery is not None:
            recovery.bind(self)

    @property
    def watchdog_window_us(self) -> float:
        return self.config.watchdog_window_us

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _post(self, time: float, kind: str, payload: object) -> list:
        if kind == "tb":
            self._tb_timers += 1
        self.counters.events_posted += 1
        return self._queue.post(time, next(self._seq), kind, payload)

    def _progress(self) -> None:
        """Record a unit of real progress (bytes moved or pc advanced)."""
        self._progress_counter += 1
        self._last_progress_us = self.now
        self._stall_reported = False

    def _trace_event(
        self,
        tb: "_TB",
        kind: str,
        start: float,
        end: float,
        task_id: int = -1,
        mb: int = -1,
    ) -> None:
        if self._record_trace and end > start:
            self._trace.append(
                TraceEvent(
                    tb_index=tb.index,
                    rank=tb.program.rank,
                    kind=kind,
                    start_us=start,
                    end_us=end,
                    task_id=task_id,
                    mb=mb,
                )
            )

    def run(self) -> SimReport:
        """Run to completion and return the measurement report.

        The run's counters are folded — and, when a registry is armed,
        published — also when the run ends in a deadlock, a watchdog
        stall, or a hand-off to a recovery rung.
        """
        try:
            self._event_loop()
        finally:
            self._fold_counters()
            if self._metrics is not None:
                self._publish_metrics()
        return self._report()

    def _event_loop(self) -> None:
        for tb in self.tbs:
            self._advance(tb)
        if self.watchdog_window_us > 0:
            self._post(self.now + self.watchdog_window_us, "watchdog", None)
        queue = self._queue
        while True:
            if self._dirty_edges:
                # A deferred finish re-rate is pending at self.now.  It
                # may stay deferred only while the next event is another
                # flow event at the same instant (whose completion check
                # is rate-independent over a zero-length interval);
                # anything else — a later event, a non-flow event, or an
                # empty queue — must see reconciled rates, and the flush
                # may post completion events earlier than the next entry.
                nxt = queue.peek()
                if nxt is None or nxt[0] != self.now or nxt[2] != "flow":
                    self._flush_rerate()
            entry = queue.pop()
            if entry is None:
                break
            time = entry[0]
            kind = entry[2]
            payload = entry[3]
            self.counters.events_popped += 1
            if time > self.now:
                self.now = time
            if kind == "tb":
                self._tb_timers -= 1
                tb = self.tbs[payload]  # type: ignore[index]
                self._advance(tb)
            elif kind == "flow":
                self._maybe_finish_flow(payload)
            elif kind == "recv_copy":
                self._recv_copy_elapsed(payload)  # type: ignore[arg-type]
            elif kind == "watchdog":
                self._watchdog_tick()
            elif kind == "fault":
                self.injector.on_event(self, payload)
            elif kind == "retry":
                self.recovery.on_event(self, payload)
            elif kind == "credit":
                self._release_credit(payload)  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
        if self._unfinished:
            raise SimulationDeadlock(self._deadlock_report())

    # ------------------------------------------------------------------
    # TB state machine
    # ------------------------------------------------------------------

    def _advance(self, tb: _TB) -> None:
        """Drive a TB forward as far as it can go at the current time."""
        while True:
            if tb.phase == _DONE or tb.phase == _INFLIGHT:
                return
            if self._frozen:
                until = self._frozen.get(tb.index)
                if until is not None:
                    if self.now < until - _EPS:
                        # Injected TB stall: defer all control progress
                        # until the stall window ends.
                        if tb.index not in self._frozen_posted:
                            self._frozen_posted.add(tb.index)
                            self._post(until, "tb", tb.index)
                        return
                    self._frozen.pop(tb.index, None)
                    self._frozen_posted.discard(tb.index)
            inv = tb.current()
            if inv is None:
                tb.phase = _DONE
                tb.stats.release_time = self.now
                self._unfinished -= 1
                return
            if tb.phase == _FETCH:
                overhead = self._control_overhead(tb)
                tb.phase = _READY
                if overhead > 0.0:
                    tb.stats.overhead += overhead
                    self._trace_event(tb, "overhead", self.now, self.now + overhead)
                    self._post(self.now + overhead, "tb", tb.index)
                    return
                continue
            # _READY: try to start the invocation.
            if inv.side is Side.SEND:
                if not self._try_start_send(tb, inv):
                    return
            else:
                if not self._try_start_recv(tb, inv):
                    return

    def _control_overhead(self, tb: _TB) -> float:
        """Per-invocation decode cost, or one-time kernel pipeline load."""
        if self.plan.mode is ExecMode.INTERPRETER:
            return self.config.interp_cost_us
        if tb.pc == 0:
            return self.config.kernel_load_us
        return 0.0

    def _block(self, tb: _TB, kind: str, key: object, wait_kind: str) -> None:
        tb.blocked_on = (kind, key)
        tb.wait_start = self.now
        tb.wait_kind = wait_kind

    def _unblock(self, tb: _TB) -> None:
        if tb.blocked_on is None:
            return
        waited = self.now - tb.wait_start
        if waited > 0:
            if tb.wait_kind == "data":
                tb.stats.data_wait += waited
            else:
                tb.stats.sync_wait += waited
            # Bind the wait to the blocked task when the key carries one
            # (deps/data waits); the analyzer uses it to splice the
            # critical path across TBs at wait boundaries.
            kind, key = tb.blocked_on
            task_id, mb = key if kind in ("deps", "data") else (-1, -1)
            self._trace_event(
                tb, f"wait:{tb.wait_kind}", tb.wait_start, self.now,
                task_id, mb,
            )
        tb.blocked_on = None
        tb.wait_kind = ""

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------

    def _deps_satisfied(self, task_id: int, mb: int) -> bool:
        key = (task_id, mb)
        left = self._deps_left.get(key)
        if left is None:
            preds = self.dag.preds[task_id]
            left = sum(1 for p in preds if (p, mb) not in self._completed)
            self._deps_left[key] = left
        return left == 0

    def _try_start_send(self, tb: _TB, inv: Invocation) -> bool:
        task = self.dag.task(inv.task_id)
        key = (inv.task_id, inv.mb)
        if not self._deps_satisfied(inv.task_id, inv.mb):
            if tb.blocked_on is None:
                self._block(tb, "deps", key, "data")
                self._dep_waiters[key].append(tb.index)
            return False
        credit_key = (tb.index, task.dst)
        if self._credits[credit_key] <= 0:
            if tb.blocked_on is None or tb.blocked_on[0] != "credit":
                # May transition from a deps wait into a credit wait.
                self._unblock(tb)
                self._block(tb, "credit", credit_key, "sync")
                self._credit_queue[credit_key].append(tb.index)
                self.counters.credit_stalls += 1
            return False
        self._unblock(tb)
        self._credits[credit_key] -= 1
        self._credit_owner[(inv.task_id, inv.mb)] = credit_key
        self._start_flow(tb, inv, task)
        return True

    def _send_meta(self, tb: _TB, task_id: int, task) -> Tuple[Tuple[str, ...], float]:
        """Route edges and TB send cap for one task's transfer.

        With exact micro-batch aggregation on, the representative
        instance's values are shared by every sibling; otherwise they
        are recomputed per instance (identical results either way).
        """
        if self._agg_meta:
            meta = self._task_send_meta.get(task_id)
            if meta is not None:
                return meta
        edges = self.cluster.path(task.src, task.dst).edges
        cap = (
            self.cluster.profile.tb_copy_bandwidth(tb.program.nwarps)
            * self.config.protocol.bandwidth_efficiency
        )
        if self._agg_meta:
            self._task_send_meta[task_id] = (edges, cap)
        return edges, cap

    def _start_flow(self, tb: _TB, inv: Invocation, task) -> None:
        if self._dirty_edges:
            # A same-instant completion's re-rate is still deferred; the
            # admission below must see reconciled memberships and rates.
            self._flush_rerate()
        edges, cap = self._send_meta(tb, inv.task_id, task)
        flow, changed = self.network.start_flow(
            edges=edges,
            nbytes=self.plan.chunk_bytes,
            cap=cap,
            now=self.now + self._route_latency(inv.task_id, task),
            ordered=not self._lazy_inval,
        )
        self._flows[flow.flow_id] = (flow, inv.task_id, inv.mb, tb.index)
        if not self._lazy_inval:
            self._flow_version[flow.flow_id] = 0
        tb.phase = _INFLIGHT
        self._progress()
        self._link_enter(task.link)
        self._post_flow_eta(flow)
        if not self._lazy_inval:
            # Pre-bucket discipline: every peer rate change reposts.
            for other in changed:
                if other.flow_id != flow.flow_id:
                    self._post_flow_eta(other)
        # Earliest-wins discipline: an admission can only *lower* its
        # peers' rates — adding demand never raises a water-filled edge
        # share (the released-cap gain is bounded by the old equal share,
        # so the new share is a mediant below the old one, and the
        # Equation 1 contention penalty only pushes further down).  Every
        # peer ETA therefore moved later, and each peer's pending
        # completion event already fires at-or-before it, so no peer
        # needs a repost check at all.
        # The receiver may begin its overlapped copy as soon as the stream
        # is in flight (recvCopySend semantics).
        key = (inv.task_id, inv.mb)
        self._flow_started.add(key)
        waiter = self._data_waiters.pop(key, None)
        if waiter is not None:
            self._advance(self.tbs[waiter])

    def _flush_rerate(self) -> None:
        """Apply the deferred finish re-rates and repost changed ETAs."""
        dirty = self._dirty_edges
        if not dirty:
            return
        self._dirty_edges = {}
        changed = self.network.rerate_edges(tuple(dirty), self.now)
        for other in changed:
            self._post_flow_eta(other)

    def _post_flow_eta(self, flow: Flow) -> None:
        flow_id = flow.flow_id
        if self._lazy_inval:
            # Earliest-wins discipline: a completion event is (re)posted
            # only when the flow's ETA moved *earlier* than the pending
            # event (or none is pending).  When a rate drop moves the ETA
            # later, the pending event is kept — it wakes early, finds
            # the flow unfinished, and reposts itself at the then-current
            # ETA (see :meth:`_maybe_finish_flow`).  Admission waves,
            # which only ever slow their peers down, therefore post
            # nothing at all.  A superseded (later-firing) event is
            # cancelled in place (``cell[4] = False`` inlines
            # ``EventQueue.cancel`` — this is the hottest call site in
            # the simulator) and skipped inside the queue.
            eta = flow.eta()
            cell = self._flow_cell.get(flow_id)
            if cell is not None:
                if cell[0] <= eta:
                    return
                cell[4] = False
            if eta != _INF:
                if eta < self.now:
                    eta = self.now
                self.counters.events_posted += 1
                self._flow_cell[flow_id] = self._queue.post(
                    eta, next(self._seq), "flow", flow_id
                )
            elif cell is not None:
                del self._flow_cell[flow_id]
        else:
            # Pre-bucket discipline (the scale benchmark's baseline):
            # every rate change bumps the flow's version and posts a
            # fresh event at the new ETA; superseded events stay live in
            # the queue and are recognised at dispatch by their stale
            # version.  Physical completion times match the earliest-wins
            # discipline exactly, but the completion *tie-break order*
            # of simultaneous completions may differ, so this mode is a
            # wall-time baseline, not a golden-fingerprint variant.
            version = self._flow_version.get(flow_id, 0) + 1
            self._flow_version[flow_id] = version
            eta = flow.eta()
            if eta != _INF:
                if eta < self.now:
                    eta = self.now
                self.counters.events_posted += 1
                self._queue.post(
                    eta, next(self._seq), "flow", (flow_id, version)
                )

    def _maybe_finish_flow(self, payload) -> None:
        if type(payload) is tuple:
            # Eager (versioned) discipline: payload carries the version
            # current when the event was posted.
            flow_id, version = payload
            if self._flow_version.get(flow_id) != version:
                # A superseded (version-bumped) flow event: skip without
                # touching any state.
                self.counters.stale_events_skipped += 1
                return
        else:
            flow_id = payload
        entry = self._flows.get(flow_id)
        if entry is None:
            # An already-torn-down flow (with lazy invalidation this is
            # purely defensive — cancelled cells never dispatch).
            self.counters.stale_events_skipped += 1
            return
        flow, task_id, mb, sender_index = entry
        if self._lazy_inval:
            # Early-wakeup check WITHOUT reconciling the flow: the
            # remaining-bytes expression below is the same float
            # arithmetic ``advance_to`` would apply, so the completion
            # decision is bit-identical to reconcile-then-test, but a
            # kept-early event does not perturb the flow's
            # ``(remaining, last_update)`` reduction sequence.
            rate = flow.rate
            remaining = flow.remaining
            if self.now > flow.last_update and rate > 0.0:
                remaining = remaining - rate * (self.now - flow.last_update)
            if remaining > _EPS:
                # The rate dropped since this event was posted: the flow
                # is not done.  Consume the cell, reconcile any deferred
                # same-instant re-rate (it may have raised this flow's
                # rate), and repost at the current ETA.
                self._flow_cell.pop(flow_id, None)
                if self._dirty_edges:
                    self._flush_rerate()
                self._post_flow_eta(flow)
                return
            flow.advance_to(self.now)
        else:
            flow.advance_to(self.now)
            if flow.remaining > _EPS:
                self._post_flow_eta(flow)
                return
        del self._flows[flow_id]
        self._flow_version.pop(flow_id, None)
        self._flow_cell.pop(flow_id, None)
        if self._lazy_inval:
            # Defer the reallocation: simultaneous completions (the
            # common case in symmetric collectives) share one re-rate
            # pass and one repost wave, flushed before any rate is read.
            self.network.finish_flow(flow, self.now, rerate=False)
            dirty = self._dirty_edges
            for edge in flow.edges:
                dirty[edge] = None
        else:
            changed = self.network.finish_flow(flow, self.now)
            for other in changed:
                self._post_flow_eta(other)

        task = self.dag.task(task_id)
        self._link_exit(task.link, flow.nbytes)

        sender = self.tbs[sender_index]
        send_start = flow.start_time - self._route_latency(task_id, task)
        sender.stats.busy += self.now - send_start
        self._trace_event(sender, "send", send_start, self.now, task_id, mb)
        sender.stats.invocations += 1
        sender.phase = _FETCH
        sender.pc += 1
        self._progress()
        self._advance(sender)

        key = (task_id, mb)
        self._flow_done.add(key)
        state = self._recv_state.get(key)
        if state is not None and state[2]:
            # The receiver's copy clock already elapsed: the recv completes
            # the moment the last byte lands.
            self._finish_recv(key)

    def _route_latency(self, task_id: int, task) -> float:
        latency = self._task_latency.get(task_id)
        if latency is None:
            latency = self._task_latency[task_id] = (
                self.cluster.path(task.src, task.dst).latency_us
                * self.config.protocol.latency_factor
            )
        return latency

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------

    def _try_start_recv(self, tb: _TB, inv: Invocation) -> bool:
        key = (inv.task_id, inv.mb)
        if key not in self._flow_started:
            if tb.blocked_on is None:
                self._block(tb, "data", key, "sync")
                self._data_waiters[key] = tb.index
            return False
        if not self._deps_satisfied(inv.task_id, inv.mb):
            if tb.blocked_on is None or tb.blocked_on[0] != "deps":
                self._unblock(tb)
                self._block(tb, "deps", key, "data")
                self._dep_waiters[key].append(tb.index)
            return False
        self._unblock(tb)
        duration = (
            self._task_recv_duration.get(inv.task_id) if self._agg_meta else None
        )
        if duration is None:
            task = self.dag.task(inv.task_id)
            copy_bw = self.cluster.profile.tb_copy_bandwidth(tb.program.nwarps)
            duration = self.plan.chunk_bytes / copy_bw
            if task.op is CommType.RRC:
                duration += (
                    self.plan.chunk_bytes
                    * self.cluster.profile.reduce_cost_per_byte_us
                )
            if self._agg_meta:
                self._task_recv_duration[inv.task_id] = duration
        tb.phase = _INFLIGHT
        self._progress()
        self._recv_state[key] = [tb.index, self.now, False]
        self._post(self.now + duration, "recv_copy", key)
        return True

    def _recv_copy_elapsed(self, key: Tuple[int, int]) -> None:
        """The receiver's copy clock ran out; finish if the data is in."""
        state = self._recv_state.get(key)
        if state is None:  # pragma: no cover - defensive
            return
        if key in self._flow_done:
            self._finish_recv(key)
        else:
            state[2] = True  # now gated on flow completion only

    def _finish_recv(self, key: Tuple[int, int]) -> None:
        task_id, mb = key
        tb_index, start_time, _ = self._recv_state.pop(key)
        tb = self.tbs[tb_index]
        tb.stats.busy += self.now - start_time
        self._trace_event(tb, "recv", start_time, self.now, task_id, mb)
        tb.stats.invocations += 1
        tb.phase = _FETCH
        tb.pc += 1
        self._progress()

        # Task invocation complete: release the FIFO credit and satisfy
        # dependents.  An armed injector may delay the credit return
        # (modeling a slow acknowledgement path).
        credit_key = self._credit_owner.pop(key)
        delay = (
            self.injector.credit_delay(self.now)
            if self.injector is not None
            else 0.0
        )
        if delay > 0.0:
            self._post(self.now + delay, "credit", credit_key)
        else:
            self._release_credit(credit_key)

        self._completed.add(key)
        self._completion_log.append(key)
        self._satisfy_dependents(task_id, mb)
        self._advance(tb)

    def _release_credit(self, credit_key: Tuple[int, int]) -> None:
        self._credits[credit_key] += 1
        queue = self._credit_queue[credit_key]
        if queue and self._credits[credit_key] > 0:
            self._advance(self.tbs[queue.popleft()])

    def _satisfy_dependents(self, task_id: int, mb: int) -> None:
        for succ in self.dag.succs[task_id]:
            succ_key = (succ, mb)
            left = self._deps_left.get(succ_key)
            if left is not None and left > 0:
                self._deps_left[succ_key] = left - 1
                if left - 1 == 0:
                    for waiter in self._dep_waiters.pop(succ_key, ()):
                        self._advance(self.tbs[waiter])

    # ------------------------------------------------------------------
    # Link activity accounting
    # ------------------------------------------------------------------

    def _link_enter(self, link: str) -> None:
        stats = self._link_stats.get(link)
        if stats is None:
            stats = self._link_stats[link] = LinkStats(link=link)
        stats.flows_carried += 1
        if self._link_active[link] == 0:
            self._link_busy_since[link] = self.now
        self._link_active[link] += 1
        if self._record_trace:
            self._link_trace.append((link, self.now, self._link_active[link]))

    def _link_exit(self, link: str, bytes_moved: float) -> None:
        stats = self._link_stats[link]
        stats.bytes_moved += bytes_moved
        self._link_active[link] -= 1
        if self._link_active[link] == 0:
            stats.busy_time += self.now - self._link_busy_since.pop(link)
        if self._record_trace:
            self._link_trace.append((link, self.now, self._link_active[link]))

    # ------------------------------------------------------------------
    # Progress watchdog
    # ------------------------------------------------------------------

    def _is_quiescent(self) -> bool:
        """True when nothing currently scheduled can produce progress.

        Quiescence + an unchanged progress counter across a watchdog
        window is the stall condition: every payload flow is rate-zero,
        no receiver copy clock is running, and no TB timer (control
        overhead or injected-stall wakeup) is pending.
        """
        if self._tb_timers > 0:
            return False
        for flow, _task, _mb, _tb in self._flows.values():
            if flow.rate > 0.0:
                return False
        for state in self._recv_state.values():
            if not state[2]:  # copy clock still running
                return False
        return True

    def _watchdog_tick(self) -> None:
        if self._unfinished == 0:
            return  # run is over; let the heap drain
        window = self.watchdog_window_us
        stalled = (
            self._progress_counter == self._watchdog_seen_counter
            and self.now - self._last_progress_us >= window - _EPS
            and self._is_quiescent()
        )
        self._watchdog_seen_counter = self._progress_counter
        if not stalled:
            self._post(self.now + window, "watchdog", None)
            return
        stall = self._build_stall()
        if not self._stall_reported:
            self._stall_reported = True
            self.stalls_detected += 1
            if self.fault_stats is not None:
                self.fault_stats.detected_stalls += 1
            self.record_fault_event(
                "detect:stall", self._last_progress_us, self.now
            )
        # A pending fault-timeline *restoration* (a flap's link-up) may
        # unstick the run by itself; defer to it before escalating.
        # Pending applications (a future kill/degrade) cannot, so they do
        # not delay escalation.
        if (
            self.injector is not None
            and self.injector.has_pending_restorations()
        ):
            self._post(self.now + window, "watchdog", None)
            return
        if self.recovery is not None and self.recovery.on_stall(self, stall):
            self._post(self.now + window, "watchdog", None)
            return
        if self.fault_stats is not None:
            self.fault_stats.unrecovered += 1
        raise SimulationStall(
            f"watchdog stall: no progress for {window:.0f}us and "
            f"{self._unfinished} TB(s) never finished\n" + stall.render(),
            stall=stall,
        )

    def _build_stall(self):
        from ..faults.watchdog import build_progress_stall

        return build_progress_stall(self)

    # ------------------------------------------------------------------
    # Fault-injection hooks (no-ops unless an injector/recovery is armed)
    # ------------------------------------------------------------------

    def record_fault_event(
        self, kind: str, start: float, end: float, tb_index: int = -1
    ) -> None:
        """Append a fault/detection/recovery event to the fault trace.

        Unlike :meth:`_trace_event` these are recorded unconditionally:
        a faulted run's trace must show its fault timeline even when
        per-TB activity tracing is off.  The buffer is a bounded ring
        (``SimConfig.fault_trace_cap``) so long chaos runs cannot grow
        memory without limit; evictions surface as
        ``SimReport.trace_dropped``.
        """
        cap = self.config.fault_trace_cap
        if cap > 0 and len(self._fault_trace) >= cap:
            self._fault_trace.popleft()
            self._trace_dropped += 1
        rank = self.tbs[tb_index].program.rank if tb_index >= 0 else -1
        self._fault_trace.append(
            TraceEvent(
                tb_index=tb_index,
                rank=rank,
                kind=kind,
                start_us=start,
                end_us=end,
            )
        )
        if self.fault_stats is not None:
            events = self.fault_stats.events
            events[kind] = events.get(kind, 0) + 1

    def apply_edge_factor(self, edge: str, factor: float) -> None:
        """Derate (or restore) a contention edge mid-run."""
        changed = self.network.set_capacity_factor(edge, factor, self.now)
        if self.fault_stats is not None:
            tiers = self.fault_stats.capacity_changes
            tier = tier_of(edge)
            tiers[tier] = tiers.get(tier, 0) + 1
        for flow in changed:
            self._post_flow_eta(flow)

    def freeze_tb(self, tb_index: int, until_us: float) -> None:
        """Stall one TB's control progress until ``until_us``."""
        current = self._frozen.get(tb_index, 0.0)
        self._frozen[tb_index] = max(current, until_us)
        self.record_fault_event(
            "fault:tb-stall", self.now, until_us, tb_index=tb_index
        )

    def abort_flow(self, flow_id: int) -> Tuple[Flow, int, int, int]:
        """Tear down an in-flight flow (fault recovery retransmit path).

        Returns ``(flow, task_id, mb, sender_tb_index)``; the sender TB
        stays in-flight and resumes when the flow is re-admitted via
        :meth:`register_flow`.
        """
        flow, task_id, mb, sender_index = self._flows.pop(flow_id)
        self._flow_version.pop(flow_id, None)
        cell = self._flow_cell.pop(flow_id, None)
        if cell is not None:
            self._queue.cancel(cell)
        for other in self.network.abort_flow(flow, self.now):
            self._post_flow_eta(other)
        task = self.dag.task(task_id)
        self._link_exit(task.link, flow.nbytes - flow.remaining)
        return flow, task_id, mb, sender_index

    def register_flow(
        self, flow: Flow, changed: List[Flow], task_id: int, mb: int,
        sender_index: int,
    ) -> None:
        """Adopt a re-admitted flow started directly on the network."""
        self._flows[flow.flow_id] = (flow, task_id, mb, sender_index)
        if not self._lazy_inval:
            self._flow_version[flow.flow_id] = 0
        self._link_enter(self.dag.task(task_id).link)
        self._progress()
        self._post_flow_eta(flow)
        for other in changed:
            if other.flow_id != flow.flow_id:
                self._post_flow_eta(other)

    def on_edge_restored(self, edge: str) -> None:
        """Called by the injector when a downed edge comes back up."""
        if self.recovery is not None:
            self.recovery.on_edge_restored(self, edge)

    def zero_rate_flows(self) -> List[Tuple[Flow, int, int, int]]:
        """In-flight payload flows currently starved to rate zero."""
        return [
            entry for entry in self._flows.values() if entry[0].rate <= 0.0
        ]

    def export_checkpoint(self) -> Dict[str, object]:
        """Snapshot delivered progress for the replan-and-resume path.

        Returns the raw material a
        :class:`~repro.faults.checkpoint.CollectiveCheckpoint` is built
        from: the ordered ``(task_id, micro_batch)`` completion log (the
        instances whose payload has fully landed and been copied out),
        per-instance bytes already streamed by in-flight-but-unfinished
        flows, and the current clock.  Partial in-flight bytes are
        reported for accounting only — recovery retransmits those chunks
        whole, which is always safe because a send never destroys its
        source slot and the receive that would apply the payload has not
        completed.
        """
        inflight: Dict[Tuple[int, int], float] = {}
        for flow, task_id, mb, _sender in self._flows.values():
            flow.advance_to(self.now)
            inflight[(task_id, mb)] = max(0.0, flow.nbytes - flow.remaining)
        return {
            "plan_name": self.plan.name,
            "at_us": self.now,
            "completed": list(self._completion_log),
            "inflight_bytes": inflight,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _completion_time(self) -> float:
        # Completion is when the last TB retires; stale (version-
        # invalidated) flow events may leave self.now slightly past that.
        return max(
            (tb.stats.release_time for tb in self.tbs), default=self.now
        )

    def _fold_counters(self) -> None:
        """Fold the flow network's and event queue's totals into
        ``self.counters`` (once, when the event loop ends)."""
        counters = self.counters
        network = self.network
        counters.reallocations = network.reallocations
        counters.shares_computed = network.shares_computed
        counters.rate_updates = network.rate_updates
        counters.flows_admitted = network.flows_admitted
        counters.vectorized_passes = network.vectorized_passes
        counters.scalar_passes = network.scalar_passes
        queue = self._queue
        # Cancelled (superseded) entries never dispatched; fold them into
        # the pop/stale totals so the counters keep the pre-bucket
        # semantics: every posted event is either dispatched or skipped.
        counters.events_popped += queue.cancelled_skipped
        counters.stale_events_skipped += queue.cancelled_skipped
        counters.queue_depth_max = queue.depth_max
        counters.bucket_occupancy_max = queue.bucket_occupancy_max
        counters.queue_refills = queue.refills
        counters.agg_tasks_cached = len(self._task_send_meta) + len(
            self._task_recv_duration
        )

    def _publish_metrics(self) -> None:
        """Publish this run to the armed registry, once.

        The only registry calls the simulator makes.  Every series is
        read from the run's own plain counters — ``SimCounters``, the
        ``TBStats``, the ``LinkStats`` and the ``FaultStats`` — and the
        per-link detail is summed per fabric tier, so the series count
        does not depend on the fabric size.  Per-link numbers stay in
        ``SimReport.link_stats``.
        """
        registry = self._metrics
        counters = self.counters
        registry.set("sim_completion_time_us", self._completion_time())
        for name, value in (
            ("sim_events_posted_total", counters.events_posted),
            ("sim_events_popped_total", counters.events_popped),
            ("sim_stale_events_skipped_total", counters.stale_events_skipped),
            ("sim_flows_started_total", counters.flows_admitted),
            ("sim_credit_stalls_total", counters.credit_stalls),
            ("sim_watchdog_stalls_total", self.stalls_detected),
            ("sim_edge_shares_computed_total", counters.shares_computed),
            ("sim_vectorized_passes_total", counters.vectorized_passes),
            ("sim_agg_runs_collapsed_total", counters.agg_runs_collapsed),
            ("sim_agg_instances_expanded_total",
             counters.agg_instances_expanded),
            ("sim_agg_collapse_noop_total", counters.agg_collapse_noop),
            ("net_reallocations_total", counters.reallocations),
            ("net_rate_changes_total", counters.rate_updates),
        ):
            registry.inc(name, value)
        registry.set("sim_queue_depth_max", counters.queue_depth_max)
        registry.set("sim_bucket_occupancy_max", counters.bucket_occupancy_max)
        registry.set("sim_agg_tasks_cached", counters.agg_tasks_cached)
        stats = [tb.stats for tb in self.tbs]
        registry.inc(
            "sim_wait_us_total", sum(s.data_wait for s in stats), kind="data"
        )
        registry.inc(
            "sim_wait_us_total", sum(s.sync_wait for s in stats), kind="sync"
        )
        busy = dict.fromkeys(TIERS, 0.0)
        moved = dict.fromkeys(TIERS, 0.0)
        for link, link_stats in self._link_stats.items():
            tier = tier_of(link)
            busy[tier] += link_stats.busy_time
            moved[tier] += link_stats.bytes_moved
        for tier in TIERS:
            registry.set("sim_link_busy_us", busy[tier], tier=tier)
            registry.inc("sim_link_bytes_total", moved[tier], tier=tier)
        faults = self.fault_stats
        if faults is not None:
            for tier in TIERS:
                registry.inc(
                    "net_capacity_derates_total",
                    faults.capacity_changes.get(tier, 0),
                    tier=tier,
                )
            for kind, count in faults.events.items():
                registry.inc("sim_fault_events_total", count, kind=kind)

    def _report(self) -> SimReport:
        trace = self._trace
        if self._fault_trace:
            # Interleave the (bounded) fault timeline chronologically.
            trace = sorted(
                [*trace, *self._fault_trace],
                key=lambda e: (e.start_us, e.end_us),
            )
        return SimReport(
            plan_name=self.plan.name,
            mode=self.plan.mode,
            completion_time_us=self._completion_time(),
            total_bytes=self.plan.total_bytes,
            tb_stats=[tb.stats for tb in self.tbs],
            link_stats=self._link_stats,
            completion_order=self._completion_log,
            trace=trace,
            fault_stats=self.fault_stats,
            trace_dropped=self._trace_dropped,
            link_trace=self._link_trace,
            counters=self.counters,
        )

    def _describe_invocation(self, inv: Optional[Invocation]) -> str:
        """``pc`` context for diagnostics: primitive, task, and route."""
        if inv is None:
            return "<end of program>"
        task = self.dag.task(inv.task_id)
        return (
            f"{inv.side.value} task {inv.task_id} "
            f"({task.op.value} {task.src}->{task.dst}) mb {inv.mb}"
        )

    def _deadlock_report(self) -> str:
        lines = [
            f"deadlock at t={self.now:.1f}us: "
            f"{self._unfinished} TB(s) never finished"
        ]
        shown = 0
        for tb in self.tbs:
            if tb.phase == _DONE:
                continue
            waited = max(0.0, self.now - tb.wait_start) if tb.blocked_on else 0.0
            lines.append(
                f"  rank {tb.program.rank} TB{tb.program.tb_index} "
                f"({tb.program.label}) pc={tb.pc}/{len(tb.program.invocations)} "
                f"phase={tb.phase} blocked_on={tb.blocked_on} "
                f"(waited {waited:.1f}us) pending "
                f"{self._describe_invocation(tb.current())}"
            )
            shown += 1
            if shown >= 16:
                lines.append("  ...")
                break
        occupancy = self._credit_occupancy()
        if occupancy:
            lines.append("  connection FIFO credits (used/depth, waiters):")
            lines.extend(occupancy[:16])
        return "\n".join(lines)

    def _credit_occupancy(self) -> List[str]:
        """Per-connection FIFO credit usage for stall/deadlock reports."""
        depth = self.config.fifo_depth
        lines = []
        for (tb_index, dst), available in sorted(self._credits.items()):
            used = depth - available
            waiters = len(self._credit_queue.get((tb_index, dst), ()))
            if used == 0 and waiters == 0:
                continue
            tb = self.tbs[tb_index]
            lines.append(
                f"    rank {tb.program.rank} TB{tb.program.tb_index} -> "
                f"rank {dst}: {used}/{depth} in flight, "
                f"{waiters} TB(s) queued"
            )
        return lines


def simulate(
    plan: ExecutionPlan,
    background_traffic: Optional[List[Tuple[Tuple[str, ...], float]]] = None,
    record_trace: bool = False,
    injector=None,
    recovery=None,
) -> SimReport:
    """Convenience wrapper: build a simulator, run it, return the report.

    When the plan's config enables fast-fidelity micro-batch collapse,
    each uniform micro-batch run is folded into one representative
    instance before simulation and the report is fanned back out
    afterwards (see :mod:`repro.runtime.aggregate`).  Collapse is
    refused — recorded as ``counters.agg_collapse_disabled`` — whenever
    a fault injector, recovery policy, or background traffic is present,
    because sibling timing is observable in those runs (checkpoints,
    per-instance retries, external contention).  A collapse that is
    *permitted but has nothing to fold* (single micro-batch) is recorded
    as ``counters.agg_collapse_noop`` so fast-fidelity screens can tell
    when they silently measured the exact plan.
    """
    collapsed = None
    collapse_disabled = False
    collapse_noop = False
    if plan.config.collapse_microbatches:
        if injector is not None or recovery is not None or background_traffic:
            collapse_disabled = True
        elif plan.n_microbatches > 1:
            collapsed = collapse_microbatch_runs(plan)
            if collapsed is None:
                collapse_noop = True
        else:
            # Nothing to fold: the plan has a single micro-batch, so
            # fast fidelity silently measures the exact plan (the
            # >= 8x8 / 64 MB mesh-allreduce gotcha).
            collapse_noop = True
    with obs_span("simulate", plan=plan.name) as sp:
        sim = Simulator(
            collapsed.plan if collapsed is not None else plan,
            background_traffic=background_traffic,
            record_trace=record_trace,
            injector=injector,
            recovery=recovery,
        )
        # The collapse outcome is known before the run, so it lands in
        # the counters the run publishes.
        counters = sim.counters
        counters.agg_collapse_disabled = int(collapse_disabled)
        counters.agg_collapse_noop = int(collapse_noop)
        if collapsed is not None:
            counters.agg_runs_collapsed = collapsed.runs_collapsed
            counters.agg_instances_expanded = collapsed.runs_collapsed * (
                collapsed.n_microbatches - 1
            )
        report = sim.run()
        if collapsed is not None:
            report = expand_report(report, collapsed)
        sp.set(
            completion_time_us=report.completion_time_us,
            tbs=report.tb_count(),
            trace_events=len(report.trace),
        )
    return report


__all__ = ["Simulator", "SimulationDeadlock", "SimulationStall", "simulate"]
