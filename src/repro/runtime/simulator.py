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

The plan is lowered once, when the simulator is built, into a flat
**step table** per TB: one tuple per ``pc`` holding the side, task,
micro-batch, dense instance index ``task * n_mb + mb``, FIFO credit
slot, and the step's own send cap (send) or copy time (recv), both
derived from the step's own TB.  Per-task arrays hold the route edges,
the protocol-adjusted route latency, the logical link and the
successors; per-instance state (dependency counts, stream started and
landed flags, data waiters, credit owners) lives in dense lists indexed
by instance.  The event loop then reads indices instead of re-deriving
any of it per invocation, as generated kernels do (section 4.5).

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
from .events import EventQueue
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
    """Mutable execution state of one thread block.

    ``steps`` is the TB's lowered program: one
    ``(is_send, task_id, mb, inst, credit_slot, cap_or_copy_us)`` tuple
    per ``pc`` (see :meth:`Simulator._lower`).
    """

    __slots__ = (
        "index",
        "program",
        "steps",
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
        self.steps: List[tuple] = []
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

    #: The rate solver this simulator instantiates.  The reference
    #: networks in ``tests/oracles/rates.py`` subclass it.
    network_class = FlowNetwork

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
        self.network = self.network_class(
            {e: self.cluster.edge_capacity(e) for e in self.cluster.edges},
            gamma=self.config.gamma,
            rate_rel_epsilon=self.config.rate_rel_epsilon,
        )
        self.start_at_us = start_at_us
        self.now = start_at_us
        self.counters = SimCounters()
        self._queue = EventQueue()
        self._seq = itertools.count()
        # The live completion-event entry of each flow, cancelled in
        # place when a re-rate supersedes it, so stale events are
        # skipped inside the queue without a dispatch.
        self._flow_cell: Dict[int, list] = {}
        for edges, cap in background_traffic or ():
            # Effectively-infinite payload: the congestor never drains.
            self.network.start_flow(
                edges=tuple(edges), nbytes=float("inf"), cap=cap, now=self.now
            )
        # The congestors join first and settle in one pass; they post no
        # completion event.
        self.network.rerate_edges(self.now)

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

        self._lower()

        # Active flows: flow_id -> (flow, task_id, mb, sender tb index).
        self._flows: Dict[int, Tuple[Flow, int, int, int]] = {}

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
        # Pending "tb" wakeups (overhead / unfreeze) and "admit" joins.
        self._timers = 0
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

    def _lower(self) -> None:
        """Lower the plan once into per-TB step tables and dense state.

        ``plan.validate()`` has run, so every step's task is in
        ``range(len(dag))`` and its micro-batch in ``range(n_mb)``: the
        instance index ``inst = task_id * n_mb + mb`` is dense, and each
        instance has exactly one send step and one recv step.  A send
        step carries its TB's send cap and a recv step its TB's copy
        time (plus the reduction cost for ``recvReduceCopy``), so
        micro-batch siblings placed on TBs of different warp counts are
        each timed by their own TB.
        """
        plan = self.plan
        cluster = self.cluster
        profile = cluster.profile
        protocol = self.config.protocol
        tasks = self.dag.tasks
        ntasks = len(tasks)
        n_mb = plan.n_microbatches
        chunk_bytes = plan.chunk_bytes
        self._n_mb = n_mb
        self._chunk_bytes = chunk_bytes
        self._interpreter = plan.mode is ExecMode.INTERPRETER

        latency_factor = protocol.latency_factor
        self._task_edges: List[Tuple[str, ...]] = []
        self._task_alpha: List[float] = []
        for task in tasks:
            path = cluster.path(task.src, task.dst)
            self._task_edges.append(path.edges)
            self._task_alpha.append(path.latency_us * latency_factor)
        self._task_link: List[str] = [task.link for task in tasks]
        succs = self.dag.succs
        self._task_succs: List[Tuple[int, ...]] = [
            tuple(succs[t]) for t in range(ntasks)
        ]
        dst_of = [task.dst for task in tasks]
        is_rrc = [task.op is CommType.RRC for task in tasks]

        # Per-TB step tables.  FIFO credits are per (sender TB,
        # destination rank): each sending TB owns a private chunk FIFO
        # towards each peer, as NCCL channels do.  Each such pair gets
        # a dense slot; ``_credit_slots`` maps a slot back to it.
        reduce_us = chunk_bytes * profile.reduce_cost_per_byte_us
        efficiency = protocol.bandwidth_efficiency
        slot_of: Dict[Tuple[int, int], int] = {}
        self._credit_slots: List[Tuple[int, int]] = []
        for tb in self.tbs:
            invocations = tb.program.invocations
            if not invocations:
                continue
            copy_bw = profile.tb_copy_bandwidth(tb.program.nwarps)
            cap = copy_bw * efficiency
            copy_us = chunk_bytes / copy_bw
            rrc_us = copy_us + reduce_us
            index = tb.index
            steps = tb.steps
            for inv in invocations:
                task_id = inv.task_id
                mb = inv.mb
                inst = task_id * n_mb + mb
                if inv.side is Side.SEND:
                    key = (index, dst_of[task_id])
                    slot = slot_of.get(key)
                    if slot is None:
                        slot = slot_of[key] = len(self._credit_slots)
                        self._credit_slots.append(key)
                    steps.append((True, task_id, mb, inst, slot, cap))
                else:
                    copy = rrc_us if is_rrc[task_id] else copy_us
                    steps.append((False, task_id, mb, inst, -1, copy))
        nslots = len(self._credit_slots)
        self._credits: List[int] = [self.config.fifo_depth] * nslots
        self._credit_queue: List[Deque[int]] = [deque() for _ in range(nslots)]

        # Per-instance state.  Micro-batches are data-independent, so
        # dependencies never cross them: every instance starts with its
        # task's predecessor count.
        preds = self.dag.preds
        ninst = ntasks * n_mb
        self._deps_left: List[int] = [
            len(preds[t]) for t in range(ntasks) for _ in range(n_mb)
        ]
        self._dep_waiters: List[Optional[List[int]]] = [None] * ninst
        # ``_flow_started`` marks instances whose sender began streaming
        # (a receiver may then start its overlapped copy); ``_flow_done``
        # marks fully-arrived payloads.
        self._flow_started = bytearray(ninst)
        self._flow_done = bytearray(ninst)
        self._data_waiters: List[int] = [-1] * ninst
        # The credit slot each in-flight instance must release.
        self._credit_owner: List[int] = [0] * ninst
        # In-progress receives: inst -> [tb_index, start_time, copy_elapsed].
        self._recv_state: Dict[int, list] = {}

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _post(self, time: float, kind: str, payload: object) -> list:
        if kind == "tb" or kind == "admit":
            self._timers += 1
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
        network = self.network
        while True:
            if network.dirty_edges:
                # Joins or finishes at self.now still await their solver
                # pass.  It may stay deferred only while the next event
                # is another flow completion or admission at the same
                # instant (a completion check is rate-independent over a
                # zero-length interval, and a join reads no rate);
                # anything else — a later event, any other event kind, or
                # an empty queue — must see settled rates, and the flush
                # may post completion events earlier than the next entry.
                nxt = queue.peek()
                if (
                    nxt is None
                    or nxt[0] != self.now
                    or (nxt[2] != "flow" and nxt[2] != "admit")
                ):
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
                self._timers -= 1
                tb = self.tbs[payload]  # type: ignore[index]
                self._advance(tb)
            elif kind == "flow":
                self._maybe_finish_flow(payload)
            elif kind == "admit":
                self._timers -= 1
                self._admit(payload)
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
            phase = tb.phase
            if phase == _DONE or phase == _INFLIGHT:
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
            pc = tb.pc
            if pc >= len(tb.steps):
                tb.phase = _DONE
                tb.stats.release_time = self.now
                self._unfinished -= 1
                return
            if phase == _FETCH:
                # Per-invocation decode cost, or one-time kernel
                # pipeline load.
                if self._interpreter:
                    overhead = self.config.interp_cost_us
                elif pc == 0:
                    overhead = self.config.kernel_load_us
                else:
                    overhead = 0.0
                tb.phase = _READY
                if overhead > 0.0:
                    tb.stats.overhead += overhead
                    self._trace_event(tb, "overhead", self.now, self.now + overhead)
                    self._post(self.now + overhead, "tb", tb.index)
                    return
                continue
            # _READY: try to start the step.
            step = tb.steps[pc]
            if step[0]:
                if not self._try_start_send(tb, step):
                    return
            elif not self._try_start_recv(tb, step):
                return

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

    def _wait_deps(self, tb: _TB, step: tuple) -> None:
        self._block(tb, "deps", (step[1], step[2]), "data")
        inst = step[3]
        waiters = self._dep_waiters[inst]
        if waiters is None:
            self._dep_waiters[inst] = [tb.index]
        else:
            waiters.append(tb.index)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------

    def _try_start_send(self, tb: _TB, step: tuple) -> bool:
        _, task_id, mb, inst, slot, cap = step
        if self._deps_left[inst]:
            if tb.blocked_on is None:
                self._wait_deps(tb, step)
            return False
        if self._credits[slot] <= 0:
            if tb.blocked_on is None or tb.blocked_on[0] != "credit":
                # May transition from a deps wait into a credit wait.
                self._unblock(tb)
                self._block(tb, "credit", self._credit_slots[slot], "sync")
                self._credit_queue[slot].append(tb.index)
                self.counters.credit_stalls += 1
            return False
        self._unblock(tb)
        self._credits[slot] -= 1
        self._credit_owner[inst] = slot
        tb.phase = _INFLIGHT
        self.post_send(
            task_id, mb, tb.index, self._task_edges[task_id],
            self._chunk_bytes, cap,
        )
        # The receiver may begin its overlapped copy as soon as the stream
        # is in flight (recvCopySend semantics).
        self._flow_started[inst] = 1
        waiter = self._data_waiters[inst]
        if waiter >= 0:
            self._data_waiters[inst] = -1
            self._advance(self.tbs[waiter])
        return True

    def post_send(
        self,
        task_id: int,
        mb: int,
        sender_index: int,
        edges: Tuple[str, ...],
        nbytes: float,
        cap: float,
    ) -> None:
        """Post a send whose flow joins the network at its first byte.

        The one admission step for every payload flow, first
        transmissions and recovery retransmits alike.  The first byte
        reaches the fabric one route latency α after the send posts, so
        the flow gains edge membership, a share and a rate at
        ``now + α`` — through an ``admit`` event when α > 0, at once
        when α = 0 — and holds no share during α.  The flow network is
        therefore only ever called at the simulator's current time.
        """
        self._progress()
        self._link_enter(self._task_link[task_id])
        send = (task_id, mb, sender_index, edges, nbytes, cap)
        latency = self._task_alpha[task_id]
        if latency > 0.0:
            self._post(self.now + latency, "admit", send)
        else:
            self._admit(send)

    def _admit(self, send) -> None:
        """Join a posted send's flow to the network at ``self.now``.

        The join is a membership change only: the flow's rate, and the
        rates of the peers it slows down, are set by the one solver pass
        of this instant (:meth:`_flush_rerate`), which also posts the
        flow's first completion event.  Admissions at one instant
        therefore share one pass with each other and with that instant's
        finishes instead of re-rating peers one at a time.
        """
        task_id, mb, sender_index, edges, nbytes, cap = send
        flow = self.network.start_flow(edges, nbytes, cap, self.now)
        self._flows[flow.flow_id] = (flow, task_id, mb, sender_index)

    def _flush_rerate(self) -> None:
        """Run the instant's one solver pass over every pending join and
        finish, and (re)post the completion events of the flows whose
        rate changed — the just-joined flows included."""
        for flow in self.network.rerate_edges(self.now):
            self._post_flow_eta(flow)

    def _post_flow_eta(self, flow: Flow) -> None:
        """Earliest-wins discipline: a completion event is (re)posted
        only when the flow's ETA moved *earlier* than the pending event
        (or none is pending).

        When a rate drop moves the ETA later, the pending event is kept
        — it wakes early, finds the flow unfinished, and reposts itself
        at the then-current ETA (see :meth:`_maybe_finish_flow`).
        Peers that an instant's admissions only slow down therefore get
        no new event from its solver pass; a just-joined flow has no
        pending event, so it always gets its first one there.  A
        superseded (later-firing) event is cancelled in place
        (``cell[4] = False`` inlines ``EventQueue.cancel`` — this is the
        hottest call site in the simulator) and skipped inside the queue.  The eager reference
        discipline, which reposts on every rate change, lives in
        ``tests/oracles/eager.py``.
        """
        flow_id = flow.flow_id
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

    def _maybe_finish_flow(self, flow_id: int) -> None:
        entry = self._flows.get(flow_id)
        if entry is None:
            # An already-torn-down flow (purely defensive — cancelled
            # cells never dispatch).
            self.counters.stale_events_skipped += 1
            return
        flow = entry[0]
        # Early-wakeup check WITHOUT reconciling the flow: the
        # remaining-bytes expression below is the same float arithmetic
        # ``advance_to`` would apply, so the completion decision is
        # bit-identical to reconcile-then-test, but a kept-early event
        # does not perturb the flow's ``(remaining, last_update)``
        # reduction sequence.
        rate = flow.rate
        remaining = flow.remaining
        if self.now > flow.last_update and rate > 0.0:
            remaining = remaining - rate * (self.now - flow.last_update)
        if remaining > _EPS:
            # The rate dropped since this event was posted: the flow is
            # not done.  Consume the cell, settle any pending same-instant
            # pass (it may have raised this flow's rate), and repost at
            # the current ETA.
            self._flow_cell.pop(flow_id, None)
            self._flush_rerate()
            self._post_flow_eta(flow)
            return
        flow.advance_to(self.now)
        del self._flows[flow_id]
        self._flow_cell.pop(flow_id, None)
        # The removal joins this instant's pending pass: simultaneous
        # completions and admissions (the common case in symmetric
        # collectives) share one re-rate and one repost wave, flushed
        # before any rate is read.
        self.network.finish_flow(flow, self.now)
        self._send_done(*entry)

    def _send_done(
        self, flow: Flow, task_id: int, mb: int, sender_index: int
    ) -> None:
        """The last byte of a send landed: retire it on both sides."""
        self._link_exit(self._task_link[task_id], flow.nbytes)

        sender = self.tbs[sender_index]
        send_start = flow.start_time - self._task_alpha[task_id]
        sender.stats.busy += self.now - send_start
        self._trace_event(sender, "send", send_start, self.now, task_id, mb)
        sender.stats.invocations += 1
        sender.phase = _FETCH
        sender.pc += 1
        self._progress()
        self._advance(sender)

        inst = task_id * self._n_mb + mb
        self._flow_done[inst] = 1
        state = self._recv_state.get(inst)
        if state is not None and state[2]:
            # The receiver's copy clock already elapsed: the recv completes
            # the moment the last byte lands.
            self._finish_recv(inst)

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------

    def _try_start_recv(self, tb: _TB, step: tuple) -> bool:
        inst = step[3]
        if not self._flow_started[inst]:
            if tb.blocked_on is None:
                self._block(tb, "data", (step[1], step[2]), "sync")
                self._data_waiters[inst] = tb.index
            return False
        if self._deps_left[inst]:
            if tb.blocked_on is None or tb.blocked_on[0] != "deps":
                self._unblock(tb)
                self._wait_deps(tb, step)
            return False
        self._unblock(tb)
        tb.phase = _INFLIGHT
        self._progress()
        self._recv_state[inst] = [tb.index, self.now, False]
        self._post(self.now + step[5], "recv_copy", inst)
        return True

    def _recv_copy_elapsed(self, inst: int) -> None:
        """The receiver's copy clock ran out; finish if the data is in."""
        state = self._recv_state.get(inst)
        if state is None:  # pragma: no cover - defensive
            return
        if self._flow_done[inst]:
            self._finish_recv(inst)
        else:
            state[2] = True  # now gated on flow completion only

    def _finish_recv(self, inst: int) -> None:
        """Complete an instance: release its credit, wake its dependents."""
        n_mb = self._n_mb
        task_id, mb = divmod(inst, n_mb)
        tb_index, start_time, _ = self._recv_state.pop(inst)
        tb = self.tbs[tb_index]
        tb.stats.busy += self.now - start_time
        self._trace_event(tb, "recv", start_time, self.now, task_id, mb)
        tb.stats.invocations += 1
        tb.phase = _FETCH
        tb.pc += 1
        self._progress()

        # An armed injector may delay the credit return (modeling a slow
        # acknowledgement path).
        slot = self._credit_owner[inst]
        delay = (
            self.injector.credit_delay(self.now)
            if self.injector is not None
            else 0.0
        )
        if delay > 0.0:
            self._post(self.now + delay, "credit", slot)
        else:
            self._release_credit(slot)

        self._completion_log.append((task_id, mb))
        deps_left = self._deps_left
        for succ in self._task_succs[task_id]:
            succ_inst = succ * n_mb + mb
            left = deps_left[succ_inst] - 1
            deps_left[succ_inst] = left
            if left == 0:
                waiters = self._dep_waiters[succ_inst]
                if waiters is not None:
                    self._dep_waiters[succ_inst] = None
                    for waiter in waiters:
                        self._advance(self.tbs[waiter])
        self._advance(tb)

    def _release_credit(self, slot: int) -> None:
        credits = self._credits
        credits[slot] += 1
        queue = self._credit_queue[slot]
        if queue and credits[slot] > 0:
            self._advance(self.tbs[queue.popleft()])

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
        no receiver copy clock is running, and no timer (control
        overhead, injected-stall wakeup or flow admission) is pending.
        """
        if self._timers > 0:
            return False
        self._flush_rerate()
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
        self._flush_rerate()
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
        stays in-flight and resumes when the remaining bytes are posted
        again via :meth:`post_send`.  The teardown joins the instant's
        pending solver pass, like a finish.
        """
        self._flush_rerate()
        flow, task_id, mb, sender_index = self._flows.pop(flow_id)
        cell = self._flow_cell.pop(flow_id, None)
        if cell is not None:
            self._queue.cancel(cell)
        self.network.abort_flow(flow, self.now)
        self._link_exit(self._task_link[task_id], flow.nbytes - flow.remaining)
        return flow, task_id, mb, sender_index

    def on_edge_restored(self, edge: str) -> None:
        """Called by the injector when a downed edge comes back up."""
        if self.recovery is not None:
            self.recovery.on_edge_restored(self, edge)

    def zero_rate_flows(self) -> List[Tuple[Flow, int, int, int]]:
        """In-flight payload flows currently starved to rate zero."""
        self._flush_rerate()
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
        self._flush_rerate()
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
        # Completion is when the last TB retires; a watchdog tick may
        # leave self.now past that.
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
        # One re-rater runs every pass (see SimCounters.scalar_passes).
        counters.scalar_passes = network.reallocations
        queue = self._queue
        # Cancelled (superseded) entries never dispatched; fold them into
        # the pop/stale totals so every posted event counts as either
        # dispatched or skipped.
        counters.events_popped += queue.cancelled_skipped
        counters.stale_events_skipped += queue.cancelled_skipped
        counters.queue_depth_max = queue.depth_max

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
            ("sim_agg_runs_collapsed_total", counters.agg_runs_collapsed),
            ("sim_agg_instances_expanded_total",
             counters.agg_instances_expanded),
            ("net_reallocations_total", counters.reallocations),
            ("net_rate_changes_total", counters.rate_updates),
        ):
            registry.inc(name, value)
        registry.set("sim_queue_depth_max", counters.queue_depth_max)
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
        for (tb_index, dst), available, queue in sorted(
            zip(self._credit_slots, self._credits, self._credit_queue),
            key=lambda row: row[0],
        ):
            used = depth - available
            waiters = len(queue)
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
    per-instance retries, external contention).  A single-micro-batch
    plan has nothing to fold: ``counters.agg_runs_collapsed`` stays 0 and
    the counters' summary carries no collapse clause.
    """
    collapsed = None
    collapse_disabled = False
    if plan.config.collapse_microbatches:
        if injector is not None or recovery is not None or background_traffic:
            collapse_disabled = True
        else:
            collapsed = collapse_microbatch_runs(plan)
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
