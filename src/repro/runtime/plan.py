"""Execution plans: what each thread block runs, in what order.

A backend (ResCCL, NCCL-like, MSCCL-like) turns an algorithm into an
:class:`ExecutionPlan`: a set of per-rank thread-block programs, each an
ordered list of primitive :class:`Invocation`\\ s — one side of one
transmission task for one micro-batch.  The plan also fixes the runtime
mode:

* ``kernel`` — ResCCL's generated lightweight kernels: a one-time
  pipeline-load cost per TB, then zero per-invocation control overhead;
* ``interpreter`` — the MSCCL-style runtime interpreter: every primitive
  invocation pays a fixed decode cost (the Figure 3 overhead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..ir.dag import DependencyDAG
from ..lang.builder import AlgoProgram
from ..topology import Cluster

MB = float(1 << 20)


class Side(enum.Enum):
    """Which half of a transmission task an invocation executes."""

    SEND = "send"
    RECV = "recv"


class ExecMode(enum.Enum):
    """Runtime control-plane style."""

    KERNEL = "kernel"
    INTERPRETER = "interpreter"


class Protocol(enum.Enum):
    """Transport protocol (Table 2): the latency/bandwidth trade-off.

    * ``SIMPLE`` — rendezvous transport, full bandwidth, full startup
      latency (the paper's evaluation protocol);
    * ``LL`` — 8-byte flag-interleaved low-latency protocol: half the
      startup latency, but flags consume half the wire (50% efficiency);
    * ``LL128`` — 128-byte-line variant: low latency with 120/128 of the
      wire carrying payload.
    """

    SIMPLE = "Simple"
    LL = "LL"
    LL128 = "LL128"

    @property
    def latency_factor(self) -> float:
        return 1.0 if self is Protocol.SIMPLE else 0.5

    @property
    def bandwidth_efficiency(self) -> float:
        if self is Protocol.SIMPLE:
            return 1.0
        if self is Protocol.LL:
            return 0.5
        return 120.0 / 128.0


@dataclass(frozen=True)
class Invocation:
    """One primitive execution: (task, side, micro-batch)."""

    task_id: int
    side: Side
    mb: int


@dataclass
class TBProgram:
    """An ordered primitive program bound to one thread block.

    Attributes:
        rank: the GPU the TB runs on.
        tb_index: TB slot within the rank (dense, for reporting).
        invocations: the program, executed strictly in order.
        nwarps: warp count — sets the TB's copy bandwidth.
        label: human-readable provenance (connection/stage/pipeline).
    """

    rank: int
    tb_index: int
    invocations: List[Invocation]
    nwarps: int = 4
    label: str = ""

    def __len__(self) -> int:
        return len(self.invocations)


@dataclass
class SimConfig:
    """Runtime constants of the simulated backend execution.

    Attributes:
        gamma: Equation 1 link-contention penalty coefficient.
        fifo_depth: connection FIFO depth in chunks — how far a sender
            may run ahead of its receiver before blocking on credits.
        interp_cost_us: per-invocation decode cost in interpreter mode
            (continuous loading/parsing of the algorithm, section 2.2).
        kernel_load_us: one-time pipeline-load cost ``t_Load`` per TB in
            kernel mode (Equation 5).
        protocol: transport protocol; the paper evaluates with Simple
            (highest sustained bandwidth).
        watchdog_window_us: progress-watchdog check interval.  A run with
            no byte progress and no TB phase transition across a full
            window — and nothing scheduled that could produce either —
            is declared stalled.  Set to 0 to disable the watchdog and
            fall back to the drained-queue deadlock check only.
        fault_trace_cap: ring-buffer bound on the unconditionally
            recorded fault/detection/recovery trace events.  Long chaos
            runs evict oldest-first past the cap (surfaced as
            ``SimReport.trace_dropped``); 0 means unbounded.
        rate_rel_epsilon: relative rate-change threshold below which a
            re-rated flow keeps its old rate (suppressing the completion
            event repost).  The default 0.0 keeps only the absolute
            1e-12 floor and is bit-exact; non-zero values are an opt-in
            approximation for very large fabrics (the ``fast`` fidelity
            preset sets 1e-3).
        collapse_microbatches: *fast-fidelity* temporal aggregation —
            collapse each task's micro-batch run into one representative
            instance carrying the whole payload, then fan the report
            back out.  Approximate (see ``docs/performance.md``) and
            automatically disabled under fault injection, recovery
            policies, or background traffic.
    """

    gamma: float = 0.03
    fifo_depth: int = 2
    interp_cost_us: float = 10.0
    kernel_load_us: float = 5.0
    protocol: Protocol = Protocol.SIMPLE
    watchdog_window_us: float = 2000.0
    fault_trace_cap: int = 4096
    rate_rel_epsilon: float = 0.0
    collapse_microbatches: bool = False

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not isinstance(self.fifo_depth, int) or self.fifo_depth < 1:
            raise ValueError(
                f"fifo_depth must be a positive integer, got {self.fifo_depth!r}"
            )
        for name in ("interp_cost_us", "kernel_load_us", "watchdog_window_us",
                     "rate_rel_epsilon"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.fault_trace_cap < 0:
            raise ValueError(
                f"fault_trace_cap must be non-negative, got {self.fault_trace_cap}"
            )

    def with_fidelity(self, preset: str) -> "SimConfig":
        """Return a copy configured for a named fidelity preset.

        * ``exact`` — the bit-identical golden reference: no approximate
          re-rating, no temporal micro-batch collapse.
        * ``fast`` — the documented approximate mode for very large
          fabrics: ``rate_rel_epsilon=1e-3`` suppresses completion-event
          reposts for sub-0.1% rate changes and
          ``collapse_microbatches`` folds each task's micro-batch run
          into one representative transfer.  The 15% completion-time
          bound is asserted only on mesh-allreduce, at 2x4 / 32 MB
          (``tests/test_sim_fidelity.py``) and 2x8 / 64 MB
          (``benchmarks/test_sim_scale.py``).  Off that cell the bound
          does not hold: collapse is +76% off exact on hm-allreduce at
          2x8.
        """
        if preset == "exact":
            return replace(
                self, rate_rel_epsilon=0.0, collapse_microbatches=False
            )
        if preset == "fast":
            return replace(
                self, rate_rel_epsilon=1e-3, collapse_microbatches=True
            )
        raise ValueError(
            f"unknown fidelity preset {preset!r} (expected 'exact' or 'fast')"
        )


@dataclass
class ExecutionPlan:
    """Everything the simulator needs to execute one collective call.

    ``chunks_per_microbatch`` is the size of the plan's chunk-id space —
    normally the program's chunk count, but backends that slice data
    across parallel channel instances (NCCL) extend it to
    ``nchannels * nchunks``.

    ``cache_key`` is the plan's provenance: a content hash of every input
    the building backend read, stamped by that backend.  Two plans with
    the same key execute identically, so :func:`~repro.runtime.simulate`
    runs each keyed plan once per process (the report tier of
    :mod:`repro.core.plancache`).  The key is not an ``__init__``
    argument: plans made by hand or by :func:`dataclasses.replace`
    (``with_fidelity("fast")`` included) carry ``""`` and are simulated
    on every call.  A keyed plan must not be altered in place.
    """

    name: str
    cluster: Cluster
    program: AlgoProgram
    dag: DependencyDAG
    n_microbatches: int
    chunk_bytes: float
    tb_programs: List[TBProgram]
    mode: ExecMode = ExecMode.KERNEL
    config: SimConfig = field(default_factory=SimConfig)
    chunks_per_microbatch: int = 0
    cache_key: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.chunks_per_microbatch <= 0:
            self.chunks_per_microbatch = self.program.nchunks

    def with_fidelity(self, preset: str) -> "ExecutionPlan":
        """This plan under a :meth:`SimConfig.with_fidelity` preset;
        ``exact`` keeps the plan as planned."""
        if preset == "exact":
            return self
        return replace(self, config=self.config.with_fidelity(preset))

    @property
    def total_bytes(self) -> float:
        """Per-rank buffer size this plan synchronizes."""
        return self.n_microbatches * self.chunks_per_microbatch * self.chunk_bytes

    @property
    def total_invocations(self) -> int:
        return sum(len(tb) for tb in self.tb_programs)

    def max_tbs_per_rank(self) -> int:
        """Peak TB footprint on any one GPU (the SM-overhead metric)."""
        per_rank: Dict[int, int] = {}
        for tb in self.tb_programs:
            per_rank[tb.rank] = per_rank.get(tb.rank, 0) + 1
        return max(per_rank.values(), default=0)

    def validate(self) -> None:
        """Check plan completeness and side placement.

        Every (task, micro-batch) must have exactly one SEND invocation on
        the task's source rank and one RECV invocation on its destination
        rank.

        Plans whose thread-block programs interleave micro-batches as
        uniform consecutive runs — the shape the kernel generator emits —
        are validated one representative run at a time
        (:meth:`_validate_microbatch_runs`), dropping the per-instance
        bookkeeping from the hot path at large scale.  Any plan that does
        not match the pattern (including every invalid plan) falls back
        to the exhaustive per-instance scan below, so the accepted set
        and the raised diagnostics are unchanged.
        """
        if self._validate_microbatch_runs():
            return
        expected = len(self.dag) * self.n_microbatches
        seen: Dict[Tuple[int, int, Side], int] = {}
        for tb in self.tb_programs:
            for inv in tb.invocations:
                key = (inv.task_id, inv.mb, inv.side)
                if key in seen:
                    raise ValueError(
                        f"plan {self.name!r}: duplicate invocation {key}"
                    )
                seen[key] = tb.rank
                task = self.dag.task(inv.task_id)
                owner = task.src if inv.side is Side.SEND else task.dst
                if tb.rank != owner:
                    raise ValueError(
                        f"plan {self.name!r}: {inv.side.value} of task "
                        f"{inv.task_id} placed on rank {tb.rank}, expected "
                        f"rank {owner}"
                    )
                if not 0 <= inv.mb < self.n_microbatches:
                    raise ValueError(
                        f"plan {self.name!r}: micro-batch {inv.mb} out of "
                        f"range [0, {self.n_microbatches})"
                    )
        sends = sum(1 for key in seen if key[2] is Side.SEND)
        recvs = sum(1 for key in seen if key[2] is Side.RECV)
        if sends != expected or recvs != expected:
            raise ValueError(
                f"plan {self.name!r}: expected {expected} send and recv "
                f"invocations, found {sends} sends / {recvs} recvs"
            )

    def _validate_microbatch_runs(self) -> bool:
        """Run-at-a-time validation; ``True`` iff the plan is provably valid.

        Succeeds only when every TB program is a sequence of full
        micro-batch runs ``(task, side, 0..M-1)``; each run is then
        checked once (uniqueness, placement) instead of per instance.
        Returns ``False`` — never raises — on any pattern mismatch or
        violation, deferring to the exhaustive scan for canonical
        errors.
        """
        n_mb = self.n_microbatches
        expected_mbs = list(range(n_mb))
        seen: Dict[Tuple[int, Side], None] = {}
        for tb in self.tb_programs:
            invs = tb.invocations
            if len(invs) % n_mb:
                return False
            for i in range(0, len(invs), n_mb):
                first = invs[i]
                if first.mb != 0:
                    return False
                run = invs[i : i + n_mb]
                if n_mb > 1:
                    task_id, side = first.task_id, first.side
                    if [inv.mb for inv in run] != expected_mbs:
                        return False
                    for inv in run[1:]:
                        if inv.task_id != task_id or inv.side is not side:
                            return False
                key = (first.task_id, first.side)
                if key in seen:
                    return False
                seen[key] = None
                task = self.dag.task(first.task_id)
                owner = task.src if first.side is Side.SEND else task.dst
                if tb.rank != owner:
                    return False
        sends = sum(1 for key in seen if key[1] is Side.SEND)
        return sends == len(self.dag) and len(seen) == 2 * len(self.dag)


def plan_microbatches(
    buffer_bytes: float,
    nchunks: int,
    target_chunk_bytes: float = MB,
    max_microbatches: int = 64,
) -> Tuple[int, float]:
    """Split a buffer into micro-batches of ``nchunks`` chunks each.

    The paper fixes the transfer chunk at 1 MB (Table 2); one micro-batch
    moves ``nchunks`` chunks, so a buffer of ``B`` bytes yields roughly
    ``B / (nchunks * 1MB)`` micro-batches.  The count is clamped to
    ``max_microbatches`` (scaling the chunk up instead, as real backends
    do for very large buffers) and to a minimum of one (scaling the chunk
    down for small buffers).

    Returns ``(n_microbatches, chunk_bytes)``.
    """
    if buffer_bytes <= 0:
        raise ValueError(f"buffer must be positive, got {buffer_bytes}")
    if nchunks < 1:
        raise ValueError(f"need at least one chunk, got {nchunks}")
    raw = buffer_bytes / (nchunks * target_chunk_bytes)
    n_mb = max(1, min(max_microbatches, int(round(raw))))
    chunk_bytes = buffer_bytes / (nchunks * n_mb)
    return n_mb, chunk_bytes


__all__ = [
    "MB",
    "Side",
    "ExecMode",
    "Protocol",
    "Invocation",
    "TBProgram",
    "SimConfig",
    "ExecutionPlan",
    "plan_microbatches",
]
