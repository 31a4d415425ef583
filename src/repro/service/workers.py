"""Supervised multiprocessing worker pool for the service daemon.

Compiles and simulations run in worker *processes* so a crash, a hang,
or a SIGKILL never takes the daemon down — the supervisor notices and
repairs.  The design mirrors the runtime's fault stack: heartbeat-based
stall detection (the watchdog idiom of :mod:`repro.faults.watchdog`,
transplanted from simulated time to wall clock) and retry with the
shared geometric backoff curve
(:func:`repro.faults.recovery.backoff_delay`).

Responsibilities, by thread:

* **Callers** (the daemon's event loop) call :meth:`WorkerPool.submit`,
  which applies the admission bound (a full queue raises
  :class:`PoolSaturated` -> HTTP 429) and returns a
  :class:`concurrent.futures.Future`.
* **The supervisor thread** owns everything else: dispatching queued
  jobs to idle workers, collecting replies, enforcing per-job
  **deadlines** (a worker still computing past its job's deadline is
  SIGKILLed — the request is cancelled, not computed), detecting
  **crashes** (process death) and **hangs** (stale heartbeat), and
  respawning workers.  A job that loses its worker is retried once
  after a backoff delay; a second loss fails it with
  :class:`WorkerCrashed`.
* **Worker processes** loop over a duplex pipe: receive a job payload,
  run :func:`repro.service.protocol.execute` under one process-lifetime
  metrics registry, and reply with the result plus a *cumulative*
  registry snapshot (the daemon folds those into its live ``/metrics``
  registry under a per-worker watermark, so lost replies leave no
  metrics hole and a respawn is detected as a counter reset).  A job
  message carrying a trace context additionally gets back the worker's
  span tree and clock anchors for request-trace stitching.  Each worker
  arms its own in-process plan-cache LRU; the optional ``cache_dir``
  disk tier is the shared L2 that lets one worker's cold compile warm
  every other worker.

A deliberate limitation, shared with every heartbeat scheme: the
heartbeat runs on a side thread, so a pure-Python busy loop in a job
keeps beating and is only caught by its *deadline*, while a frozen or
killed process is caught by the heartbeat/liveness check.  Between the
two checks every wedged state is covered as long as jobs carry
deadlines — which admission control guarantees.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Deque, Dict, List, Optional

from ..faults.recovery import backoff_delay
from ..obs.context import bound_context, context_from_wire
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, install_registry
from ..obs.spans import tracing
from .protocol import RequestError, execute

#: Worker-side heartbeat publish period (seconds).
HEARTBEAT_INTERVAL_S = 0.05

#: Supervisor poll tick (seconds); replies wake it immediately.
SUPERVISOR_TICK_S = 0.02


class PoolSaturated(RuntimeError):
    """Admission control rejected the job (queue full -> HTTP 429)."""

    def __init__(self, depth: int, retry_after_s: float) -> None:
        super().__init__(
            f"request queue full ({depth} waiting); retry in "
            f"~{retry_after_s:.1f}s"
        )
        self.depth = depth
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """The job's deadline budget expired (queued or mid-compute)."""


class WorkerCrashed(RuntimeError):
    """The job's worker died and the retry budget is exhausted."""


class JobFailed(RuntimeError):
    """The job raised inside the worker; carries the worker traceback."""

    def __init__(self, worker_traceback: str) -> None:
        super().__init__(f"job failed in worker:\n{worker_traceback}")
        self.worker_traceback = worker_traceback


@dataclass
class PoolStats:
    """Supervision counters (mutated by the supervisor thread only)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    restarts: int = 0
    crash_kills: int = 0
    hang_kills: int = 0
    deadline_kills: int = 0
    deadline_expired: int = 0
    admission_rejects: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Job:
    job_id: int
    payload: dict
    deadline: Optional[float]  # absolute time.time() seconds
    future: Future
    trace: Optional[dict] = None  # TraceContext.to_wire() of the leader
    attempts: int = 0
    not_before: float = 0.0
    submitted_at: float = field(default_factory=time.time)


class _Worker:
    __slots__ = ("index", "proc", "conn", "heartbeat", "job", "job_started")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        self.heartbeat = None
        self.job: Optional[_Job] = None
        self.job_started = 0.0


def _worker_main(
    conn, heartbeat, cache_dir, lru_capacity, index=0, tuning_table=None
) -> None:
    """Worker process entry: jobs in, results + metrics out.

    The worker dies with its daemon.  Pipe EOF alone does not ensure
    that: a worker forked later inherits the daemon's end of this
    worker's pipe.  So the heartbeat thread exits the process once the
    parent recorded at start is gone (``os.getppid()`` changes when the
    worker is re-parented).  Under the ``forkserver`` start method that
    parent is the fork server, which exits with the daemon too.
    """
    parent = os.getppid()
    from ..core import plancache

    if cache_dir:
        plancache.configure(cache_dir=cache_dir, capacity=lru_capacity)
    if tuning_table:
        from ..tuning.table import configure_tuning

        configure_tuning(tuning_table)

    def _beat() -> None:
        while os.getppid() == parent:
            heartbeat.value = time.time()
            time.sleep(HEARTBEAT_INTERVAL_S)
        os._exit(0)  # orphaned: no daemon is left to reply to

    threading.Thread(target=_beat, daemon=True, name="heartbeat").start()

    # One *cumulative* registry for the worker's lifetime: every reply
    # carries a full snapshot and the daemon merges it under a
    # per-worker source watermark (MetricsRegistry.merge_json), so a
    # reply lost to a kill is not a metrics hole — the increments ride
    # the next snapshot — and a respawn shows up as a counter reset.
    registry = MetricsRegistry()
    install_registry(registry)
    logger = get_logger("worker")

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        job_id = msg["job_id"]
        deadline = msg.get("deadline")
        context = context_from_wire(msg.get("trace"))
        if deadline is not None and time.time() >= deadline:
            # Cancelled, not computed: the budget is already spent.
            reply = {"job_id": job_id, "status": "expired", "metrics": None,
                     "worker": index}
        else:
            reply = {"job_id": job_id, "status": "ok", "metrics": None,
                     "worker": index}
            tracer = None
            with bound_context(context):
                logger.info("job-start", job_id=job_id, worker=index)
                reply["started_wall"] = time.time()
                try:
                    if context is not None and context.sampled:
                        with tracing() as tracer:
                            reply["result"] = execute(msg["payload"])
                    else:
                        reply["result"] = execute(msg["payload"])
                    reply["ended_wall"] = time.time()
                    reply["metrics"] = registry.to_json()
                    if tracer is not None:
                        reply["trace"] = {
                            "spans": tracer.to_dict(),
                            "epoch_wall": tracer.epoch_wall,
                        }
                    logger.info("job-finished", job_id=job_id, worker=index)
                except RequestError as exc:
                    logger.warning("job-rejected", job_id=job_id,
                                   worker=index, error=str(exc))
                    reply = {
                        "job_id": job_id, "status": "bad_request",
                        "error": str(exc), "metrics": None, "worker": index,
                    }
                except BaseException:  # noqa: BLE001 - must cross the pipe
                    logger.error("job-failed", job_id=job_id, worker=index)
                    reply = {
                        "job_id": job_id, "status": "error",
                        "error": traceback.format_exc(), "metrics": None,
                        "worker": index,
                    }
        try:
            conn.send(reply)
        except OSError:
            break  # supervisor is gone
        except Exception:
            # Reply failed to pickle (PicklingError, AttributeError,
            # ValueError, ... — cannot happen for JSON-safe results, but
            # never leave the supervisor waiting): degrade to text
            # instead of letting the worker die and churn a respawn.
            try:
                conn.send({
                    "job_id": job_id, "status": "error",
                    "error": "worker reply was unserializable",
                    "metrics": None,
                })
            except OSError:
                break


class WorkerPool:
    """Supervised pool of compile/simulate workers.

    Args:
        workers: worker-process count.
        max_queue: admission bound on *waiting* jobs (not in-flight).
        cache_dir: shared L2 plan-cache directory handed to every worker.
        hang_timeout_s: heartbeat staleness that declares a worker hung.
        retry_backoff_s: base of the shared geometric backoff curve used
            to space the single crash retry.
        max_retries: worker-death retries per job (1 = retry once).
        deadline_grace_s: slack past a job's deadline before its worker
            is killed (gives the in-worker expiry check first shot).
        lru_capacity: per-worker in-process plan-cache LRU bound.
        tuning_table: tuning-table file every worker installs at boot
            (:func:`repro.tuning.configure_tuning`), so tuned cells are
            served without each worker re-reading CLI flags.
    """

    def __init__(
        self,
        workers: int = 2,
        max_queue: int = 32,
        cache_dir: Optional[str] = None,
        hang_timeout_s: float = 10.0,
        retry_backoff_s: float = 0.05,
        max_retries: int = 1,
        deadline_grace_s: float = 0.2,
        lru_capacity: Optional[int] = None,
        tuning_table: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.size = workers
        self.max_queue = max_queue
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.hang_timeout_s = hang_timeout_s
        self.retry_backoff_s = retry_backoff_s
        self.max_retries = max_retries
        self.deadline_grace_s = deadline_grace_s
        self.lru_capacity = lru_capacity
        self.tuning_table = str(tuning_table) if tuning_table else None
        self.stats = PoolStats()
        self._ctx = multiprocessing.get_context()
        self._queue: Deque[_Job] = deque()
        self._active: Dict[Future, _Job] = {}  # future -> live job
        self._lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._workers: List[_Worker] = []
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._workers = [_Worker(i) for i in range(self.size)]
        for worker in self._workers:
            self._spawn(worker)
        self._running = True
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True, name="pool-supervisor"
        )
        self._supervisor.start()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._stop.set()
        self._wake()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for worker in self._workers:
            if worker.proc is None:
                continue
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
            worker.proc.join(timeout=0.5)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            self._fail_job(
                worker.job, RuntimeError("worker pool stopped"), count=False
            )
            worker.job = None
        with self._lock:
            pending, self._queue = list(self._queue), deque()
        for job in pending:
            self._fail_job(job, RuntimeError("worker pool stopped"), count=False)

    # ------------------------------------------------------------------
    # Submission (called from the daemon thread)
    # ------------------------------------------------------------------

    def submit(
        self,
        payload: dict,
        deadline: Optional[float] = None,
        retry_after_s: float = 1.0,
        trace: Optional[dict] = None,
    ) -> Future:
        """Admit one job; returns its future or raises :class:`PoolSaturated`.

        ``deadline`` is an absolute ``time.time()`` instant shared with
        the workers (one wall clock across processes).  ``trace`` is an
        optional :meth:`~repro.obs.context.TraceContext.to_wire` dict
        that rides the job message so the worker correlates its logs and
        (when sampled) ships its span tree back in the reply.
        """
        if not self._running:
            raise RuntimeError("worker pool is not running")
        future: Future = Future()
        job = _Job(
            job_id=next(self._job_ids),
            payload=payload,
            deadline=deadline,
            future=future,
            trace=trace,
        )
        with self._lock:
            if len(self._queue) >= self.max_queue:
                self.stats.admission_rejects += 1
                raise PoolSaturated(len(self._queue), retry_after_s)
            self.stats.submitted += 1
            self._queue.append(job)
            self._active[future] = job
        self._wake()
        return future

    def extend_deadline(self, future: Future, deadline: float) -> None:
        """Stretch a live job's deadline (extensions only, never cuts).

        Used by request coalescing: a waiter that attaches to an
        in-flight job with a *later* deadline than the leader's must
        not see the shared job killed at the leader's earlier budget.
        Queued jobs pick the new deadline up at dispatch; a job already
        on a worker keeps computing because the supervisor's
        deadline-kill check re-reads ``job.deadline`` every tick.
        """
        with self._lock:
            job = self._active.get(future)
            if job is not None and (
                job.deadline is not None and deadline > job.deadline
            ):
                job.deadline = deadline

    def drain(self, timeout_s: float) -> bool:
        """Wait for the queue and every in-flight job to finish.

        Submission is the caller's problem — the daemon stops admitting
        before draining — so this only has to outwait work that is
        already inside the pool.  Returns ``True`` when the pool went
        idle within the budget, ``False`` on timeout (the caller then
        stops anyway; queued jobs fail with "worker pool stopped").
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        while time.monotonic() < deadline:
            if self.queue_depth() == 0 and self.inflight() == 0:
                return True
            time.sleep(0.01)
        return self.queue_depth() == 0 and self.inflight() == 0

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def inflight(self) -> int:
        return sum(1 for w in self._workers if w.job is not None)

    def alive_workers(self) -> int:
        return sum(
            1 for w in self._workers
            if w.proc is not None and w.proc.is_alive()
        )

    def worker_pids(self) -> List[int]:
        return [w.proc.pid for w in self._workers if w.proc is not None]

    def busy_pids(self) -> List[int]:
        """PIDs currently executing a job (chaos tests SIGKILL these)."""
        return [
            w.proc.pid for w in self._workers
            if w.proc is not None and w.job is not None and w.proc.is_alive()
        ]

    # ------------------------------------------------------------------
    # Supervision (supervisor thread only)
    # ------------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", time.time())
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, heartbeat, self.cache_dir, self.lru_capacity,
                  worker.index, self.tuning_table),
            daemon=True,
            name=f"resccl-worker-{worker.index}",
        )
        proc.start()
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        worker.heartbeat = heartbeat
        worker.job = None
        worker.job_started = 0.0

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass

    def _supervise(self) -> None:
        while not self._stop.is_set():
            busy = [
                w for w in self._workers
                if w.job is not None and w.proc is not None
            ]
            conns = [w.conn for w in busy] + [self._wake_r]
            try:
                ready = _conn_wait(conns, timeout=SUPERVISOR_TICK_S)
            except OSError:
                ready = []
            while self._wake_r.poll(0):
                try:
                    self._wake_r.recv_bytes()
                except (EOFError, OSError):
                    break
            for worker in busy:
                if worker.conn in ready:
                    self._collect(worker)
            now = time.time()
            for worker in self._workers:
                self._check_worker(worker, now)
            self._dispatch(now)

    def _collect(self, worker: _Worker) -> None:
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(worker, reason="pipe closed")
            return
        job = worker.job
        worker.job = None
        if job is None or msg.get("job_id") != job.job_id:
            return  # reply from a job superseded by a kill; drop it
        status = msg.get("status")
        if status == "ok":
            self.stats.completed += 1
            self._resolve(
                job,
                {
                    "result": msg["result"],
                    "metrics": msg.get("metrics"),
                    "worker": msg.get("worker"),
                    "started_wall": msg.get("started_wall"),
                    "ended_wall": msg.get("ended_wall"),
                    "trace": msg.get("trace"),
                },
            )
        elif status == "bad_request":
            self._fail_job(job, RequestError(msg.get("error", "bad request")))
        elif status == "expired":
            self.stats.deadline_expired += 1
            self._fail_job(
                job,
                DeadlineExceeded(
                    "deadline expired before the worker started the job"
                ),
            )
        else:
            self._fail_job(job, JobFailed(msg.get("error", "unknown error")))

    def _check_worker(self, worker: _Worker, now: float) -> None:
        if worker.proc is None:
            return
        if not worker.proc.is_alive():
            self.stats.crash_kills += 1
            self._on_worker_death(worker, reason="process died")
            return
        job = worker.job
        if job is None:
            return
        if (
            job.deadline is not None
            and now > job.deadline + self.deadline_grace_s
        ):
            # Cancel-by-kill: the worker is mid-compute past the budget.
            self.stats.deadline_kills += 1
            self.stats.deadline_expired += 1
            worker.job = None
            self._kill_and_respawn(worker)
            self._fail_job(
                job, DeadlineExceeded("deadline expired mid-computation")
            )
            return
        if (
            now - worker.heartbeat.value > self.hang_timeout_s
            and now - worker.job_started > self.hang_timeout_s
        ):
            self.stats.hang_kills += 1
            self._on_worker_death(worker, reason="heartbeat stale")

    def _on_worker_death(self, worker: _Worker, reason: str) -> None:
        job = worker.job
        worker.job = None
        self._kill_and_respawn(worker)
        if job is not None:
            self._retry_or_fail(job, reason)

    def _kill_and_respawn(self, worker: _Worker) -> None:
        self.stats.restarts += 1
        if worker.proc is not None and worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=1.0)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        self._spawn(worker)

    def _retry_or_fail(self, job: _Job, reason: str) -> None:
        job.attempts += 1
        now = time.time()
        if job.attempts > self.max_retries or (
            job.deadline is not None and now >= job.deadline
        ):
            self._fail_job(
                job,
                WorkerCrashed(
                    f"worker died ({reason}); retry budget "
                    f"({self.max_retries}) exhausted after "
                    f"{job.attempts} attempt(s)"
                ),
            )
            return
        # Reuse the fault stack's backoff curve for the respawn retry.
        job.not_before = now + backoff_delay(
            self.retry_backoff_s, 2.0, job.attempts - 1
        )
        self.stats.retries += 1
        with self._lock:
            self._queue.appendleft(job)

    def _dispatch(self, now: float) -> None:
        for worker in self._workers:
            if (
                worker.job is not None
                or worker.proc is None
                or not worker.proc.is_alive()
            ):
                continue
            while True:
                job = self._pop_dispatchable(now)
                if job is None:
                    return
                if job.future.cancelled():
                    with self._lock:
                        self._active.pop(job.future, None)
                    continue
                if job.deadline is not None and now >= job.deadline:
                    self.stats.deadline_expired += 1
                    self._fail_job(
                        job, DeadlineExceeded("deadline expired in queue")
                    )
                    continue
                try:
                    worker.conn.send({
                        "job_id": job.job_id,
                        "payload": job.payload,
                        "deadline": job.deadline,
                        "trace": job.trace,
                    })
                except (OSError, ValueError):
                    # Worker vanished between checks: requeue the job
                    # without charging its retry budget and repair.
                    with self._lock:
                        self._queue.appendleft(job)
                    self._on_worker_death(worker, reason="dispatch failed")
                    break
                worker.job = job
                worker.job_started = now
                break

    def _pop_dispatchable(self, now: float) -> Optional[_Job]:
        with self._lock:
            for index, job in enumerate(self._queue):
                if job.not_before <= now:
                    del self._queue[index]
                    return job
        return None

    # ------------------------------------------------------------------

    def _resolve(self, job: _Job, value: dict) -> None:
        with self._lock:
            self._active.pop(job.future, None)
        try:
            if not job.future.done():
                job.future.set_result(value)
        except InvalidStateError:
            pass

    def _fail_job(
        self, job: Optional[_Job], exc: BaseException, count: bool = True
    ) -> None:
        if job is None:
            return
        with self._lock:
            self._active.pop(job.future, None)
        if count:
            self.stats.failed += 1
        try:
            if not job.future.done():
                job.future.set_exception(exc)
        except InvalidStateError:
            pass


__all__ = [
    "DeadlineExceeded",
    "HEARTBEAT_INTERVAL_S",
    "JobFailed",
    "PoolSaturated",
    "PoolStats",
    "WorkerCrashed",
    "WorkerPool",
]
