"""The resilient compile/simulate service daemon.

A long-lived asyncio HTTP/JSON front-end (stdlib only — the HTTP/1.1
layer is hand-rolled over ``asyncio.start_server``) over the supervised
:class:`~repro.service.workers.WorkerPool`.  Endpoints::

    POST /v1/compile    compile an algorithm           (JSON body)
    POST /v1/simulate   plan + simulate one call       (JSON body)
    POST /v1/profile    simulate + runtime counters    (JSON body)
    GET  /healthz       liveness  (200 while the daemon can make progress)
    GET  /readyz        readiness (200 while new work can be admitted)
    GET  /metrics       live Prometheus text exposition (repro.obs)
    GET  /debug/requests     index of flight-recorder-retained traces
    GET  /debug/traces/<id>  one stitched request trace + log tail

Every request is traced end to end (``trace_id`` from the client's
``X-Trace-Id`` header or minted here; ``ServiceConfig.trace_sample``
controls how many requests get a full stitched span tree): admission,
queue wait, coalescing, worker compute (the worker's own span tree,
clock-aligned across the process boundary), and serialization exactly
partition the observed latency.  The bounded flight recorder keeps the
N slowest and all failed/shed traces; latency-histogram exemplars in
``/metrics`` point at retained ``trace_id``s.  See
``docs/observability.md`` ("Tracing a service request").

Robustness model, in request order:

1. **Admission control** — the worker queue is bounded; beyond it the
   request is shed with ``429`` and a ``Retry-After`` estimated from
   the recent per-job latency, so overload degrades to fast rejections
   instead of collapse.
2. **Deadline budgets** — every request carries a budget
   (``deadline_ms`` field, ``X-Deadline-Ms`` header, or the
   configured default).  The absolute deadline propagates into the
   worker: an expired job is *cancelled* (in the queue, at the worker
   boundary, or mid-compute by SIGKILL) rather than computed, and the
   client gets ``504``.
3. **Coalescing** — concurrent requests with the same
   :func:`~repro.service.protocol.request_fingerprint` (built on the
   plan-cache key) attach as waiters to one in-flight job; the disk
   plan-cache tier is the shared L2 across worker processes.
4. **Supervision** — worker crashes/hangs are repaired by the pool; an
   in-flight request is retried once under backoff before failing.
5. **Graceful degradation** — sustained primary timeouts trip the
   :class:`~repro.service.breaker.CircuitBreaker`; while it is open,
   requests are served the built-in reference ring with
   ``degraded: true`` instead of erroring.

Crash-only lifecycle (``--journal-dir`` arms all three, see
``docs/service.md`` "Operations runbook"):

* **Write-ahead journal** — every admitted request is durably appended
  (:mod:`repro.service.journal`) *before* dispatch and marked complete
  with its ``result_digest`` on reply; a restarted daemon replays the
  incomplete entries (idempotent via the plan cache) before its
  ``/readyz`` flips green, dropping only entries whose deadline already
  passed (``service_journal_{replayed,dropped_expired}_total``).
* **Graceful drain** — the first SIGTERM flips ``/readyz`` (and new
  ``/v1/*`` requests) to 503, drains open requests and the worker queue
  within ``--drain-grace-ms``, then persists the cache-prewarm manifest
  and the flight recorder's error tail; a second signal aborts the
  drain and stops immediately.
* **Hot restart with prewarm** — on boot the persisted manifest's hot
  coalescing keys are replayed as compile jobs (warming each worker
  through the shared disk cache tier) before readiness, so the first
  client wave after a restart hits a warm cache.

``GET /debug/lifecycle`` reports the state machine, the boot replay
tally, and drain status.

The daemon embeds cleanly (``ServiceDaemon.start()/stop()`` run the
event loop on a background thread — what the tests and the load
benchmark use) and runs standalone via ``resccl serve``
(:meth:`ServiceDaemon.run_forever`), which exits 0 on a clean signal
and uses the repo-wide exit code 2 for fatal startup errors such as a
failed bind.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.context import TraceContext, context_from_headers, new_trace_id
from ..obs.log import get_logger, log_ring
from ..obs.metrics import MetricsRegistry
from ..request import FIELDS, build_cluster
from ..topology import Cluster
from ..tuning.table import TuningTable, TuningTableError
from .breaker import CircuitBreaker
from .journal import (
    JournalBusy,
    JournalCorrupt,
    JournalEntry,
    RequestJournal,
)
from .lifecycle import (
    RECORDER_FILE,
    LifecycleManager,
    PrewarmManifest,
)
from .protocol import (
    OPS,
    RequestError,
    ServiceRequest,
    parse_request,
    prewarm_payload,
    request_fingerprint,
    result_digest,
)
from .recorder import LOG_TAIL_LIMIT, FlightRecorder
from .tracing import RequestTrace
from .workers import (
    DeadlineExceeded,
    JobFailed,
    PoolSaturated,
    WorkerCrashed,
    WorkerPool,
)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Counters mirrored from :class:`PoolStats` into the live registry
#: (pool field -> metric name); deltas are applied on each refresh so
#: the exported series stay monotonic.
_POOL_COUNTERS = {
    "restarts": "service_worker_restarts_total",
    "retries": "service_job_retries_total",
    "deadline_expired": "service_deadline_expired_total",
    "admission_rejects": "service_admission_rejects_total",
    "hang_kills": "service_worker_hang_kills_total",
    "deadline_kills": "service_worker_deadline_kills_total",
}


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    port: int = 8642  # 0 = ephemeral (tests)
    workers: int = 2
    queue_depth: int = 32
    default_deadline_ms: float = 30_000.0
    max_deadline_ms: float = 120_000.0
    hang_timeout_s: float = 10.0
    retry_backoff_s: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    cache_dir: Optional[str] = None
    request_max_bytes: int = 1 << 20
    keepalive_timeout_s: float = 75.0
    #: Fraction of requests whose stitched trace is built and offered to
    #: the flight recorder (1.0 = every request, 0.0 = tracing off;
    #: between the two, a deterministic every-Nth sampler).  Correlation
    #: ids and structured logs are on regardless.
    trace_sample: float = 1.0
    #: Flight-recorder retention: N slowest successes, M newest errors.
    recorder_slow: int = 32
    recorder_errors: int = 128
    #: Directory arming the crash-only lifecycle: write-ahead request
    #: journal, cache-prewarm manifest, and persisted recorder errors.
    #: ``None`` (the default) keeps the daemon fully in-memory.
    journal_dir: Optional[str] = None
    #: Budget for draining open requests + the worker queue on SIGTERM.
    drain_grace_ms: float = 10_000.0
    #: Hot coalescing keys persisted to the prewarm manifest on drain
    #: and replayed before readiness on the next boot (0 disables).
    prewarm_limit: int = 32
    #: Tuning-table file (``resccl tune`` output) served to every
    #: worker.  Requests hitting a tuned cell are answered with the
    #: table's winning plan, coalesce under the cell key, and are
    #: prewarmed at boot.  A missing table or one whose entries'
    #: topology fingerprints no longer match this build's hardware
    #: constants fails startup (exit 2) — serving stale winners
    #: silently is worse than not starting.
    tuning_table: Optional[str] = None


class _Inflight:
    """One in-flight job plus bookkeeping for its coalesced waiters."""

    __slots__ = (
        "key", "future", "pool_future", "primary", "op", "started",
        "deadline", "waiters", "trace_id",
    )

    def __init__(self, key, future, pool_future, primary, op, started,
                 deadline, trace_id=None):
        self.key = key
        self.future = future
        self.pool_future = pool_future
        self.primary = primary
        self.op = op
        self.started = started
        self.deadline = deadline  # the job's effective wall deadline
        self.waiters = 1
        self.trace_id = trace_id  # leader's trace id (waiters reference it)


class ServiceDaemon:
    """The compile/simulate service (embed with start/stop, or serve)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = MetricsRegistry()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.pool = WorkerPool(
            workers=self.config.workers,
            max_queue=self.config.queue_depth,
            cache_dir=self.config.cache_dir,
            hang_timeout_s=self.config.hang_timeout_s,
            retry_backoff_s=self.config.retry_backoff_s,
            tuning_table=self.config.tuning_table,
        )
        self.tuning: Optional[TuningTable] = None
        self.recorder = FlightRecorder(
            slow_capacity=self.config.recorder_slow,
            error_capacity=self.config.recorder_errors,
        )
        self.lifecycle = LifecycleManager(
            prewarm_limit=self.config.prewarm_limit
        )
        self.journal: Optional[RequestJournal] = None
        self.port: Optional[int] = None
        self._log = get_logger("daemon")
        self._trace_seq = 0
        self._open_requests = 0  # /v1/* dispatch+respond, loop thread only
        self._drain_abort = threading.Event()
        self._boot_task: Optional[asyncio.Task] = None
        self._inflight: Dict[str, _Inflight] = {}
        self._clusters: Dict[Tuple[int, int, str], Cluster] = {}
        self._pool_counter_base = {name: 0 for name in _POOL_COUNTERS}
        self._lifecycle_counter_base: Dict[str, int] = {}
        self._breaker_trips_seen = 0
        self._ewma_latency_s = 0.5
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._accepting = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, wait_ready: bool = True) -> "ServiceDaemon":
        """Boot the pool + server on a background thread.

        With ``wait_ready`` (the default) this blocks through journal
        replay and cache prewarm until ``/readyz`` is green; pass
        ``False`` to return as soon as the socket is listening — the
        daemon then answers health probes (and 503s new work) while it
        finishes booting, which is what an external load balancer sees.
        """
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self._thread = threading.Thread(
            target=self._thread_main, daemon=True, name="resccl-serve"
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._start_error is None and not self._ready.is_set():
            self._start_error = RuntimeError(
                "daemon failed to become ready in 30s"
            )
        if self._start_error is None and wait_ready:
            # Journal replay + prewarm are bounded by their entries'
            # own deadlines, but leave generous headroom for cold
            # compiles on a loaded host.
            if not self.lifecycle.ready_event.wait(timeout=300.0):
                self._start_error = RuntimeError(
                    "daemon failed to finish boot replay in 300s"
                )
        if self._start_error is not None:
            error = self._start_error
            self.stop()
            raise error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_async is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.lifecycle.mark_stopped()
        if self.journal is not None:
            self.journal.close()

    def drain(self, grace_ms: Optional[float] = None) -> bool:
        """Stop admitting, wait out in-flight work, persist warm state.

        Flips the lifecycle to DRAINING (``/readyz`` -> 503, new
        ``/v1/*`` requests -> 503 with ``Retry-After``), then waits up
        to ``grace_ms`` (default ``config.drain_grace_ms``) for every
        open request and queued/in-flight job to finish.  Whatever the
        outcome, the prewarm manifest and the flight recorder's error
        tail are persisted to the journal dir (when one is configured).
        Returns ``True`` for a clean drain — zero requests abandoned.
        Thread-safe; callable from a signal-handling thread.
        """
        budget_ms = (
            self.config.drain_grace_ms if grace_ms is None else grace_ms
        )
        if not self.lifecycle.begin_drain():
            return self.lifecycle.drain_clean or False
        self._log.info("drain-started", grace_ms=budget_ms)
        deadline = time.monotonic() + max(0.0, budget_ms) / 1e3
        clean = False
        while time.monotonic() < deadline:
            if self._drain_abort.is_set():
                self._log.warning("drain-aborted")
                break
            if (
                self._open_requests == 0
                and self.pool.queue_depth() == 0
                and self.pool.inflight() == 0
            ):
                clean = True
                break
            time.sleep(0.02)
        self.lifecycle.drain_clean = clean
        self._persist_warm_state()
        self._log.info(
            "drain-finished", clean=clean,
            abandoned_open=self._open_requests,
            abandoned_queued=self.pool.queue_depth(),
        )
        return clean

    def _persist_warm_state(self) -> None:
        """Write the prewarm manifest + recorder error tail for the
        next boot.  Best-effort: persistence failures degrade the next
        restart to cold, they never fail the drain."""
        if self.journal is None:
            return
        try:
            self.lifecycle.manifest.save(self.journal.dir)
        except OSError as exc:
            self._log.error("prewarm-save-failed", error=str(exc))
        try:
            path = Path(self.journal.dir) / RECORDER_FILE
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(
                json.dumps(self.recorder.export_errors()), encoding="utf-8"
            )
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as exc:
            self._log.error("recorder-save-failed", error=str(exc))

    def run_forever(self) -> int:
        """Blocking serve for the CLI; returns a process exit code.

        Standalone serving emits structured JSON log lines on stderr
        (:mod:`repro.obs.log`) — one parseable stream for operators —
        while embedded daemons (tests, benchmarks) stay silent apart
        from the in-memory ring.
        """
        import signal
        import sys

        from ..obs import log as obs_log

        obs_log.configure(stream=sys.stderr)
        try:
            # Don't gate the listener on boot replay: health probes and
            # 503s must flow while the journal replays and the cache
            # prewarms, exactly as a load balancer expects.
            self.start(wait_ready=False)
        except (OSError, JournalBusy, JournalCorrupt, TuningTableError) as exc:
            self._log.error("startup-failed", error=str(exc))
            print(f"fatal: cannot start service: {exc}", file=sys.stderr)
            return 2
        stop = threading.Event()
        signals_seen = [0]

        def _on_signal(*_args) -> None:
            signals_seen[0] += 1
            if signals_seen[0] == 1:
                stop.set()
            else:
                # Second signal: the operator wants out *now* — abort
                # the drain wait and shut down immediately.
                self._drain_abort.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _on_signal)
        self._log.info(
            "listening",
            url=f"http://{self.config.host}:{self.port}",
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            trace_sample=self.config.trace_sample,
            journal_dir=self.config.journal_dir,
        )
        stop.wait()
        self._log.info("shutting-down")
        self.drain()
        self.stop()
        return 0

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._start_error = exc
            self._ready.set()
        finally:
            self.pool.stop()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        recovered: List[JournalEntry] = []
        if self.config.journal_dir:
            try:
                # Take the journal dir's exclusive lock and compact it
                # *before* serving: a second daemon on the same dir is a
                # deployment error and must fail fast (exit 2), not
                # interleave appends with the incumbent.
                self.journal = RequestJournal(self.config.journal_dir)
                recovered = self.journal.recover()
            except (JournalBusy, JournalCorrupt) as exc:
                self._start_error = exc
                self._ready.set()
                self.lifecycle.ready_event.set()
                return
            self._restore_recorder()
        if self.config.tuning_table:
            try:
                self.tuning = self._load_tuning_table()
            except TuningTableError as exc:
                self._start_error = exc
                self._ready.set()
                self.lifecycle.ready_event.set()
                return
        self.pool.start()
        try:
            server = await asyncio.start_server(
                self._serve_client, self.config.host, self.config.port
            )
        except OSError as exc:
            self._start_error = exc
            self._ready.set()
            self.lifecycle.ready_event.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._accepting = True
        self._ready.set()
        # Replay + prewarm run behind the live socket: health probes
        # answer (and new work 503s) while the boot finishes, then
        # readiness flips green.
        self._boot_task = asyncio.ensure_future(self._boot_replay(recovered))
        try:
            async with server:
                await self._stop_async.wait()
        finally:
            self._accepting = False
            if self._boot_task is not None and not self._boot_task.done():
                self._boot_task.cancel()

    def _load_tuning_table(self) -> TuningTable:
        """Load + validate ``--tuning-table`` before serving a byte.

        A table whose entries were tuned under different hardware
        constants (their embedded cluster shape no longer reproduces
        their recorded topology fingerprint) would silently hand out
        stale winners on every request — that is a deployment error, so
        startup fails (exit 2) with a structured log naming the cells.
        """
        path = Path(self.config.tuning_table)
        if not path.is_file():
            self._log.error("tuning-table-missing", path=str(path))
            raise TuningTableError(f"tuning table not found: {path}")
        table = TuningTable.load(path)
        if table.stats.corrupt:
            # The damaged file was quarantined to <path>.corrupt; serve
            # with the (empty) table rather than flap the deployment.
            self._log.warning("tuning-table-quarantined", path=str(path))
        mismatched = table.mismatched_entries()
        if mismatched:
            self._log.error(
                "tuning-table-mismatch",
                path=str(path),
                mismatched=len(mismatched),
                total=len(table),
                cells=[
                    f"{e.get('collective')}/{e.get('buffer_bytes')}B"
                    for e in mismatched[:8]
                ],
            )
            raise TuningTableError(
                f"tuning table {path} has {len(mismatched)} entr(ies) whose "
                "topology fingerprint does not match this build's hardware "
                "constants; re-run 'resccl tune' against the served cluster"
            )
        self._log.info(
            "tuning-table-loaded", path=str(path), cells=len(table),
            dropped=table.stats.dropped_entries,
        )
        return table

    def _restore_recorder(self) -> None:
        """Reload the pre-restart flight-recorder error tail (if any)."""
        path = Path(self.config.journal_dir) / RECORDER_FILE
        try:
            entries = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return
        if isinstance(entries, list):
            restored = self.recorder.restore_errors(entries)
            if restored:
                self._log.info("recorder-restored", traces=restored)

    async def _boot_replay(self, recovered: List[JournalEntry]) -> None:
        """Replay incomplete journal entries + the prewarm manifest,
        then flip the lifecycle to READY."""
        try:
            if recovered:
                await self._replay_journal(recovered)
            if self.journal is not None and self.config.prewarm_limit > 0:
                await self._replay_prewarm(
                    PrewarmManifest.load(self.journal.dir)
                )
            if self.tuning is not None and self.config.prewarm_limit > 0:
                # Every tuned cell compiles its *winning* plan before
                # readiness, so tuned serving starts warm even on a
                # first boot with no manifest.
                await self._replay_prewarm(self.tuning.prewarm_entries())
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - boot must not wedge
            self._log.error(
                "boot-replay-failed",
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self.lifecycle.mark_ready()
            self._log.info(
                "ready",
                time_to_ready_ms=round(
                    self.lifecycle.time_to_ready_ms or 0.0, 1
                ),
                journal_replayed=self.lifecycle.replayed,
                journal_dropped_expired=self.lifecycle.dropped_expired,
                prewarmed=self.lifecycle.prewarmed,
            )

    async def _replay_journal(self, entries: List[JournalEntry]) -> None:
        """Run every incomplete entry exactly once, oldest first.

        Expired entries are dropped (their clients' budgets are spent
        either way); the rest are re-executed — a warm compile or a
        cache probe thanks to the content-addressed plan cache — and
        each gets its ``end`` record with the result digest, so a crash
        *during* replay replays only what is still unfinished.
        """
        self._log.info("journal-replay-start", entries=len(entries))
        chunk = max(1, self.pool.size)
        for start in range(0, len(entries), chunk):
            batch = []
            for entry in entries[start:start + chunk]:
                if entry.expired():
                    self.lifecycle.dropped_expired += 1
                    self.journal.complete(entry.entry_id, "dropped_expired")
                    continue
                try:
                    fut = self.pool.submit(
                        entry.payload, deadline=entry.deadline_wall
                    )
                except PoolSaturated:
                    self.lifecycle.replay_failed += 1
                    self.journal.complete(entry.entry_id, "replay_failed")
                    continue
                batch.append(
                    (entry, asyncio.ensure_future(asyncio.wrap_future(fut)))
                )
            for entry, fut in batch:
                try:
                    msg = await fut
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - record + move on
                    self.lifecycle.replay_failed += 1
                    self.journal.complete(
                        entry.entry_id,
                        "replay_expired"
                        if isinstance(exc, DeadlineExceeded)
                        else "replay_failed",
                    )
                    continue
                self.lifecycle.replayed += 1
                self.journal.complete(
                    entry.entry_id, 200, digest=result_digest(msg["result"])
                )

    async def _replay_prewarm(self, manifest_entries: List[dict]) -> None:
        """Warm the plan cache with the previous run's hottest keys."""
        if not manifest_entries:
            return
        self._log.info("prewarm-start", entries=len(manifest_entries))
        deadline = time.time() + self.config.default_deadline_ms / 1e3
        futures = []
        for entry in manifest_entries[: self.config.prewarm_limit]:
            try:
                fut = self.pool.submit(entry["payload"], deadline=deadline)
            except PoolSaturated:
                self.lifecycle.prewarm_failed += 1
                continue
            futures.append((entry, asyncio.wrap_future(fut)))
        for entry, fut in futures:
            try:
                await fut
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - prewarm is best-effort
                self.lifecycle.prewarm_failed += 1
                continue
            self.lifecycle.prewarmed += 1
            # Keep the hot set sticky across successive restarts: a key
            # nobody requests again still ages out once fresh traffic
            # out-touches it.
            self.lifecycle.manifest.touch(entry["key"], entry["payload"])

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _serve_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        self._read_head(reader),
                        timeout=self.config.keepalive_timeout_s,
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ValueError, ConnectionError):
                    break
                if head is None:
                    break
                method, path, headers = head
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > self.config.request_max_bytes:
                    await self._respond(
                        writer, 413,
                        {"error": "request body too large"}, close=True,
                    )
                    break
                body = b""
                if length:
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length), timeout=30.0
                        )
                    except (asyncio.TimeoutError,
                            asyncio.IncompleteReadError):
                        break
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                # Drain counts a /v1/* request as open until its
                # response bytes are written — a drained daemon never
                # abandons a computed-but-unsent reply.
                is_op = path.startswith("/v1/")
                if is_op:
                    self._open_requests += 1
                try:
                    status, payload, extra = await self._dispatch(
                        method, path, headers, body
                    )
                    try:
                        await self._respond(
                            writer, status, payload,
                            close=not keep_alive, extra_headers=extra,
                        )
                    except ConnectionError:
                        break
                finally:
                    if is_op:
                        self._open_requests -= 1
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # daemon shutdown cancelled this connection mid-read
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_head(reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(100):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError("too many headers")
        return method, target.split("?", 1)[0], headers

    async def _respond(
        self, writer, status, payload, close=False, extra_headers=None
    ) -> None:
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        else:
            body = str(payload).encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method, path, headers, body):
        if path == "/healthz" and method == "GET":
            return (*self._healthz(), None)
        if path == "/readyz" and method == "GET":
            return (*self._readyz(), None)
        if path == "/metrics" and method == "GET":
            self._refresh_metrics()
            return 200, self.registry.to_prometheus(), None
        if path == "/debug/requests" and method == "GET":
            return 200, {
                "requests": self.recorder.summaries(),
                "retained": len(self.recorder),
                "recorded": self.recorder.recorded,
                "evicted": self.recorder.evicted,
                "trace_sample": self.config.trace_sample,
            }, None
        if path == "/debug/lifecycle" and method == "GET":
            return 200, self._lifecycle_report(), None
        if path.startswith("/debug/traces/") and method == "GET":
            trace_id = path[len("/debug/traces/"):]
            trace = self.recorder.get(trace_id)
            if trace is None:
                return 404, {
                    "error": f"no retained trace {trace_id!r} "
                    "(evicted, unsampled, or never seen)"
                }, None
            return 200, trace, None
        if path.startswith("/v1/"):
            op = path[len("/v1/"):]
            if op not in OPS:
                return 404, {"error": f"unknown endpoint {path!r}"}, None
            if method != "POST":
                return 405, {"error": f"{path} wants POST"}, None
            return await self._handle_op(op, headers, body)
        return 404, {"error": f"unknown endpoint {path!r}"}, None

    def _healthz(self):
        alive = self.pool.alive_workers()
        supervisor_ok = (
            self.pool._supervisor is not None
            and self.pool._supervisor.is_alive()
        )
        healthy = self._accepting and supervisor_ok
        return (200 if healthy else 503), {
            "status": "ok" if healthy else "unhealthy",
            "workers_alive": alive,
            "queue_depth": self.pool.queue_depth(),
            "inflight": self.pool.inflight(),
            "breaker": self.breaker.state_name,
            "lifecycle": self.lifecycle.state_name,
        }

    def _readyz(self):
        # A booting daemon (journal replay / prewarm in flight) and a
        # draining daemon both refuse: readiness means "send me work".
        ready = (
            self._accepting
            and self.lifecycle.is_ready()
            and self.pool.alive_workers() >= 1
            and self.pool.queue_depth() < self.config.queue_depth
        )
        return (200 if ready else 503), {
            "ready": ready,
            "lifecycle": self.lifecycle.state_name,
            "workers_alive": self.pool.alive_workers(),
            "queue_depth": self.pool.queue_depth(),
        }

    def _lifecycle_report(self) -> dict:
        report = self.lifecycle.snapshot()
        report["open_requests"] = self._open_requests
        report["journal"] = (
            self.journal.stats.snapshot() if self.journal is not None else None
        )
        report["journal_dir"] = self.config.journal_dir
        report["recorder_restored"] = self.recorder.restored
        return report

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def _sample_trace(self) -> bool:
        """Deterministic every-Nth trace sampling (no RNG: reproducible
        in tests, uniform under steady load)."""
        rate = self.config.trace_sample
        if rate <= 0:
            return False
        if rate >= 1:
            return True
        period = max(1, round(1.0 / rate))
        self._trace_seq += 1
        return self._trace_seq % period == 1

    async def _handle_op(self, op, headers, body):
        t0 = time.monotonic()
        context = context_from_headers(headers)
        trace_id = context.trace_id if context else new_trace_id()
        parent_span = context.parent_span_id if context else None
        sampled = self._sample_trace()
        trace = (
            RequestTrace(trace_id, op, parent_span_id=parent_span)
            if sampled else None
        )
        # What rides the job message into the worker: correlation always,
        # span shipping only when this request is sampled.
        wire = TraceContext(
            trace_id, parent_span_id=parent_span, sampled=sampled
        ).to_wire()
        request_id = None  # the client's id once parsed; trace_id stands in
        journal_ref = {"id": None}  # set once the request is journaled

        def finish(status, payload, extra=None, trace_error=None):
            # Error replies mark the trace with their error text, or with
            # ``trace_error`` where the trace names the cause differently.
            if trace is not None and status >= 400:
                trace.mark_error(trace_error or payload["error"])
            if self.journal is not None and journal_ref["id"] is not None:
                # Completion marks ride the executor: an fsync per reply
                # must not stall the event loop.  A mark lost to a crash
                # just means one idempotent replay on the next boot.
                digest = (
                    payload.get("result_digest")
                    if isinstance(payload, dict) else None
                )
                self._loop.run_in_executor(
                    None, self.journal.complete,
                    journal_ref["id"], status, digest,
                )
                journal_ref["id"] = None
            latency_ms = (time.monotonic() - t0) * 1e3
            rid = request_id or trace_id
            if isinstance(payload, dict):
                # Every response body — including 400/429/503/504 error
                # paths — carries correlation ids.
                payload["request_id"] = payload.get("request_id") or rid
                payload.setdefault("trace_id", trace_id)
            self.registry.inc(
                "service_requests_total", endpoint=op, status=str(status)
            )
            self._log.log(
                "info" if status < 500 else "error",
                "request-finished",
                trace_id=trace_id,
                request_id=rid,
                endpoint=op,
                status=status,
                latency_ms=round(latency_ms, 3),
            )
            exemplar = None
            if trace is not None:
                trace.request_id = rid
                stitched = trace.stitch(status)
                retained = self.recorder.record(
                    stitched,
                    logs=log_ring().tail(
                        trace_id=trace_id, limit=LOG_TAIL_LIMIT
                    ),
                )
                if retained:
                    # The p99 buckets in /metrics link to traces the
                    # recorder can still serve.
                    exemplar = {"trace_id": trace_id}
            self.registry.observe(
                "service_request_latency_ms",
                latency_ms,
                exemplar=exemplar,
                endpoint=op,
            )
            self.registry.set("service_queue_depth", self.pool.queue_depth())
            return status, payload, extra

        if not self.lifecycle.is_ready():
            # Booting (journal replay / prewarm) or draining: refuse
            # fast with a hint, exactly like /readyz — the client pool
            # fails over to the next replica.
            state = self.lifecycle.state_name
            self.registry.inc(
                "service_lifecycle_rejects_total", endpoint=op, state=state
            )
            return finish(
                503,
                {"error": f"not accepting requests: daemon is {state}",
                 "lifecycle": state},
                {"Retry-After": "1"},
                trace_error=f"not accepting requests: {state}",
            )

        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return finish(400, {"error": f"bad JSON body: {exc}"})
        try:
            request = parse_request(op, payload)
        except RequestError as exc:
            return finish(400, {"error": str(exc)})
        request_id = request.request_id

        deadline_ms = request.deadline_ms
        if deadline_ms is None and headers.get("x-deadline-ms"):
            try:  # the body field's bound: NaN would disable the deadline
                deadline_ms = FIELDS["deadline_ms"].from_text(
                    headers["x-deadline-ms"]
                )
            except RequestError as exc:
                return finish(400, {"error": f"bad X-Deadline-Ms header: {exc}"})
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline_ms = min(deadline_ms, self.config.max_deadline_ms)
        deadline_wall = time.time() + deadline_ms / 1e3
        deadline_mono = t0 + deadline_ms / 1e3

        degraded_by_breaker = False
        if not request.degraded and not self.breaker.allow_primary():
            request.degraded = True
            degraded_by_breaker = True
            self.registry.inc("service_degraded_total", endpoint=op)

        key = request_fingerprint(
            request, self._cluster_for(request), tuning_table=self.tuning
        )
        self.lifecycle.manifest.touch(key, prewarm_payload(request))
        if self.journal is not None:
            # Write-ahead: the request is durable *before* any dispatch
            # or coalesce-attach, so a crash from here on replays it.
            # The fsync runs on the executor — concurrent event-loop
            # work continues; this request alone waits for durability.
            journal_ref["id"] = new_trace_id()
            record = JournalEntry(
                entry_id=journal_ref["id"],
                key=key,
                op=op,
                payload=request.to_payload(),
                deadline_wall=deadline_wall,
                trace_id=trace_id,
            )
            await self._loop.run_in_executor(
                None, self.journal.append, record
            )
        if trace is not None:
            trace.annotate(
                endpoint=op,
                breaker=self.breaker.state_name,
                degraded=request.degraded,
                deadline_ms=round(deadline_ms),
            )
        entry = self._inflight.get(key)
        coalesced = entry is not None
        if coalesced:
            entry.waiters += 1
            if deadline_wall > entry.deadline:
                # Don't let this waiter inherit the leader's shorter
                # budget: stretch the shared job's deadline so the pool
                # does not kill it while this waiter still has time.
                entry.deadline = deadline_wall
                self.pool.extend_deadline(entry.pool_future, deadline_wall)
            self.registry.inc("service_coalesce_hits_total", endpoint=op)
            if trace is not None:
                # The worker spans live in the leader's trace — exactly
                # one trace accounts for the shared compute; waiters
                # reference it instead of duplicating it.
                trace.mark_attached(entry.trace_id)
        else:
            try:
                fut = self.pool.submit(
                    request.to_payload(),
                    deadline=deadline_wall,
                    retry_after_s=self._retry_after_s(),
                    trace=wire,
                )
            except PoolSaturated as exc:
                self._log.warning(
                    "request-shed",
                    trace_id=trace_id,
                    endpoint=op,
                    queue_depth=exc.depth,
                )
                return finish(
                    429,
                    {
                        "error": "overloaded: request queue is full",
                        "queue_depth": exc.depth,
                        "retry_after_s": exc.retry_after_s,
                    },
                    {"Retry-After": str(max(1, round(exc.retry_after_s)))},
                    trace_error="shed: request queue full",
                )
            if trace is not None:
                trace.mark_submitted()
            afut = asyncio.ensure_future(asyncio.wrap_future(fut))
            entry = _Inflight(
                key, afut, fut, primary=not request.degraded, op=op,
                started=t0, deadline=deadline_wall, trace_id=trace_id,
            )
            self._inflight[key] = entry
            afut.add_done_callback(
                lambda f, e=entry: self._on_job_done(e, f)
            )

        remaining = deadline_mono - time.monotonic()
        try:
            msg = await asyncio.wait_for(
                asyncio.shield(entry.future), timeout=max(0.001, remaining)
            )
        except asyncio.TimeoutError:
            # This waiter's budget ran out; the shared job (and any
            # longer-budget waiters) may still complete — the pool's own
            # deadline enforcement reaps it if nobody is left.
            return finish(
                504,
                {
                    "error": f"deadline ({deadline_ms:.0f} ms) expired",
                    "request_id": request.request_id,
                },
            )
        except DeadlineExceeded as exc:
            return finish(
                504, {"error": str(exc), "request_id": request.request_id}
            )
        except RequestError as exc:
            return finish(400, {"error": str(exc)})
        except WorkerCrashed as exc:
            return finish(
                500, {"error": str(exc), "request_id": request.request_id}
            )
        except JobFailed as exc:
            return finish(
                500,
                {
                    "error": "request failed in worker",
                    "detail": exc.worker_traceback[-2000:],
                    "request_id": request.request_id,
                },
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - never drop a response
            return finish(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

        if trace is not None:
            worker_blob = None
            if not coalesced:
                worker_blob = {
                    "started_wall": msg.get("started_wall"),
                    "ended_wall": msg.get("ended_wall"),
                    "worker": msg.get("worker"),
                }
                worker_blob.update(msg.get("trace") or {})
            trace.mark_reply(worker_blob)
        result = msg["result"]
        return finish(200, {
            "ok": True,
            "op": op,
            "request_id": request.request_id,
            "degraded": request.degraded,
            "degraded_by_breaker": degraded_by_breaker,
            "coalesced": coalesced,
            "result": result,
            "result_digest": result_digest(result),
        })

    def _on_job_done(self, entry: _Inflight, future) -> None:
        """Leader-job completion: runs once per job in the loop thread."""
        self._inflight.pop(entry.key, None)
        elapsed = time.monotonic() - entry.started
        self._ewma_latency_s = 0.8 * self._ewma_latency_s + 0.2 * elapsed
        if future.cancelled():
            return
        exc = future.exception()
        if exc is None:
            if entry.primary:
                self.breaker.record_success()
            msg = future.result()
            metrics = msg.get("metrics")
            if metrics:
                # Cumulative per-worker snapshot: the source watermark
                # in merge_json dedups re-reported totals and flags a
                # respawned worker's counter reset.
                worker = msg.get("worker")
                source = f"worker-{worker}" if worker is not None else "worker"
                try:
                    self.registry.merge_json(metrics, source=source)
                except ValueError:
                    pass  # never let a metrics glitch fail the daemon
        elif isinstance(exc, (DeadlineExceeded, WorkerCrashed)):
            # Timeout-shaped failures are what the breaker watches.
            if entry.primary:
                self.breaker.record_failure()

    # ------------------------------------------------------------------
    # Support
    # ------------------------------------------------------------------

    def _cluster_for(self, request: ServiceRequest) -> Cluster:
        key = (request.nodes, request.gpus, request.profile.upper())
        cluster = self._clusters.get(key)
        if cluster is None:
            cluster = build_cluster(request.nodes, request.gpus, request.profile)
            if len(self._clusters) >= 64:
                self._clusters.pop(next(iter(self._clusters)))
            self._clusters[key] = cluster
        return cluster

    def _retry_after_s(self) -> float:
        backlog = self.pool.queue_depth() + self.pool.inflight() + 1
        estimate = backlog * self._ewma_latency_s / max(1, self.pool.size)
        return min(30.0, max(1.0, estimate))

    def _refresh_metrics(self) -> None:
        """Fold pool/breaker state into the registry (loop thread only)."""
        stats = self.pool.stats.snapshot()
        for field_name, metric in _POOL_COUNTERS.items():
            delta = stats[field_name] - self._pool_counter_base[field_name]
            if delta > 0:
                self.registry.inc(metric, delta)
            self._pool_counter_base[field_name] = stats[field_name]
        if self.breaker.trips > self._breaker_trips_seen:
            self.registry.inc(
                "service_breaker_trips_total",
                self.breaker.trips - self._breaker_trips_seen,
            )
            self._breaker_trips_seen = self.breaker.trips
        self.registry.set("service_breaker_state", self.breaker.state)
        self.registry.set("service_queue_depth", self.pool.queue_depth())
        self.registry.set("service_inflight", self.pool.inflight())
        self.registry.set("service_workers_alive", self.pool.alive_workers())
        # Lifecycle + journal counters are delta-folded like the pool's
        # (the sources are mutated off the loop thread; the registry is
        # written only here, on it).
        counters = {
            "service_journal_replayed_total": self.lifecycle.replayed,
            "service_journal_dropped_expired_total":
                self.lifecycle.dropped_expired,
            "service_journal_replay_failed_total":
                self.lifecycle.replay_failed,
            "service_lifecycle_prewarmed_total": self.lifecycle.prewarmed,
            "service_recorder_restored_total": self.recorder.restored,
        }
        if self.journal is not None:
            stats = self.journal.stats.snapshot()
            counters["service_journal_appends_total"] = stats["appends"]
            counters["service_journal_errors_total"] = stats["errors"]
        for metric, total in counters.items():
            delta = total - self._lifecycle_counter_base.get(metric, 0)
            if delta > 0:
                self.registry.inc(metric, delta)
            self._lifecycle_counter_base[metric] = total
        self.registry.set("service_lifecycle_state", self.lifecycle.state)
        if self.lifecycle.time_to_ready_ms is not None:
            self.registry.set(
                "service_lifecycle_time_to_ready_ms",
                self.lifecycle.time_to_ready_ms,
            )
        self.registry.set("service_open_requests", self._open_requests)


__all__ = ["ServiceConfig", "ServiceDaemon"]
