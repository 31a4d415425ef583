"""Minimal stdlib client for the resccl service daemon.

Built on :mod:`http.client` so scripts, tests, and the load benchmark
can drive the daemon without extra dependencies.  One
:class:`ServiceClient` wraps one keep-alive connection and is *not*
thread-safe — give each load-generator thread its own client.

Typical use::

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1", 8642) as client:
        reply = client.simulate("allreduce:8", nodes=1, gpus=8,
                                deadline_ms=10_000)
        print(reply["result"]["completion_time_us"])

Errors map onto exception types by HTTP status so callers can react to
the daemon's robustness signals individually: ``429`` (shed load)
raises :class:`ServiceOverloaded` carrying ``retry_after_s``, ``504``
(deadline spent) raises :class:`ServiceDeadline`, any other non-2xx
raises :class:`ServiceError` with the decoded error payload.  A
connection that cannot be re-established raises
:class:`ServiceUnavailable` (an :class:`OSError`), whose ``delivered``
flag says whether the request bytes reached the daemon — the bit that
decides whether failing over a POST to another replica is safe.

For multi-replica deployments, :class:`ServiceClientPool` fronts an
ordered replica list with health-gated failover, per-replica circuit
state, and optional hedged GETs.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.context import TRACE_ID_HEADER, current_context, new_trace_id


class ServiceError(RuntimeError):
    """Non-2xx reply from the daemon."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        detail = payload.get("error", "request failed")
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceOverloaded(ServiceError):
    """HTTP 429 — the daemon shed this request; retry after a delay."""

    def __init__(self, status: int, payload: Dict[str, Any],
                 retry_after_s: float) -> None:
        super().__init__(status, payload)
        self.retry_after_s = retry_after_s


class ServiceDeadline(ServiceError):
    """HTTP 504 — the request's deadline budget expired."""


class ServiceUnavailable(OSError):
    """The daemon could not be reached (or dropped the connection).

    ``delivered`` distinguishes the two failure halves that matter for
    retry semantics: ``False`` means the request bytes never fully
    reached the daemon (resending anywhere is safe), ``True`` means the
    request was delivered but its response was lost — the daemon may
    already have executed it, so only *idempotent* requests may be
    retried or failed over.
    """

    def __init__(self, message: str, delivered: bool = False) -> None:
        super().__init__(message)
        self.delivered = delivered


#: Decorrelated-jitter reconnect backoff bounds (seconds).
_BACKOFF_BASE_S = 0.01
_BACKOFF_CAP_S = 0.25


class ServiceClient:
    """One keep-alive HTTP connection to a resccl service daemon.

    Args:
        host/port: the daemon's listen address.
        timeout_s: socket timeout per HTTP exchange.
        overload_retries: how many times :meth:`request` re-sends after
            a ``429``, sleeping out the daemon's ``Retry-After`` hint
            first (capped by the request's remaining ``deadline_ms``
            budget).  The default ``0`` preserves raise-immediately
            semantics for callers that do their own pacing.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout_s: float = 120.0,
                 overload_retries: int = 0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.overload_retries = max(0, overload_retries)
        self._conn: Optional[http.client.HTTPConnection] = None
        self._backoff_s = _BACKOFF_BASE_S

    # -- connection management ----------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def _reconnect_pause(self) -> None:
        """Decorrelated-jitter backoff between reconnect attempts.

        ``sleep = min(cap, uniform(base, 3 * previous))`` — the AWS
        "decorrelated jitter" curve: retries from many clients that all
        lost the same daemon spread out instead of stampeding its
        restart in lockstep.  A successful exchange resets the curve.
        """
        self._backoff_s = min(
            _BACKOFF_CAP_S,
            random.uniform(_BACKOFF_BASE_S, self._backoff_s * 3.0),
        )
        time.sleep(self._backoff_s)

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 headers: Optional[Dict[str, str]] = None):
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        send_headers = {"Content-Type": "application/json"}
        if headers:
            send_headers.update(headers)
        # One transparent reconnect: the daemon may have dropped an idle
        # keep-alive connection between calls.  POSTs are only retried
        # when the failure happened while *sending* — the daemon reads
        # the full body before dispatching, so a request that died
        # mid-send was never executed.  A POST that was delivered but
        # lost its response is NOT resent (it may already have run,
        # and a blind resend would execute it twice); GETs are
        # idempotent and retry unconditionally.
        sent = False
        for attempt in (0, 1):
            conn = self._connection()
            sent = False
            try:
                conn.request(method, path, body=payload, headers=send_headers)
                sent = True
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                self.close()
                if attempt or (sent and method != "GET"):
                    raise ServiceUnavailable(
                        f"{self.host}:{self.port} unavailable: "
                        f"{type(exc).__name__}: {exc}",
                        delivered=sent,
                    ) from exc
                self._reconnect_pause()
        self._backoff_s = _BACKOFF_BASE_S
        return response, raw

    # -- operations ----------------------------------------------------

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """POST one operation; returns the decoded JSON reply.

        Every POST carries an ``X-Trace-Id`` correlation header: an
        explicit ``trace_id=`` kwarg wins, else the thread's ambient
        :class:`~repro.obs.context.TraceContext` (so sub-requests made
        inside a traced request stay correlated), else a fresh id.  The
        reply echoes it as ``trace_id`` — hand that to
        ``/debug/traces/<id>`` or ``resccl trace-request``.

        With ``overload_retries > 0``, a ``429`` is retried after
        sleeping out the daemon's ``Retry-After`` hint — but never past
        the request's own ``deadline_ms`` budget: a wait that would
        outlive the budget raises :class:`ServiceOverloaded` instead of
        burning the budget asleep.
        """
        deadline_ms = fields.pop("deadline_ms", None)
        trace_id = fields.pop("trace_id", None)
        if trace_id is None:
            context = current_context()
            trace_id = context.trace_id if context else new_trace_id()
        headers = {TRACE_ID_HEADER: str(trace_id)}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = str(deadline_ms)
        budget_until = (
            time.monotonic() + float(deadline_ms) / 1e3
            if deadline_ms is not None else None
        )
        retries_left = self.overload_retries
        while True:
            try:
                return self._request_once(op, fields, headers)
            except ServiceOverloaded as exc:
                wait_s = exc.retry_after_s
                if retries_left <= 0:
                    raise
                if budget_until is not None and (
                    time.monotonic() + wait_s >= budget_until
                ):
                    # Honoring the hint would spend the whole deadline
                    # budget asleep; surface the overload instead.
                    raise
                retries_left -= 1
                time.sleep(wait_s)

    def _request_once(self, op: str, fields: Dict[str, Any],
                      headers: Dict[str, str]) -> Dict[str, Any]:
        response, raw = self._request(
            "POST", f"/v1/{op}", body=fields, headers=headers
        )
        try:
            payload = _decode_reply(raw) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": raw[:200].decode("utf-8", "replace")}
        if response.status == 429:
            # The Retry-After *header* is the daemon's canonical pacing
            # signal (it survives proxies that rewrite bodies); the
            # body's float-precision retry_after_s refines it.
            retry_after = _parse_retry_after(
                response.getheader("Retry-After"))
            if retry_after is None:
                retry_after = payload.get("retry_after_s")
            if retry_after is None:
                retry_after = 1.0
            raise ServiceOverloaded(
                response.status, payload, float(retry_after))
        if response.status == 504:
            raise ServiceDeadline(response.status, payload)
        if response.status >= 300:
            raise ServiceError(response.status, payload)
        return payload

    def compile(self, algorithm: Optional[str] = None, **fields: Any):
        return self.request("compile", algorithm=algorithm, **fields)

    def simulate(self, algorithm: Optional[str] = None, **fields: Any):
        return self.request("simulate", algorithm=algorithm, **fields)

    def profile(self, algorithm: Optional[str] = None, **fields: Any):
        return self.request("profile", algorithm=algorithm, **fields)

    # -- health/metrics -----------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        response, raw = self._request("GET", "/healthz")
        payload = json.loads(raw.decode("utf-8"))
        payload["http_status"] = response.status
        return payload

    def readyz(self) -> Dict[str, Any]:
        response, raw = self._request("GET", "/readyz")
        payload = json.loads(raw.decode("utf-8"))
        payload["http_status"] = response.status
        return payload

    def metrics(self) -> str:
        response, raw = self._request("GET", "/metrics")
        if response.status != 200:
            raise ServiceError(response.status, {"error": "metrics failed"})
        return raw.decode("utf-8")

    # -- flight recorder / lifecycle ----------------------------------

    def debug_requests(self) -> Dict[str, Any]:
        """Index of flight-recorder-retained traces (``/debug/requests``)."""
        response, raw = self._request("GET", "/debug/requests")
        payload = json.loads(raw.decode("utf-8"))
        if response.status != 200:
            raise ServiceError(response.status, payload)
        return payload

    def request_trace(self, trace_id: str) -> Dict[str, Any]:
        """One retained stitched trace, or :class:`ServiceError` (404)."""
        response, raw = self._request("GET", f"/debug/traces/{trace_id}")
        payload = json.loads(raw.decode("utf-8"))
        if response.status != 200:
            raise ServiceError(response.status, payload)
        return payload

    def debug_lifecycle(self) -> Dict[str, Any]:
        """Lifecycle state + boot replay report (``/debug/lifecycle``)."""
        response, raw = self._request("GET", "/debug/lifecycle")
        payload = json.loads(raw.decode("utf-8"))
        if response.status != 200:
            raise ServiceError(response.status, payload)
        return payload


def _decode_reply(raw: bytes) -> Dict[str, Any]:
    """One operation reply, its object keys interned.

    Every reply repeats the same few dozen keys; a caller that keeps its
    replies (a load generator keeps one per request) then holds each key
    once instead of once per reply, which is about 40% of a reply's
    memory.
    """
    return json.loads(raw.decode("utf-8"), object_pairs_hook=_interned_keys)


def _interned_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    return {sys.intern(key): value for key, value in pairs}


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class _Replica:
    """One replica's address + circuit state inside the pool."""

    __slots__ = ("host", "port", "client", "failures", "open_until")

    def __init__(self, host: str, port: int, client: ServiceClient) -> None:
        self.host = host
        self.port = port
        self.client = client
        self.failures = 0  # consecutive connection-level failures
        self.open_until = 0.0  # monotonic instant the circuit re-closes

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class ServiceClientPool:
    """Failover client over an ordered list of daemon replicas.

    Replicas are tried in the configured order, skipping any whose
    per-replica circuit is open (``failure_threshold`` consecutive
    connection failures open it for ``cooldown_s``; it then half-opens
    and the next attempt is the probe).  When *every* circuit is open
    the ordered list is tried anyway — a pool with nowhere to send is
    wrong more often than every replica is actually dead.

    Failover semantics mirror the single client's retry rules:

    * connection failures and ``503`` (a draining or booting replica)
      fail over to the next replica;
    * a POST whose bytes were **delivered** but whose response was lost
      (``ServiceUnavailable.delivered``) is *never* re-sent — the
      replica may have executed it; the error surfaces to the caller;
    * ``429`` tries the next replica first, then (with
      ``overload_retries``) sleeps out the smallest ``Retry-After``
      hint, capped by the request's remaining deadline budget;
    * ``400``/``500``/``504`` are *request* verdicts, not replica
      health: they surface immediately without failover.

    Optional hedging (``hedge_after_s``): idempotent GETs that take
    longer than the hedge delay race a second replica, first response
    wins.  POSTs are **never** hedged — a hedge is a resend, and
    resending a possibly-executing POST violates the delivered-POST
    rule above.

    Like :class:`ServiceClient`, a pool instance is not thread-safe;
    give each thread its own pool.
    """

    def __init__(
        self,
        replicas: Sequence[Tuple[str, int]],
        timeout_s: float = 120.0,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        overload_retries: int = 1,
        hedge_after_s: Optional[float] = None,
    ) -> None:
        if not replicas:
            raise ValueError("ServiceClientPool needs at least one replica")
        self.timeout_s = timeout_s
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown_s = cooldown_s
        self.overload_retries = max(0, overload_retries)
        self.hedge_after_s = hedge_after_s
        self._replicas = [
            _Replica(host, int(port),
                     ServiceClient(host, int(port), timeout_s=timeout_s))
            for host, port in replicas
        ]
        self.failovers = 0  # lifetime count, for tests/telemetry
        self.hedges = 0

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ServiceClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for replica in self._replicas:
            replica.client.close()

    # -- circuit bookkeeping -------------------------------------------

    def _mark_ok(self, replica: _Replica) -> None:
        replica.failures = 0
        replica.open_until = 0.0

    def _mark_failed(self, replica: _Replica) -> None:
        replica.failures += 1
        if replica.failures >= self.failure_threshold:
            replica.open_until = time.monotonic() + self.cooldown_s

    def _candidates(self) -> List[_Replica]:
        """Ordered replicas with closed/half-open circuits; all of them
        when every circuit is open (better to probe than to give up)."""
        now = time.monotonic()
        healthy = [r for r in self._replicas if r.open_until <= now]
        return healthy or list(self._replicas)

    def replica_states(self) -> List[dict]:
        now = time.monotonic()
        return [
            {
                "address": r.address,
                "failures": r.failures,
                "circuit": "open" if r.open_until > now else "closed",
            }
            for r in self._replicas
        ]

    # -- POST path (ordered failover, never hedged) --------------------

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """POST one operation with replica failover; see class docs."""
        deadline_ms = fields.get("deadline_ms")
        budget_until = (
            time.monotonic() + float(deadline_ms) / 1e3
            if deadline_ms is not None else None
        )
        retries_left = self.overload_retries
        while True:
            overloads: List[ServiceOverloaded] = []
            last_exc: Optional[Exception] = None
            for replica in self._candidates():
                try:
                    reply = replica.client.request(op, **dict(fields))
                except ServiceUnavailable as exc:
                    self._mark_failed(replica)
                    if exc.delivered:
                        # The replica may have executed this POST; a
                        # resend elsewhere could run it twice.  Callers
                        # that can tolerate at-least-once retry with a
                        # request_id for correlation.
                        raise
                    last_exc = exc
                    self.failovers += 1
                    continue
                except ServiceOverloaded as exc:
                    # Full queue: the replica is alive, just busy — not
                    # a circuit strike.  Try the others before pacing.
                    overloads.append(exc)
                    last_exc = exc
                    self.failovers += 1
                    continue
                except ServiceError as exc:
                    if exc.status == 503:
                        # Draining or booting: routine lifecycle, fail
                        # over (and strike the circuit so the drain
                        # window stops costing a round trip each call).
                        self._mark_failed(replica)
                        last_exc = exc
                        self.failovers += 1
                        continue
                    raise  # 400/500/504: a verdict on the request
                self._mark_ok(replica)
                return reply
            if overloads and retries_left > 0:
                wait_s = min(exc.retry_after_s for exc in overloads)
                if budget_until is None or (
                    time.monotonic() + wait_s < budget_until
                ):
                    retries_left -= 1
                    time.sleep(wait_s)
                    continue
            if last_exc is not None:
                raise last_exc
            raise ServiceUnavailable("no replica available")

    def compile(self, algorithm: Optional[str] = None, **fields: Any):
        return self.request("compile", algorithm=algorithm, **fields)

    def simulate(self, algorithm: Optional[str] = None, **fields: Any):
        return self.request("simulate", algorithm=algorithm, **fields)

    def profile(self, algorithm: Optional[str] = None, **fields: Any):
        return self.request("profile", algorithm=algorithm, **fields)

    # -- GET path (failover + optional hedging) ------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._get("healthz")

    def readyz(self) -> Dict[str, Any]:
        """Pool readiness: the first replica answering 200.

        A single replica's ``readyz()`` returns its 503 verdict rather
        than raising (not-ready is an answer, not an error), but a pool
        exists to route around exactly that — a draining or booting
        replica's refusal fails over to the next one.  Only when *no*
        replica is ready does the last refusal surface, so callers still
        see the honest 503 payload.
        """
        last_not_ready: Optional[Dict[str, Any]] = None
        last_exc: Optional[Exception] = None
        for replica in self._candidates():
            try:
                result = replica.client.readyz()
            except (ServiceUnavailable, ServiceError) as exc:
                if isinstance(exc, ServiceUnavailable):
                    self._mark_failed(replica)
                last_exc = exc
                self.failovers += 1
                continue
            if result.get("http_status") == 200:
                self._mark_ok(replica)
                return result
            last_not_ready = result
            self.failovers += 1
        if last_not_ready is not None:
            return last_not_ready
        raise last_exc if last_exc is not None else ServiceUnavailable(
            "no replica available"
        )

    def metrics(self) -> str:
        return self._get("metrics")

    def debug_requests(self) -> Dict[str, Any]:
        return self._get("debug_requests")

    def debug_lifecycle(self) -> Dict[str, Any]:
        return self._get("debug_lifecycle")

    def _get(self, method_name: str):
        """Idempotent GET with failover, hedged when configured."""
        candidates = self._candidates()
        if self.hedge_after_s is not None and len(candidates) > 1:
            return self._hedged_get(method_name, candidates)
        last_exc: Optional[Exception] = None
        for replica in candidates:
            try:
                result = getattr(replica.client, method_name)()
            except (ServiceUnavailable, ServiceError) as exc:
                if isinstance(exc, ServiceUnavailable):
                    self._mark_failed(replica)
                last_exc = exc
                self.failovers += 1
                continue
            self._mark_ok(replica)
            return result
        raise last_exc if last_exc is not None else ServiceUnavailable(
            "no replica available"
        )

    def _hedged_get(self, method_name: str, candidates: List[_Replica]):
        """Race the first replica against a delayed second: GETs are
        idempotent, so the duplicate is waste at worst, latency-cover at
        best.  First success wins; the loser's result is discarded."""
        results: "queue.Queue[tuple]" = queue.Queue()

        def attempt(replica: _Replica) -> None:
            # A private connection per attempt: the pooled clients are
            # not thread-safe and the loser must not poison them.
            client = ServiceClient(
                replica.host, replica.port, timeout_s=self.timeout_s
            )
            try:
                results.put((replica, getattr(client, method_name)(), None))
            except Exception as exc:  # noqa: BLE001 - collected below
                results.put((replica, None, exc))
            finally:
                client.close()

        threads = [threading.Thread(
            target=attempt, args=(candidates[0],), daemon=True)]
        threads[0].start()
        launched = 1
        first_error: Optional[Exception] = None
        deadline = time.monotonic() + self.timeout_s
        while time.monotonic() < deadline:
            try:
                remaining = (
                    self.hedge_after_s
                    if launched < min(2, len(candidates))
                    else deadline - time.monotonic()
                )
                replica, value, error = results.get(
                    timeout=max(0.001, remaining))
            except queue.Empty:
                if launched < min(2, len(candidates)):
                    self.hedges += 1
                    threads.append(threading.Thread(
                        target=attempt, args=(candidates[launched],),
                        daemon=True))
                    threads[launched].start()
                    launched += 1
                    continue
                break
            if error is None:
                self._mark_ok(replica)
                return value
            if isinstance(error, ServiceUnavailable):
                self._mark_failed(replica)
            if first_error is None:
                first_error = error
            if launched >= min(2, len(candidates)) and results.empty():
                if not any(t.is_alive() for t in threads):
                    break
        raise first_error if first_error is not None else ServiceUnavailable(
            f"hedged {method_name} got no reply within {self.timeout_s}s"
        )


__all__ = [
    "ServiceClient",
    "ServiceClientPool",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceDeadline",
    "ServiceUnavailable",
]
