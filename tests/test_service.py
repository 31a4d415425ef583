"""Tests for the resilient compile/simulate service daemon.

Layered like the subsystem itself: protocol (parse/execute/fingerprint)
and circuit breaker are unit-tested in-process; the worker pool is
tested against real worker processes including SIGKILL chaos; the
daemon is tested end-to-end over real HTTP with the stdlib client.
"""

import http.client
import os
import pickle
import signal
import socket
import threading
import time

import pytest

from repro.service import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    DeadlineExceeded,
    JobFailed,
    PoolSaturated,
    RequestError,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceDeadline,
    ServiceError,
    ServiceOverloaded,
    ServiceRequest,
    WorkerCrashed,
    WorkerPool,
    parse_request,
    request_fingerprint,
    result_digest,
)
from repro.service.protocol import MAX_WORLD_SIZE, degraded_program, execute
from repro.service.workers import _worker_main
from repro.topology import Cluster

# A cold compile of this shape takes >1s — long enough to observe
# in-flight state (coalescing, saturation, SIGKILL) deterministically.
SLOW = {"algorithm": "mesh-allreduce", "nodes": 6, "gpus": 8,
        "buffer_mb": 16.0, "mbs": 8}
FAST = {"algorithm": "ring-allreduce", "nodes": 1, "gpus": 8,
        "buffer_mb": 16.0, "mbs": 4}


def _cluster(nodes=1, gpus=8):
    return Cluster(nodes=nodes, gpus_per_node=gpus)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestParseRequest:
    def test_minimal_algorithm_request(self):
        req = parse_request("simulate", {"algorithm": "ring-allreduce"})
        assert req.op == "simulate"
        assert req.algorithm == "ring-allreduce"
        assert req.nodes == 2 and req.gpus == 8

    def test_rejects_both_algorithm_and_source(self):
        with pytest.raises(RequestError, match="exactly one"):
            parse_request(
                "compile", {"algorithm": "ring-allreduce", "source": "x"}
            )

    def test_rejects_neither(self):
        with pytest.raises(RequestError, match="exactly one"):
            parse_request("compile", {})

    def test_rejects_file_paths(self):
        for spec in ("plans/foo.xml", "..\\evil", "a/b"):
            with pytest.raises(RequestError, match="file paths"):
                parse_request("compile", {"algorithm": spec})

    def test_rejects_unknown_name_and_synth(self):
        with pytest.raises(RequestError, match="unknown algorithm"):
            parse_request("compile", {"algorithm": "nope"})
        with pytest.raises(RequestError, match="unknown synthesizer"):
            parse_request("compile", {"algorithm": "magic:allreduce"})

    def test_rejects_bad_scheduler_and_numbers(self):
        with pytest.raises(RequestError, match="scheduler"):
            parse_request(
                "compile",
                {"algorithm": "ring-allreduce", "scheduler": "fifo"},
            )
        with pytest.raises(RequestError, match="positive"):
            parse_request(
                "compile", {"algorithm": "ring-allreduce", "nodes": 0}
            )
        with pytest.raises(RequestError, match="must be"):
            parse_request(
                "compile", {"algorithm": "ring-allreduce", "mbs": "many"}
            )

    def test_profile_error_names_the_profile_once(self):
        with pytest.raises(RequestError) as excinfo:
            parse_request(
                "compile", {"algorithm": "ring-allreduce", "profile": "H100"}
            )
        assert str(excinfo.value) == (
            "field 'profile': unknown GPU profile 'H100'; known: A100, V100"
        )

    def test_rejects_non_dict_body_and_bad_op(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_request("compile", [1, 2])
        with pytest.raises(RequestError, match="unknown op"):
            parse_request("launch", {"algorithm": "ring-allreduce"})

    def test_rejects_oversized_cluster(self):
        # Cluster construction is O(nodes*gpus) and runs on the event
        # loop; a giant world size must be a 400, not a daemon stall.
        with pytest.raises(RequestError, match="cap"):
            parse_request(
                "compile",
                {"algorithm": "ring-allreduce",
                 "nodes": 1_000_000_000, "gpus": 8},
            )
        # The cap itself is admitted (world size == MAX_WORLD_SIZE).
        req = parse_request(
            "compile",
            {"algorithm": "ring-allreduce",
             "nodes": MAX_WORLD_SIZE // 8, "gpus": 8},
        )
        assert req.nodes * req.gpus == MAX_WORLD_SIZE

    def test_rejects_non_finite_numbers(self):
        # NaN passes every <= comparison and Infinity survives min()
        # clamps, so either would disable the deadline safety layer.
        for field in ("deadline_ms", "buffer_mb"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(RequestError, match="finite"):
                    parse_request(
                        "compile",
                        {"algorithm": "ring-allreduce", field: value},
                    )
        # Infinity into an int field is a clean 400, not OverflowError.
        with pytest.raises(RequestError, match="must be"):
            parse_request(
                "compile",
                {"algorithm": "ring-allreduce", "nodes": float("inf")},
            )

    def test_rejects_mistyped_fields(self):
        # "false" is a truthy string: coercing it would serve the
        # degraded reference ring to a client that asked not to.
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(RequestError, match="degraded"):
                parse_request(
                    "compile",
                    {"algorithm": "ring-allreduce", "degraded": value},
                )
        # bool is an int subclass, and int() truncates: both are 400s.
        for field, value in (
            ("nodes", True),
            ("mbs", False),
            ("buffer_mb", True),
            ("deadline_ms", True),
            ("mbs", 2.9),
            ("gpus", 7.5),
            ("nodes", "2"),
            ("buffer_mb", "16"),
            # null is no number: it used to reach nodes*gpus or a worker.
            ("nodes", None),
            ("mbs", None),
            ("profile", 5),
        ):
            with pytest.raises(RequestError, match=f"{field}.*must be"):
                parse_request(
                    "compile", {"algorithm": "ring-allreduce", field: value}
                )

    def test_accepts_well_typed_numbers(self):
        req = parse_request(
            "compile",
            {"algorithm": "ring-allreduce", "nodes": 2.0, "mbs": 4,
             "buffer_mb": 16, "degraded": True},
        )
        assert (req.nodes, req.mbs, req.buffer_mb) == (2, 4, 16.0)
        assert type(req.nodes) is int and type(req.buffer_mb) is float
        assert req.degraded is True
        assert parse_request(
            "compile", {"algorithm": "ring-allreduce", "degraded": False}
        ).degraded is False

    def test_accepts_synth_spec_and_inline_source(self):
        assert parse_request(
            "simulate", {"algorithm": "taccl:allgather"}
        ).algorithm == "taccl:allgather"
        assert parse_request(
            "simulate", {"source": "program p { }"}
        ).source == "program p { }"


class TestRequestDocs:
    def test_service_md_field_table_matches_the_field_table(self):
        from pathlib import Path

        from repro.request import FIELDS

        doc = (
            Path(__file__).resolve().parent.parent / "docs" / "service.md"
        ).read_text()
        section = doc.split("\n## Requests\n", 1)[1].split("\n## ", 1)[0]
        rows = {
            line.split("|")[1].strip().strip("`"): line.replace("`", "")
            for line in section.splitlines() if line.startswith("| `")
        }
        for name, field in FIELDS.items():
            assert name in rows, f"{name} undocumented"
            assert f"| {field.bound}" in rows[name], f"{name}: bound"
            if field.default is not None:
                default = field.default
                shown = f"{default:g}" if isinstance(default, float) else default
                assert f"| {shown} |" in rows[name], f"{name}: default"
        assert f"({MAX_WORLD_SIZE} ranks)" in section


class TestFingerprint:
    def test_identical_requests_share_a_fingerprint(self):
        a = parse_request("simulate", dict(FAST))
        b = parse_request("simulate", dict(FAST))
        cluster = _cluster()
        assert request_fingerprint(a, cluster) == request_fingerprint(b, cluster)

    def test_op_and_knobs_split_the_fingerprint(self):
        cluster = _cluster()
        base = parse_request("simulate", dict(FAST))
        for variant in (
            parse_request("compile", dict(FAST)),
            parse_request("simulate", {**FAST, "buffer_mb": 32.0}),
            parse_request("simulate", {**FAST, "mbs": 2}),
            parse_request("simulate", {**FAST, "degraded": True}),
        ):
            assert request_fingerprint(base, cluster) != request_fingerprint(
                variant, cluster
            )


class TestExecute:
    def test_simulate_and_digest_are_deterministic(self):
        req = parse_request("simulate", dict(FAST))
        first = execute(req.to_payload())
        second = execute(req.to_payload())
        assert first["completion_time_us"] > 0
        assert second["cache_hit"] is True
        assert result_digest(first) == result_digest(second)

    def test_digest_ignores_volatile_fields(self):
        req = parse_request("compile", dict(FAST))
        result = execute(req.to_payload())
        mutated = dict(result, wall_ms=1e9, cache_hit=not result["cache_hit"])
        assert result_digest(mutated) == result_digest(result)

    def test_compile_reports_schedule_shape(self):
        result = execute(parse_request("compile", dict(FAST)).to_payload())
        assert result["tasks"] > 0 and result["tb_count"] > 0
        assert result["fingerprint"]

    def test_profile_adds_counters(self):
        result = execute(parse_request("profile", dict(FAST)).to_payload())
        assert "avg_idle_fraction" in result and "counters" in result

    def test_world_size_mismatch_is_a_request_error(self):
        req = parse_request(
            "simulate", {"source": "program p { }", "nodes": 1, "gpus": 8}
        )
        with pytest.raises(RequestError):
            execute(req.to_payload())

    def test_degraded_serves_the_reference_ring(self):
        req = parse_request(
            "simulate", {**SLOW, "nodes": 1, "gpus": 8, "degraded": True}
        )
        result = execute(req.to_payload())
        assert "degraded-ring" in result["algorithm"]
        assert result["completion_time_us"] > 0

    def test_degraded_program_matches_collective(self):
        req = parse_request("simulate", {"algorithm": "hm-allgather",
                                         "nodes": 2, "gpus": 8})
        program = degraded_program(req, _cluster(nodes=2))
        assert program.collective.value.lower() == "allgather"


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def _make(self, **kw):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=kw.pop("failure_threshold", 3),
            cooldown_s=kw.pop("cooldown_s", 5.0),
            clock=lambda: clock["t"],
        )
        return breaker, clock

    def test_trips_after_consecutive_failures_only(self):
        breaker, _ = self._make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert not breaker.allow_primary()

    def test_half_open_allows_one_probe(self):
        breaker, clock = self._make(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock["t"] = 5.0
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow_primary() is True  # the probe
        assert breaker.allow_primary() is False  # everyone else degraded
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow_primary() is True

    def test_half_open_admits_exactly_one_probe_under_concurrency(self):
        # The single-probe guarantee is a check-then-act sequence: a
        # thread hammer catches the unlocked version (several threads
        # observe probe_inflight=False and all claim the probe).
        breaker, clock = self._make(failure_threshold=1, cooldown_s=5.0)
        for _ in range(50):
            breaker.record_failure()
            clock["t"] += 5.0
            admitted = []
            barrier = threading.Barrier(8)

            def contend():
                barrier.wait()
                if breaker.allow_primary():
                    admitted.append(threading.get_ident())

            threads = [threading.Thread(target=contend) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(admitted) == 1  # exactly one probe per half-open
            breaker.record_success()
            assert breaker.state == STATE_CLOSED

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker, clock = self._make(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.allow_primary()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        clock["t"] = 9.0  # cooldown restarted at t=5
        assert breaker.state == STATE_OPEN
        clock["t"] = 10.0
        assert breaker.state == STATE_HALF_OPEN


# ----------------------------------------------------------------------
# Worker pool (real processes)
# ----------------------------------------------------------------------


@pytest.fixture
def pool():
    pool = WorkerPool(workers=1, max_queue=4, hang_timeout_s=5.0,
                      retry_backoff_s=0.01)
    pool.start()
    yield pool
    pool.stop()


class TestWorkerPool:
    def test_runs_a_job_and_returns_metrics(self, pool):
        payload = parse_request("simulate", dict(FAST)).to_payload()
        reply = pool.submit(payload).result(timeout=60)
        assert reply["result"]["completion_time_us"] > 0
        assert reply["metrics"] is not None
        assert pool.stats.completed == 1

    def test_reply_snapshot_series_count_independent_of_fabric(self, pool):
        counts = []
        for nodes in (1, 2):
            body = {**FAST, "nodes": nodes}
            payload = parse_request("simulate", body).to_payload()
            snapshot = pool.submit(payload).result(timeout=120)["metrics"]
            counts.append(
                sum(len(entry["samples"]) for entry in snapshot.values())
            )
        assert counts[0] == counts[1]

    def test_bad_request_surfaces_as_request_error(self, pool):
        payload = ServiceRequest(op="simulate", source="not a program {",
                                 nodes=1, gpus=8).to_payload()
        with pytest.raises(RequestError):
            pool.submit(payload).result(timeout=60)

    def test_worker_exception_carries_traceback(self, pool):
        payload = parse_request(
            "simulate", {"source": "program p { }", "nodes": 1, "gpus": 8}
        ).to_payload()
        payload["op"] = "simulate"
        payload["source"] = None
        payload["algorithm"] = None  # unreachable via parse; forces a crash
        with pytest.raises((JobFailed, RequestError)):
            pool.submit(payload).result(timeout=60)

    def test_admission_control_sheds_load(self, pool):
        slow = parse_request("simulate", dict(SLOW)).to_payload()
        futures = [pool.submit(slow)]
        # Worker takes the first job; then fill the 4-slot queue.
        deadline = time.time() + 10
        while pool.queue_depth() > 0 and time.time() < deadline:
            time.sleep(0.01)
        for _ in range(4):
            futures.append(pool.submit(dict(slow)))
        with pytest.raises(PoolSaturated):
            pool.submit(dict(slow))
        assert pool.stats.admission_rejects == 1
        for future in futures:
            future.cancel()

    def test_expired_deadline_is_cancelled_not_computed(self, pool):
        payload = parse_request("simulate", dict(FAST)).to_payload()
        future = pool.submit(payload, deadline=time.time() - 1.0)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
        assert pool.stats.deadline_expired >= 1

    def test_deadline_mid_compute_kills_the_worker(self):
        pool = WorkerPool(workers=1, max_queue=4, deadline_grace_s=0.05)
        pool.start()
        try:
            payload = parse_request("simulate", dict(SLOW)).to_payload()
            future = pool.submit(payload, deadline=time.time() + 0.3)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            assert pool.stats.deadline_kills == 1
            # The pool healed: the respawned worker still serves.
            fast = parse_request("simulate", dict(FAST)).to_payload()
            assert pool.submit(fast).result(timeout=60)["result"]
        finally:
            pool.stop()

    def test_sigkilled_worker_job_is_retried_and_completes(self):
        """The chaos criterion at pool level: kill mid-request, job lands."""
        pool = WorkerPool(workers=1, max_queue=4, retry_backoff_s=0.01)
        pool.start()
        try:
            payload = parse_request("simulate", dict(SLOW)).to_payload()
            future = pool.submit(payload)
            deadline = time.time() + 10
            while not pool.busy_pids() and time.time() < deadline:
                time.sleep(0.01)
            (pid,) = pool.busy_pids()
            os.kill(pid, signal.SIGKILL)
            reply = future.result(timeout=120)
            assert reply["result"]["completion_time_us"] > 0
            assert pool.stats.retries == 1
            assert pool.stats.restarts >= 1
            assert pid not in pool.worker_pids()
        finally:
            pool.stop()

    def test_extend_deadline_prevents_premature_kill(self):
        """A coalesced waiter with a longer budget must be able to
        stretch the shared job's deadline past the leader's."""
        pool = WorkerPool(workers=1, max_queue=4, deadline_grace_s=0.05)
        pool.start()
        try:
            payload = parse_request("simulate", dict(SLOW)).to_payload()
            future = pool.submit(payload, deadline=time.time() + 0.3)
            pool.extend_deadline(future, time.time() + 120.0)
            reply = future.result(timeout=120)
            assert reply["result"]["completion_time_us"] > 0
            assert pool.stats.deadline_kills == 0
        finally:
            pool.stop()

    def test_second_worker_death_fails_cleanly(self):
        pool = WorkerPool(workers=1, max_queue=4, retry_backoff_s=0.01,
                          max_retries=1)
        pool.start()
        try:
            payload = parse_request("simulate", dict(SLOW)).to_payload()
            future = pool.submit(payload)
            for _ in range(2):  # kill the original and the retry
                deadline = time.time() + 15
                while not pool.busy_pids() and time.time() < deadline:
                    time.sleep(0.01)
                (pid,) = pool.busy_pids()
                os.kill(pid, signal.SIGKILL)
                time.sleep(0.1)
            with pytest.raises(WorkerCrashed):
                future.result(timeout=30)
            assert pool.stats.failed == 1
        finally:
            pool.stop()


class TestWorkerReplySerialization:
    def test_unpicklable_reply_degrades_to_text_error(self):
        """A reply that fails to pickle must degrade to a text error,
        not kill the worker (PicklingError is not a ValueError)."""

        class _Beat:
            value = 0.0

        class _Conn:
            def __init__(self, messages):
                self._messages = list(messages)
                self.sent = []
                self._failed_once = False

            def recv(self):
                if not self._messages:
                    raise EOFError
                return self._messages.pop(0)

            def send(self, msg):
                if not self._failed_once:
                    self._failed_once = True
                    raise pickle.PicklingError("cannot pickle reply")
                self.sent.append(msg)

        payload = parse_request("simulate", dict(FAST)).to_payload()
        conn = _Conn([{"job_id": 7, "payload": payload, "deadline": None},
                      None])
        _worker_main(conn, _Beat(), None, None)
        assert len(conn.sent) == 1
        assert conn.sent[0]["job_id"] == 7
        assert conn.sent[0]["status"] == "error"
        assert "unserializable" in conn.sent[0]["error"]


# ----------------------------------------------------------------------
# Daemon end-to-end (real HTTP)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    daemon = ServiceDaemon(ServiceConfig(
        port=0, workers=2, queue_depth=8, cache_dir=str(cache_dir),
        default_deadline_ms=60_000.0,
    ))
    daemon.start()
    yield daemon
    daemon.stop()


@pytest.fixture
def client(daemon):
    with ServiceClient("127.0.0.1", daemon.port) as client:
        yield client


class TestDaemonHTTP:
    def test_health_and_readiness(self, client):
        health = client.healthz()
        assert health["http_status"] == 200 and health["status"] == "ok"
        assert health["workers_alive"] == 2
        assert client.readyz()["ready"] is True

    def test_simulate_round_trip_and_warm_digest_match(self, client):
        first = client.simulate(**FAST)
        assert first["ok"] and not first["degraded"]
        second = client.simulate(**FAST)
        assert second["result_digest"] == first["result_digest"]
        assert second["result"]["completion_time_us"] == pytest.approx(
            first["result"]["completion_time_us"]
        )

    def test_replies_share_their_keys(self, client):
        # A load generator keeps every reply; each key is stored once.
        first = client.simulate(**FAST)
        second = client.simulate(**FAST)
        for a, b in ((first, second), (first["result"], second["result"])):
            assert list(a) == list(b)
            assert all(x is y for x, y in zip(a, b))

    def test_compile_and_profile_endpoints(self, client):
        compiled = client.compile(**FAST)
        assert compiled["result"]["tb_count"] > 0
        profiled = client.profile(**FAST)
        assert "counters" in profiled["result"]

    def test_bad_request_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("no-such-algorithm")
        assert excinfo.value.status == 400

    def test_unknown_endpoint_and_method(self, daemon, client):
        response, _ = client._request("POST", "/v1/destroy", body={})
        assert response.status == 404
        response, _ = client._request("GET", "/v1/simulate")
        assert response.status == 405

    def test_request_id_echoes_back(self, client):
        reply = client.simulate(request_id="req-42", **FAST)
        assert reply["request_id"] == "req-42"

    def test_deadline_budget_expires_as_504(self, client):
        with pytest.raises(ServiceDeadline):
            client.simulate(deadline_ms=1, **SLOW)

    def test_nan_deadline_is_rejected_not_unbounded(self, client):
        # NaN compares False against everything, so an admitted NaN
        # deadline would run the job with no deadline at all.
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(deadline_ms="nan", **FAST)  # header path
        assert excinfo.value.status == 400
        response, _ = client._request(  # body path (JSON accepts NaN)
            "POST", "/v1/simulate", body={**FAST, "deadline_ms": float("nan")}
        )
        assert response.status == 400

    def test_oversized_cluster_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(**{**FAST, "nodes": 1_000_000_000})
        assert excinfo.value.status == 400
        assert "cap" in str(excinfo.value)

    def test_metrics_exposition(self, client):
        client.simulate(**FAST)
        text = client.metrics()
        assert 'service_requests_total{endpoint="simulate",status="200"}' in text
        assert "service_request_latency_ms_bucket" in text
        assert "service_workers_alive 2" in text
        # Worker-side compile metrics were merged into the daemon registry.
        assert "compile_wall_us" in text or "cache" in text


    def test_metrics_have_no_per_link_or_per_edge_series(self, client):
        client.simulate(**FAST)
        client.simulate(**{**FAST, "nodes": 2})
        lines = [
            line for line in client.metrics().splitlines()
            if line.startswith(("sim_", "net_"))
        ]
        assert 'sim_link_bytes_total{tier="nic"}' in "\n".join(lines)
        for line in lines:
            assert 'link="' not in line and 'edge="' not in line, line


class TestDaemonRobustness:
    def test_concurrent_identical_requests_coalesce(self, daemon):
        body = {**SLOW, "nodes": 5}  # unique key, cold for this test
        replies = []

        def call():
            with ServiceClient("127.0.0.1", daemon.port) as client:
                replies.append(client.simulate(**body))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
            time.sleep(0.05)  # leader first, waiters while it compiles
        for thread in threads:
            thread.join(timeout=120)
        assert len(replies) == 3
        digests = {r["result_digest"] for r in replies}
        assert len(digests) == 1
        coalesced = [r["coalesced"] for r in replies]
        assert coalesced.count(False) == 1 and coalesced.count(True) == 2

    def test_coalesced_waiter_with_longer_deadline_survives(self, tmp_path):
        """A waiter must not inherit the leader's shorter budget: the
        shared job's deadline is extended, the leader alone gets 504."""
        daemon = ServiceDaemon(ServiceConfig(
            port=0, workers=1, queue_depth=8,
            cache_dir=str(tmp_path / "coalesce-cache"),
            default_deadline_ms=120_000.0,
        ))
        daemon.start()
        try:
            # Cold for this daemon: compile plus simulate, about 0.5 s
            # on a 2-vCPU VM.
            body = dict(SLOW)
            outcome = {}

            def leader():
                with ServiceClient("127.0.0.1", daemon.port) as c:
                    try:
                        outcome["leader"] = c.simulate(deadline_ms=600, **body)
                    except ServiceDeadline as exc:
                        outcome["leader"] = exc

            def waiter():
                with ServiceClient("127.0.0.1", daemon.port,
                                   timeout_s=180.0) as c:
                    try:
                        outcome["waiter"] = c.simulate(
                            deadline_ms=115_000, **body
                        )
                    except Exception as exc:  # noqa: BLE001 - recorded
                        outcome["waiter"] = exc

            lt = threading.Thread(target=leader)
            lt.start()
            deadline = time.time() + 10
            while not daemon.pool.busy_pids() and time.time() < deadline:
                time.sleep(0.01)
            assert daemon.pool.busy_pids(), "leader job never went busy"
            wt = threading.Thread(target=waiter)
            wt.start()
            lt.join(timeout=60)
            wt.join(timeout=180)
            reply = outcome["waiter"]
            assert isinstance(reply, dict), f"waiter failed: {reply!r}"
            assert reply["ok"] is True and reply["degraded"] is False
            # The shared job was never killed at the leader's deadline.
            assert daemon.pool.stats.deadline_kills == 0
        finally:
            daemon.stop()

    def test_saturation_sheds_with_429_and_retry_after(self):
        daemon = ServiceDaemon(ServiceConfig(port=0, workers=1, queue_depth=1))
        daemon.start()
        try:
            blockers = []
            # Distinct keys so nothing coalesces: occupy the worker and
            # the single queue slot, then the next request must shed.
            def call(nodes):
                with ServiceClient("127.0.0.1", daemon.port) as client:
                    try:
                        client.simulate(**{**SLOW, "nodes": nodes})
                    except ServiceError:
                        pass

            def wait_until(condition, what):
                deadline = time.time() + 30
                while not condition() and time.time() < deadline:
                    time.sleep(0.005)
                assert condition(), f"{what} never happened"

            filled = (
                (6, lambda: daemon.pool.busy_pids(), "worker went busy"),
                (7, lambda: daemon.pool.queue_depth() == 1, "queue filled"),
            )
            for nodes, condition, what in filled:
                thread = threading.Thread(target=call, args=(nodes,))
                thread.start()
                blockers.append(thread)
                wait_until(condition, what)
            with ServiceClient("127.0.0.1", daemon.port) as client:
                with pytest.raises(ServiceOverloaded) as excinfo:
                    client.simulate(**{**SLOW, "nodes": 8})
            assert excinfo.value.retry_after_s >= 1.0
            text_after = None
            for thread in blockers:
                thread.join(timeout=180)
            with ServiceClient("127.0.0.1", daemon.port) as client:
                text_after = client.metrics()
            assert "service_admission_rejects_total 1" in text_after
        finally:
            daemon.stop()

    def test_breaker_degrades_instead_of_failing(self):
        daemon = ServiceDaemon(ServiceConfig(
            port=0, workers=1, breaker_threshold=1, breaker_cooldown_s=60.0,
        ))
        daemon.start()
        try:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                with pytest.raises(ServiceDeadline):
                    client.simulate(deadline_ms=200, **SLOW)
                # The breaker observes the job's death when the pool
                # reaps it (deadline + grace), shortly after our 504.
                deadline = time.time() + 10
                while (daemon.breaker.state == STATE_CLOSED
                       and time.time() < deadline):
                    time.sleep(0.05)
                assert daemon.breaker.state == STATE_OPEN
                reply = client.simulate(**SLOW)
                assert reply["degraded"] is True
                assert reply["degraded_by_breaker"] is True
                assert "degraded-ring" in reply["result"]["algorithm"]
                assert client.healthz()["breaker"] == "open"
                text = client.metrics()
                assert "service_breaker_state 2" in text
                assert "service_breaker_trips_total 1" in text
        finally:
            daemon.stop()

    def test_post_is_not_resent_when_response_is_lost(self):
        """A delivered POST whose response is lost may already have
        executed; the client must surface the error, not resend it."""
        attempts = []
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(4)
        server.settimeout(5.0)
        port = server.getsockname()[1]

        def serve():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                conn.settimeout(2.0)
                data = b""
                try:
                    while b"\r\n\r\n" not in data:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                    head, _, body = data.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.partition(b":")[2])
                    while len(body) < length:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        body += chunk
                except OSError:
                    pass
                attempts.append(data)
                conn.close()  # full request read, no response: drop it

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", port, timeout_s=5.0) as client:
                with pytest.raises(
                    (ConnectionError, http.client.HTTPException, OSError)
                ):
                    client.simulate(**FAST)
            time.sleep(0.2)  # let a (buggy) second attempt arrive
            assert len(attempts) == 1, "POST was resent after delivery"
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_get_reconnects_transparently(self):
        """GETs are idempotent: a dropped keep-alive connection is
        retried once without surfacing an error."""
        hits = []
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(4)
        server.settimeout(5.0)
        port = server.getsockname()[1]

        def serve():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                hits.append(1)
                if len(hits) == 1:
                    conn.close()  # simulate a dropped idle keep-alive
                    continue
                conn.settimeout(2.0)
                try:
                    data = b""
                    while b"\r\n\r\n" not in data:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                    body = b'{"status": "ok"}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n"
                        b"Connection: close\r\n\r\n%s" % (len(body), body)
                    )
                except OSError:
                    pass
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", port, timeout_s=5.0) as client:
                health = client.healthz()
            assert health["status"] == "ok"
            assert len(hits) == 2
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_sigkill_mid_request_still_serves_every_request(self, tmp_path):
        """The issue's chaos criterion, end to end: SIGKILL a worker
        mid-request on a cold cache; every admitted request completes
        exactly once with a verified (digest-consistent) response."""
        daemon = ServiceDaemon(ServiceConfig(
            port=0, workers=2, queue_depth=16,
            cache_dir=str(tmp_path / "chaos-cache"),
            default_deadline_ms=120_000.0,
        ))
        daemon.start()
        try:
            bodies = [
                {**SLOW, "nodes": 6},
                {**SLOW, "nodes": 7},
                dict(FAST),
                {**FAST, "buffer_mb": 32.0},
            ]
            replies = {}
            errors = []

            def call(index, body):
                with ServiceClient("127.0.0.1", daemon.port,
                                   timeout_s=180.0) as client:
                    try:
                        replies[index] = client.simulate(**body)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        errors.append((index, exc))

            threads = [
                threading.Thread(target=call, args=(i, body))
                for i, body in enumerate(bodies)
            ]
            for thread in threads:
                thread.start()
            deadline = time.time() + 15
            while not daemon.pool.busy_pids() and time.time() < deadline:
                time.sleep(0.01)
            victims = daemon.pool.busy_pids()
            assert victims, "no worker went busy; cannot run the chaos test"
            os.kill(victims[0], signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=240)
            assert not errors, f"requests failed under chaos: {errors}"
            assert len(replies) == len(bodies)  # exactly once, no drops
            for index, body in enumerate(bodies):
                reply = replies[index]
                assert reply["ok"] is True
                assert reply["degraded"] is False
                # Verified response: digest matches a fresh local run.
                local = execute(parse_request("simulate", body).to_payload())
                assert reply["result_digest"] == result_digest(local)
            assert daemon.pool.stats.restarts >= 1
            with ServiceClient("127.0.0.1", daemon.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["workers_alive"] == 2
        finally:
            daemon.stop()
