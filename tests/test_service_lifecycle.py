"""Crash-only service lifecycle: journal, drain, prewarm, failover.

Layered like :mod:`repro.service` itself: the write-ahead journal, the
prewarm manifest, and the lifecycle state machine are unit-tested in
process; the daemon's boot replay / drain / hot restart are exercised
end-to-end over real HTTP; :class:`ServiceClientPool` failover and the
client's 429 pacing run against real daemons and scripted mock sockets.
"""

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.service import (
    STATE_DRAINING,
    STATE_READY,
    JournalBusy,
    JournalEntry,
    LifecycleManager,
    PrewarmManifest,
    RequestJournal,
    ServiceClient,
    ServiceClientPool,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
    parse_request,
)
from repro.service.client import _BACKOFF_BASE_S, _BACKOFF_CAP_S
from repro.service.journal import JOURNAL_VERSION
from repro.service.lifecycle import PREWARM_FILE, RECORDER_FILE

FAST = {"algorithm": "ring-allreduce", "nodes": 1, "gpus": 8,
        "buffer_mb": 16.0, "mbs": 4}


def _fast_payload():
    return parse_request("simulate", dict(FAST)).to_payload()


# ----------------------------------------------------------------------
# RequestJournal
# ----------------------------------------------------------------------


class TestRequestJournal:
    def test_append_complete_recover_round_trip(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.append(JournalEntry(
                entry_id="a", key="k1", op="simulate",
                payload={"x": 1}, deadline_wall=time.time() + 60,
                trace_id="trace-a",
            ))
            journal.append(JournalEntry(
                entry_id="b", key="k2", op="compile", payload={"x": 2},
            ))
            journal.complete("a", 200, digest="deadbeef")
            assert journal.stats.appends == 2
            assert journal.stats.completes == 1
            assert journal.stats.fsyncs == 3

        with RequestJournal(tmp_path) as journal:
            incomplete = journal.recover()
            assert [e.entry_id for e in incomplete] == ["b"]
            assert incomplete[0].op == "compile"
            assert incomplete[0].payload == {"x": 2}
            assert incomplete[0].deadline_wall is None
            # Recovery compacted: only the unmatched begin survives.
            records = journal.records()
            assert len(records) == 1
            assert records[0]["kind"] == "begin"
            assert records[0]["id"] == "b"

    def test_torn_tail_is_tolerated_and_compacted_away(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.append(JournalEntry(
                entry_id="whole", key="k", op="simulate", payload={}
            ))
        # A kill -9 mid-append leaves a truncated trailing line.
        path = tmp_path / "journal.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "kind": "begin", "id": "torn-e')

        with RequestJournal(tmp_path) as journal:
            incomplete = journal.recover()
            assert [e.entry_id for e in incomplete] == ["whole"]
            assert journal.stats.torn_records == 1
            # The torn bytes are gone after compaction.
            assert all(r["id"] == "whole" for r in journal.records())

    def test_unknown_version_records_are_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"v": JOURNAL_VERSION + 1, "kind": "begin",
                        "id": "future", "payload": {}}) + "\n",
            encoding="utf-8",
        )
        with RequestJournal(tmp_path) as journal:
            assert journal.recover() == []

    def test_expired_deadline(self):
        entry = JournalEntry(entry_id="e", key="k", op="simulate",
                             payload={}, deadline_wall=time.time() - 1)
        assert entry.expired()
        entry.deadline_wall = time.time() + 60
        assert not entry.expired()
        entry.deadline_wall = None  # no deadline never expires
        assert not entry.expired()

    def test_second_owner_fails_fast_with_busy(self, tmp_path):
        journal = RequestJournal(tmp_path)
        try:
            with pytest.raises(JournalBusy):
                RequestJournal(tmp_path)
        finally:
            journal.close()
        # Releasing the flock hands the dir to the next owner.
        RequestJournal(tmp_path).close()

    def test_dead_owner_releases_the_dir_live_owner_excludes(self, tmp_path):
        """The lock must be held by the daemon *process*, not by fds its
        forked workers inherit: a live owner in another process excludes
        us, and a SIGKILLed owner releases instantly (a flock here would
        survive in orphaned children and wedge every restart)."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import sys, time\n"
            "from repro.service.journal import RequestJournal\n"
            "journal = RequestJournal(sys.argv[1])\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            __import__("pathlib").Path(repro.__file__).parent.parent
        ) + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, stdout=subprocess.PIPE,
        )
        try:
            assert owner.stdout.readline().strip() == b"locked"
            with pytest.raises(JournalBusy):
                RequestJournal(tmp_path)
        finally:
            owner.kill()
            owner.wait(timeout=30)
        RequestJournal(tmp_path).close()  # died with the owner process

    def test_write_failure_degrades_to_counter_not_exception(self, tmp_path):
        journal = RequestJournal(tmp_path)
        try:
            journal.recover()  # opens the append handle
            journal._fh.close()  # simulate a yanked file handle
            journal.append(JournalEntry(
                entry_id="x", key="k", op="simulate", payload={}
            ))
            assert journal.stats.errors == 1
        finally:
            journal.close()


# ----------------------------------------------------------------------
# PrewarmManifest + LifecycleManager
# ----------------------------------------------------------------------


class TestPrewarmManifest:
    def test_hottest_ranks_by_hits_then_key(self):
        manifest = PrewarmManifest(limit=2)
        manifest.touch("b", {"p": "b"})
        manifest.touch("a", {"p": "a1"})
        manifest.touch("a", {"p": "a2"})  # latest payload wins
        manifest.touch("c", {"p": "c"})
        top = manifest.hottest()
        assert [e["key"] for e in top] == ["a", "b"]  # limit=2, tie by key
        assert top[0] == {"key": "a", "hits": 2, "payload": {"p": "a2"}}

    def test_save_load_round_trip(self, tmp_path):
        manifest = PrewarmManifest(limit=8)
        manifest.touch("hot", {"op": "compile"})
        manifest.save(tmp_path)
        loaded = PrewarmManifest.load(tmp_path)
        assert loaded == [{"key": "hot", "hits": 1,
                           "payload": {"op": "compile"}}]

    def test_load_tolerates_missing_and_corrupt(self, tmp_path):
        assert PrewarmManifest.load(tmp_path) == []
        (tmp_path / PREWARM_FILE).write_text("{not json", encoding="utf-8")
        assert PrewarmManifest.load(tmp_path) == []
        (tmp_path / PREWARM_FILE).write_text(
            json.dumps({"v": 999, "entries": [{"key": "x", "payload": {}}]}),
            encoding="utf-8",
        )
        assert PrewarmManifest.load(tmp_path) == []

    def test_zero_limit_disables_tracking(self):
        manifest = PrewarmManifest(limit=0)
        manifest.touch("k", {})
        assert len(manifest) == 0


class TestLifecycleManager:
    def test_state_machine_order(self):
        lifecycle = LifecycleManager()
        assert not lifecycle.is_ready()
        lifecycle.mark_ready()
        assert lifecycle.state == STATE_READY
        assert lifecycle.time_to_ready_ms is not None
        assert lifecycle.begin_drain() is True
        assert lifecycle.state == STATE_DRAINING
        assert lifecycle.begin_drain() is False  # already draining
        lifecycle.mark_stopped()
        assert lifecycle.begin_drain() is False

    def test_drain_from_booting_unblocks_ready_waiters(self):
        lifecycle = LifecycleManager()
        assert lifecycle.begin_drain() is True
        assert lifecycle.ready_event.is_set()  # stop() must not hang
        assert lifecycle.time_to_ready_ms is None  # never became ready


# ----------------------------------------------------------------------
# Daemon: journal + drain + hot restart (real HTTP)
# ----------------------------------------------------------------------


def _daemon(tmp_path, **overrides):
    config = dict(
        port=0, workers=1, queue_depth=8,
        cache_dir=str(tmp_path / "cache"),
        journal_dir=str(tmp_path / "journal"),
        default_deadline_ms=60_000.0,
    )
    config.update(overrides)
    return ServiceDaemon(ServiceConfig(**config))


def _journal_records(tmp_path):
    path = tmp_path / "journal" / "journal.jsonl"
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()]


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestDaemonJournal:
    def test_request_is_journaled_begin_then_end_with_digest(self, tmp_path):
        daemon = _daemon(tmp_path).start()
        try:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                reply = client.simulate(**FAST)
            # The end mark is written off the event loop; wait it out.
            assert _wait_for(lambda: daemon.journal.stats.completes >= 1)
            records = _journal_records(tmp_path)
            assert [r["kind"] for r in records] == ["begin", "end"]
            begin, end = records
            assert begin["op"] == "simulate"
            assert begin["deadline_wall"] > time.time()
            assert begin["trace_id"] == reply["trace_id"]
            assert end["id"] == begin["id"]
            assert end["status"] == 200
            assert end["digest"] == reply["result_digest"]
        finally:
            daemon.stop()

    def test_two_daemons_on_one_journal_dir_fail_fast(self, tmp_path):
        daemon = _daemon(tmp_path).start()
        try:
            with pytest.raises(JournalBusy):
                _daemon(tmp_path).start()
        finally:
            daemon.stop()

    def test_incomplete_entry_is_replayed_exactly_once(self, tmp_path):
        # A crash after the write-ahead append but before the reply:
        # the journal holds a begin with no end.
        with RequestJournal(tmp_path / "journal") as journal:
            journal.append(JournalEntry(
                entry_id="crashed-1", key="k", op="simulate",
                payload=_fast_payload(),
                deadline_wall=time.time() + 120,
            ))

        daemon = _daemon(tmp_path).start()  # blocks through boot replay
        try:
            assert daemon.lifecycle.replayed == 1
            records = _journal_records(tmp_path)
            ends = [r for r in records if r["kind"] == "end"]
            assert len(ends) == 1 and ends[0]["id"] == "crashed-1"
            assert ends[0]["status"] == 200
            # Digest-verify the replay against a live execution of the
            # same request (content-addressed, so they must agree).
            with ServiceClient("127.0.0.1", daemon.port) as client:
                reply = client.simulate(**FAST)
                assert ends[0]["digest"] == reply["result_digest"]
                report = client.debug_lifecycle()
            assert report["state"] == "ready"
            assert report["journal_replayed"] == 1
            assert report["journal"]["appends"] >= 1
        finally:
            daemon.stop()

        # Exactly once: a second restart finds nothing to replay.
        daemon2 = _daemon(tmp_path).start()
        try:
            assert daemon2.lifecycle.replayed == 0
        finally:
            daemon2.stop()

    def test_expired_entry_is_dropped_not_replayed(self, tmp_path):
        with RequestJournal(tmp_path / "journal") as journal:
            journal.append(JournalEntry(
                entry_id="stale-1", key="k", op="simulate",
                payload=_fast_payload(),
                deadline_wall=time.time() - 5,  # budget already spent
            ))
        daemon = _daemon(tmp_path).start()
        try:
            assert daemon.lifecycle.replayed == 0
            assert daemon.lifecycle.dropped_expired == 1
            ends = [r for r in _journal_records(tmp_path)
                    if r["kind"] == "end"]
            assert ends and ends[0]["status"] == "dropped_expired"
        finally:
            daemon.stop()


class TestDrainAndHotRestart:
    def test_drain_refuses_new_work_but_stays_alive(self, tmp_path):
        daemon = _daemon(tmp_path).start()
        try:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                client.simulate(**FAST)
                assert daemon.drain(grace_ms=5_000) is True
                assert daemon.lifecycle.state == STATE_DRAINING
                # Readiness flips 503 (load balancer: stop sending) ...
                assert client.readyz()["http_status"] == 503
                assert client.readyz()["lifecycle"] == "draining"
                # ... liveness stays green (don't kill a draining pod) ...
                assert client.healthz()["http_status"] == 200
                # ... and new work is refused with a failover hint.
                with pytest.raises(ServiceError) as excinfo:
                    client.simulate(**FAST)
                assert excinfo.value.status == 503
                assert "draining" in str(excinfo.value)
                # The stitched trace names the lifecycle state alone.
                trace = client.request_trace(excinfo.value.payload["trace_id"])
                assert trace["error"] == "not accepting requests: draining"
            # Drain persisted the warm state for the next boot.
            assert (tmp_path / "journal" / PREWARM_FILE).exists()
            assert (tmp_path / "journal" / RECORDER_FILE).exists()
        finally:
            daemon.stop()

    def test_drain_is_idempotent(self, tmp_path):
        daemon = _daemon(tmp_path).start()
        try:
            assert daemon.drain(grace_ms=2_000) is True
            assert daemon.drain(grace_ms=2_000) is True  # reports, no redo
        finally:
            daemon.stop()

    def test_hot_restart_prewarms_hottest_keys(self, tmp_path):
        daemon = _daemon(tmp_path).start()
        try:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                cold = client.simulate(**FAST)
                assert cold["result"]["cache_hit"] is False
                client.simulate(**FAST)
            daemon.drain(grace_ms=5_000)
        finally:
            daemon.stop()
        manifest = PrewarmManifest.load(tmp_path / "journal")
        assert len(manifest) == 1
        assert manifest[0]["hits"] >= 2
        assert manifest[0]["payload"]["op"] == "compile"
        assert "deadline_ms" not in manifest[0]["payload"]

        daemon2 = _daemon(tmp_path).start()  # replays the manifest
        try:
            assert daemon2.lifecycle.prewarmed == 1
            with ServiceClient("127.0.0.1", daemon2.port) as client:
                # First post-restart request hits the prewarmed cache.
                warm = client.simulate(**FAST)
                assert warm["result"]["cache_hit"] is True
                assert warm["result_digest"] == cold["result_digest"]
                report = client.debug_lifecycle()
            assert report["prewarmed"] == 1
            assert report["time_to_ready_ms"] is not None
        finally:
            daemon2.stop()

    def test_lifecycle_metrics_exported(self, tmp_path):
        daemon = _daemon(tmp_path).start()
        try:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                client.simulate(**FAST)
                assert _wait_for(
                    lambda: daemon.journal.stats.completes >= 1
                )
                text = client.metrics()
            assert "service_lifecycle_state 1" in text  # READY
            assert "service_journal_appends_total 1" in text
            assert "service_lifecycle_time_to_ready_ms" in text
            assert "service_open_requests" in text
        finally:
            daemon.stop()


# ----------------------------------------------------------------------
# Scripted mock replicas (raw sockets) for client/pool edge cases
# ----------------------------------------------------------------------


def _read_http_request(conn):
    """Read one HTTP request off a socket; None on clean close."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head, body


def _http_response(status, payload, extra_headers=()):
    body = json.dumps(payload).encode("utf-8")
    lines = [f"HTTP/1.1 {status} X", "Content-Type: application/json",
             f"Content-Length: {len(body)}", "Connection: keep-alive"]
    lines.extend(extra_headers)
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


@contextlib.contextmanager
def _mock_replica(handler):
    """A raw TCP listener; ``handler(conn)`` scripts each connection."""
    srv = socket.socket()
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind(("127.0.0.1", 0))
    srv.listen(16)
    srv.settimeout(0.1)
    port = srv.getsockname()[1]
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = srv.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(10.0)
            try:
                handler(conn, stop)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield port
    finally:
        stop.set()
        thread.join(timeout=5.0)
        srv.close()


def _free_dead_port():
    """A port with nothing listening (connection refused)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ----------------------------------------------------------------------
# ServiceClient: 429 pacing + reconnect backoff (satellite 2)
# ----------------------------------------------------------------------


class TestClientOverloadPacing:
    def test_retry_after_header_is_honored(self):
        hits = []

        def handler(conn, stop):
            while not stop.is_set():
                request = _read_http_request(conn)
                if request is None:
                    return
                hits.append(time.monotonic())
                if len(hits) == 1:
                    # Header only — no retry_after_s in the body, so the
                    # client must take the pacing from the header.
                    conn.sendall(_http_response(
                        429, {"error": "busy"}, ["Retry-After: 0.2"]))
                else:
                    conn.sendall(_http_response(200, {"ok": True}))

        with _mock_replica(handler) as port:
            client = ServiceClient("127.0.0.1", port, overload_retries=1)
            with client:
                reply = client.request("simulate", algorithm="x")
            assert reply["ok"] is True
            assert len(hits) == 2
            assert hits[1] - hits[0] >= 0.2  # slept the hinted pause

    def test_retry_wait_is_capped_by_deadline_budget(self):
        def handler(conn, stop):
            while not stop.is_set():
                if _read_http_request(conn) is None:
                    return
                conn.sendall(_http_response(
                    429, {"error": "busy"}, ["Retry-After: 5"]))

        with _mock_replica(handler) as port:
            client = ServiceClient("127.0.0.1", port, overload_retries=3)
            started = time.monotonic()
            with client, pytest.raises(ServiceOverloaded):
                # Sleeping 5s would blow the 100ms budget: surface the
                # overload immediately instead of burning it asleep.
                client.request("simulate", algorithm="x", deadline_ms=100)
            assert time.monotonic() - started < 1.0

    def test_reconnect_backoff_is_bounded_decorrelated_jitter(
        self, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        client = ServiceClient("127.0.0.1", 1)
        for _ in range(25):
            client._reconnect_pause()
        assert all(
            _BACKOFF_BASE_S <= pause <= _BACKOFF_CAP_S for pause in sleeps
        )
        # The curve actually grows away from the base instead of
        # retrying in lockstep.
        assert max(sleeps) > _BACKOFF_BASE_S
        assert client._backoff_s <= _BACKOFF_CAP_S


# ----------------------------------------------------------------------
# ServiceClientPool: failover, circuits, hedging (tentpole part 3)
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def live_daemon(tmp_path_factory):
    base = tmp_path_factory.mktemp("pool-live")
    daemon = ServiceDaemon(ServiceConfig(
        port=0, workers=1, queue_depth=8, cache_dir=str(base / "cache"),
        default_deadline_ms=60_000.0,
    ))
    daemon.start()
    yield daemon
    daemon.stop()


class TestServiceClientPool:
    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError):
            ServiceClientPool([])

    def test_fails_over_a_dead_replica_with_zero_client_errors(
        self, live_daemon
    ):
        dead = _free_dead_port()
        with ServiceClientPool(
            [("127.0.0.1", dead), ("127.0.0.1", live_daemon.port)],
            failure_threshold=1, cooldown_s=5.0,
        ) as pool:
            for _ in range(4):  # idempotent requests: 0% errors
                reply = pool.simulate(**FAST)
                assert reply["ok"] is True
            assert pool.failovers >= 1
            states = pool.replica_states()
            assert states[0]["circuit"] == "open"  # dead replica benched
            assert states[1]["circuit"] == "closed"
            # Once the circuit is open the dead replica is skipped, so
            # later calls stop paying the connect-refused round trip.
            failovers_before = pool.failovers
            pool.simulate(**FAST)
            assert pool.failovers == failovers_before

    def test_fails_over_a_draining_replica(self, live_daemon, tmp_path):
        draining = _daemon(tmp_path).start()
        try:
            draining.drain(grace_ms=1_000)
            with ServiceClientPool(
                [("127.0.0.1", draining.port),
                 ("127.0.0.1", live_daemon.port)],
            ) as pool:
                reply = pool.simulate(**FAST)
                assert reply["ok"] is True
                assert pool.failovers >= 1
                # GETs fail over too: readiness comes from the live one.
                assert pool.readyz()["http_status"] == 200
        finally:
            draining.stop()

    def test_delivered_post_is_never_failed_over(self):
        """A POST that reached a replica but lost its response must
        surface, not resend: the replica may already have executed it."""
        second_replica_posts = []

        def black_hole(conn, stop):
            # Read the full request, then drop the connection without
            # replying: delivered=True, response lost.
            _read_http_request(conn)

        def counting(conn, stop):
            while not stop.is_set():
                request = _read_http_request(conn)
                if request is None:
                    return
                second_replica_posts.append(request)
                conn.sendall(_http_response(200, {"ok": True}))

        with _mock_replica(black_hole) as p1, _mock_replica(counting) as p2:
            with ServiceClientPool(
                [("127.0.0.1", p1), ("127.0.0.1", p2)]
            ) as pool:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    pool.request("simulate", algorithm="x")
                assert excinfo.value.delivered is True
            assert second_replica_posts == []  # never resent elsewhere

    def test_undelivered_post_fails_over_safely(self, live_daemon):
        """Connection refused = bytes never arrived: resending is safe."""
        dead = _free_dead_port()
        with ServiceClientPool(
            [("127.0.0.1", dead), ("127.0.0.1", live_daemon.port)]
        ) as pool:
            assert pool.simulate(**FAST)["ok"] is True
            assert pool.failovers == 1

    def test_hedged_get_races_a_stalled_replica(self):
        def stalled(conn, stop):
            _read_http_request(conn)
            stop.wait(5.0)  # hold the response hostage

        def prompt(conn, stop):
            while not stop.is_set():
                if _read_http_request(conn) is None:
                    return
                conn.sendall(_http_response(200, {"status": "prompt"}))

        with _mock_replica(stalled) as p1, _mock_replica(prompt) as p2:
            with ServiceClientPool(
                [("127.0.0.1", p1), ("127.0.0.1", p2)],
                timeout_s=10.0, hedge_after_s=0.05,
            ) as pool:
                started = time.monotonic()
                reply = pool.healthz()
                elapsed = time.monotonic() - started
            assert reply["status"] == "prompt"  # the hedge won
            assert pool.hedges == 1
            assert elapsed < 5.0  # did not wait out the stalled replica

    def test_posts_are_never_hedged(self):
        arrivals = {"first": 0, "second": 0}

        def make_handler(name):
            def handler(conn, stop):
                while not stop.is_set():
                    if _read_http_request(conn) is None:
                        return
                    arrivals[name] += 1
                    conn.sendall(_http_response(
                        200, {"ok": True, "replica": name}))
            return handler

        with _mock_replica(make_handler("first")) as p1, \
                _mock_replica(make_handler("second")) as p2:
            with ServiceClientPool(
                [("127.0.0.1", p1), ("127.0.0.1", p2)],
                hedge_after_s=0.0,  # hedge GETs as aggressively as possible
            ) as pool:
                reply = pool.request("simulate", algorithm="x")
            assert reply["replica"] == "first"
        # Even with hedging armed, the POST reached exactly one replica.
        assert arrivals == {"first": 1, "second": 0}

    def test_pool_overload_paces_with_the_smallest_hint(self):
        hits = {"n": 0}

        def overloaded_then_ok(conn, stop):
            while not stop.is_set():
                if _read_http_request(conn) is None:
                    return
                hits["n"] += 1
                if hits["n"] == 1:
                    conn.sendall(_http_response(
                        429, {"error": "busy", "retry_after_s": 0.05},
                        ["Retry-After: 1"]))
                else:
                    conn.sendall(_http_response(200, {"ok": True}))

        with _mock_replica(overloaded_then_ok) as port:
            with ServiceClientPool(
                [("127.0.0.1", port)], overload_retries=1
            ) as pool:
                reply = pool.request("simulate", algorithm="x")
            assert reply["ok"] is True
            assert hits["n"] == 2

    def test_successful_exchange_resets_the_backoff_curve(
        self, live_daemon
    ):
        with ServiceClient("127.0.0.1", live_daemon.port) as client:
            client._backoff_s = _BACKOFF_CAP_S  # as if it just struggled
            client.healthz()
            assert client._backoff_s == _BACKOFF_BASE_S


# ----------------------------------------------------------------------
# Worker lifetime
# ----------------------------------------------------------------------


def _running(pid):
    """Whether ``pid`` is a live process (a zombie awaiting reaping is not)."""
    import os

    try:
        os.kill(pid, 0)  # signal 0: an existence probe, nothing is sent
    except (ProcessLookupError, PermissionError):
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestWorkersDieWithDaemon:
    def test_sigkilled_daemon_leaves_no_workers(self, tmp_path):
        """Workers of a SIGKILLed daemon exit on their own within a few
        heartbeat intervals instead of living on with parent pid 1."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.service.workers import HEARTBEAT_INTERVAL_S

        script = (
            "import sys, time\n"
            "from repro.service import ServiceConfig, ServiceDaemon\n"
            "daemon = ServiceDaemon(ServiceConfig(\n"
            "    port=0, workers=2, cache_dir=sys.argv[1])).start()\n"
            "print(*daemon.pool.worker_pids(), flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        daemon = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE,
        )
        workers = []
        try:
            workers = [int(pid) for pid in daemon.stdout.readline().split()]
            assert len(workers) == 2 and all(map(_running, workers))
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=30)
            # 40 intervals (2 s) leaves room for a loaded machine.
            assert _wait_for(
                lambda: not any(map(_running, workers)),
                timeout_s=40 * HEARTBEAT_INTERVAL_S,
            ), f"orphaned workers still running: {workers}"
        finally:
            daemon.kill()
            daemon.wait(timeout=30)
            daemon.stdout.close()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
