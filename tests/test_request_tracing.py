"""Tests for end-to-end request tracing across the service daemon.

Layered like the feature itself: trace-context propagation, structured
logging, and the thread-safe span tracer are unit-tested in-process;
trace stitching (exact latency partition, cross-process clock
alignment, killed/coalesced shapes) is unit-tested on fabricated
worker replies; then a real daemon proves the whole loop — request →
``trace_id`` → ``/debug/traces/<id>`` → segments that exactly
partition the observed latency, with ``/metrics`` exemplars pointing
at retained traces and every error body carrying correlation ids.
"""

import http.client
import io
import json
import re
import threading
import time

import pytest

from repro.analysis.timeline import REQUEST_PID, request_trace_to_chrome, \
    validate_chrome_trace
from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    TraceContext,
    bound_context,
    context_from_headers,
    context_from_wire,
    current_context,
    get_logger,
    new_trace_id,
)
from repro.obs.context import PARENT_SPAN_HEADER, TRACE_ID_HEADER, \
    valid_trace_id
from repro.obs.log import LogRing, configure, log_ring
from repro.service import (
    FlightRecorder,
    RequestTrace,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceDeadline,
    ServiceError,
    ServiceOverloaded,
    render_trace,
)

SLOW = {"algorithm": "mesh-allreduce", "nodes": 6, "gpus": 8,
        "buffer_mb": 16.0, "mbs": 8}
FAST = {"algorithm": "ring-allreduce", "nodes": 1, "gpus": 8,
        "buffer_mb": 16.0, "mbs": 4}


# ----------------------------------------------------------------------
# Trace context propagation
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext(new_trace_id(), parent_span_id="ab" * 8)
        headers = {k.lower(): v for k, v in context.to_headers().items()}
        back = context_from_headers(headers)
        assert back.trace_id == context.trace_id
        assert back.parent_span_id == context.parent_span_id

    def test_no_header_means_no_context(self):
        assert context_from_headers({}) is None

    def test_malformed_trace_id_is_replaced_not_rejected(self):
        # Tracing is diagnostics: a hostile/garbled header must never
        # fail the request, and must never reach the logs verbatim.
        for bad in ("ZZZ", "x" * 200, "short", "deadbeef!!"):
            context = context_from_headers({TRACE_ID_HEADER.lower(): bad})
            assert valid_trace_id(context.trace_id)
            assert context.trace_id != bad

    def test_malformed_parent_span_is_dropped(self):
        context = context_from_headers({
            TRACE_ID_HEADER.lower(): new_trace_id(),
            PARENT_SPAN_HEADER.lower(): "not hex",
        })
        assert context.parent_span_id is None

    def test_wire_round_trip_and_tolerance(self):
        context = TraceContext(new_trace_id(), sampled=False)
        back = context_from_wire(context.to_wire())
        assert back.trace_id == context.trace_id
        assert back.sampled is False
        assert context_from_wire(None) is None
        assert context_from_wire({"trace_id": "!!"}) is None

    def test_ambient_context_nests_and_restores(self):
        outer = TraceContext(new_trace_id())
        inner = TraceContext(new_trace_id())
        assert current_context() is None
        with bound_context(outer):
            assert current_context() is outer
            with bound_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------


class TestStructuredLog:
    def test_ring_is_bounded_and_filters_by_trace(self):
        ring = LogRing(capacity=4)
        for index in range(8):
            ring.append({"event": f"e{index}", "trace_id": str(index % 2)})
        assert len(ring) == 4
        events = [r["event"] for r in ring.tail()]
        assert events == ["e4", "e5", "e6", "e7"]  # oldest first
        assert all(r["trace_id"] == "1" for r in ring.tail(trace_id="1"))

    def test_logger_picks_up_ambient_trace_id(self):
        log_ring().clear()
        logger = get_logger("test-component")
        context = TraceContext(new_trace_id())
        with bound_context(context):
            record = logger.info("correlated", detail=7)
        plain = logger.info("uncorrelated")
        assert record["trace_id"] == context.trace_id
        assert record["component"] == "test-component"
        assert record["detail"] == 7
        assert "trace_id" not in plain
        tail = log_ring().tail(trace_id=context.trace_id)
        assert [r["event"] for r in tail] == ["correlated"]

    def test_stream_sink_emits_parseable_json_lines(self):
        stream = io.StringIO()
        configure(stream=stream)
        try:
            get_logger("sink").info("hello", answer=42)
        finally:
            configure(stream=None)
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "hello" and record["answer"] == 42

    def test_unserializable_fields_never_raise(self):
        stream = io.StringIO()
        configure(stream=stream)
        try:
            get_logger("sink").info("odd", obj=object())
        finally:
            configure(stream=None)
        assert json.loads(stream.getvalue().strip())["event"] == "odd"


# ----------------------------------------------------------------------
# Thread-safe span tracer
# ----------------------------------------------------------------------


class TestThreadedSpanTracer:
    def test_threads_keep_independent_stacks(self):
        """Spans opened by one thread must never nest under an
        unrelated span another thread happens to have open."""
        tracer = SpanTracer()
        barrier = threading.Barrier(3)

        def work(name):
            with tracer.span(name):
                barrier.wait()  # all three roots open simultaneously
                with tracer.span(f"{name}-child"):
                    time.sleep(0.005)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(r.name for r in tracer.roots) == ["t0", "t1", "t2"]
        for root in tracer.roots:
            assert [c.name for c in root.children] == [f"{root.name}-child"]

    def test_epoch_wall_anchors_monotonic_epoch(self):
        before = time.time()
        tracer = SpanTracer()
        assert before <= tracer.epoch_wall <= time.time()


# ----------------------------------------------------------------------
# Metrics: source watermarks + exemplars
# ----------------------------------------------------------------------


def _counter_snapshot(value):
    return {"jobs_total": {"type": "counter", "help": "",
                           "samples": [{"labels": {}, "value": value}]}}


def _counter_value(registry, name, **labels):
    for sample in registry.to_json()[name]["samples"]:
        if sample["labels"] == labels:
            return sample["value"]
    return None


class TestMergeWatermarks:
    def test_cumulative_snapshots_never_double_count(self):
        registry = MetricsRegistry()
        registry.merge_json(_counter_snapshot(5), source="worker-0")
        registry.merge_json(_counter_snapshot(5), source="worker-0")
        assert _counter_value(registry, "jobs_total") == 5
        registry.merge_json(_counter_snapshot(7), source="worker-0")
        assert _counter_value(registry, "jobs_total") == 7

    def test_watermarks_are_per_source(self):
        registry = MetricsRegistry()
        registry.merge_json(_counter_snapshot(5), source="worker-0")
        registry.merge_json(_counter_snapshot(5), source="worker-1")
        assert _counter_value(registry, "jobs_total") == 10

    def test_counter_reset_flags_worker_restart(self):
        """A counter falling below its watermark means the worker
        process was respawned with a fresh registry: merge the full new
        value (monotonic totals) and count one detected restart."""
        registry = MetricsRegistry()
        registry.merge_json(_counter_snapshot(5), source="worker-0")
        registry.merge_json(_counter_snapshot(2), source="worker-0")
        assert _counter_value(registry, "jobs_total") == 7
        assert _counter_value(
            registry, "service_worker_restarts_total",
            source="worker-0", detected="counter-reset",
        ) == 1
        # The next snapshot resumes delta merging from the new watermark.
        registry.merge_json(_counter_snapshot(3), source="worker-0")
        assert _counter_value(registry, "jobs_total") == 8

    def test_histogram_reset_detection(self):
        def snap(count, total, bucket_counts):
            return {"lat": {
                "type": "histogram", "help": "", "buckets": [1.0, 2.0],
                "samples": [{"labels": {}, "count": count, "sum": total,
                             "min": 0.5, "max": 2.5,
                             "bucket_counts": list(bucket_counts)}],
            }}

        registry = MetricsRegistry()
        registry.merge_json(snap(3, 4.0, [1, 1, 1]), source="worker-0")
        registry.merge_json(snap(3, 4.0, [1, 1, 1]), source="worker-0")
        series = registry.get("lat").series[()]
        assert series.count == 3 and series.bucket_counts == [1, 1, 1]
        # Reset: the respawned worker reports a smaller registry.
        registry.merge_json(snap(1, 0.5, [1, 0, 0]), source="worker-0")
        series = registry.get("lat").series[()]
        assert series.count == 4 and series.bucket_counts == [2, 1, 1]
        assert _counter_value(
            registry, "service_worker_restarts_total",
            source="worker-0", detected="counter-reset",
        ) == 1

    def test_sourceless_merge_is_plain_addition(self):
        registry = MetricsRegistry()
        registry.merge_json(_counter_snapshot(5))
        registry.merge_json(_counter_snapshot(5))
        assert _counter_value(registry, "jobs_total") == 10


class TestExemplars:
    def test_exemplar_renders_on_its_bucket_only(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 3.0, exemplar={"trace_id": "ab12cd34"},
                         endpoint="simulate")
        registry.observe("lat_ms", 3.5, endpoint="simulate")
        text = registry.to_prometheus()
        tagged = [l for l in text.splitlines() if "# {" in l]
        assert len(tagged) == 1
        assert '# {trace_id="ab12cd34"} 3' in tagged[0]
        assert "_bucket" in tagged[0]

    def test_no_exemplar_means_byte_identical_buckets(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 3.0)
        for line in registry.to_prometheus().splitlines():
            if "_bucket" in line:
                assert " # " not in line

    def test_exemplars_survive_json_round_trip(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 3.0, exemplar={"trace_id": "ab12cd34"})
        merged = MetricsRegistry()
        merged.merge_json(json.loads(json.dumps(registry.to_json())))
        assert '# {trace_id="ab12cd34"}' in merged.to_prometheus()


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


def _trace(trace_id, status=200, total_us=1000.0):
    return {"trace_id": trace_id, "request_id": trace_id, "op": "simulate",
            "status": status, "total_us": total_us, "coalesced": False,
            "error": None if status == 200 else "boom", "spans": []}


class TestFlightRecorder:
    def test_keeps_the_slowest_successes(self):
        recorder = FlightRecorder(slow_capacity=2, error_capacity=2)
        assert recorder.record(_trace("a", total_us=10))
        assert recorder.record(_trace("b", total_us=30))
        assert recorder.record(_trace("c", total_us=20))  # evicts "a"
        assert not recorder.record(_trace("d", total_us=5))  # too fast
        assert recorder.get("a") is None and recorder.get("d") is None
        assert recorder.get("b") and recorder.get("c")
        assert recorder.recorded == 3 and recorder.evicted == 1

    def test_errors_are_fifo_newest_win(self):
        recorder = FlightRecorder(slow_capacity=2, error_capacity=2)
        for trace_id in ("e1", "e2", "e3"):
            assert recorder.record(_trace(trace_id, status=500))
        assert recorder.get("e1") is None
        assert recorder.get("e2") and recorder.get("e3")

    def test_summaries_order_and_shape(self):
        recorder = FlightRecorder(slow_capacity=4, error_capacity=4)
        recorder.record(_trace("s1", total_us=10))
        recorder.record(_trace("s2", total_us=99))
        recorder.record(_trace("e1", status=504))
        recorder.record(_trace("e2", status=429))
        summaries = recorder.summaries()
        assert [s["trace_id"] for s in summaries] == ["e2", "e1", "s2", "s1"]
        assert summaries[0]["retained_as"] == "error"
        assert summaries[2]["retained_as"] == "slow"

    def test_duplicate_ids_never_clobber(self):
        recorder = FlightRecorder()
        assert recorder.record(_trace("x", total_us=10))
        assert not recorder.record(_trace("x", total_us=99))
        assert recorder.get("x")["total_us"] == 10

    def test_log_tail_is_snapshotted(self):
        recorder = FlightRecorder()
        recorder.record(_trace("x"), logs=[{"event": "request-finished"}])
        assert recorder.get("x")["logs"] == [{"event": "request-finished"}]


# ----------------------------------------------------------------------
# Trace stitching (fabricated worker replies)
# ----------------------------------------------------------------------


def _assert_exact_partition(stitched):
    """Top-level segments must tile [0, total_us] with no gap/overlap."""
    segments = stitched["spans"]
    assert segments, "stitched trace has no segments"
    cursor = 0.0
    for segment in segments:
        assert segment["start_us"] == pytest.approx(cursor, abs=0.5)
        assert segment["duration_us"] >= 0.0
        cursor = segment["start_us"] + segment["duration_us"]
    assert cursor == pytest.approx(stitched["total_us"], abs=0.5)


def _inside(child, start_us, end_us):
    assert child["start_us"] >= start_us - 1e-6
    assert child["start_us"] + child["duration_us"] <= end_us + 1e-6
    for grandchild in child["children"]:
        _inside(grandchild, child["start_us"],
                child["start_us"] + child["duration_us"])


class TestRequestTraceStitch:
    def test_leader_success_partitions_exactly(self):
        trace = RequestTrace(new_trace_id(), "simulate")
        trace.annotate(endpoint="simulate")
        time.sleep(0.002)
        trace.mark_submitted()
        started = trace.t0_wall + 0.004
        ended = trace.t0_wall + 0.008
        time.sleep(0.008)
        trace.mark_reply({
            "started_wall": started, "ended_wall": ended, "worker": 1,
            "epoch_wall": started,
            "spans": [{"name": "plan", "start_us": 100.0,
                       "duration_us": 2000.0, "attrs": {}, "counters": {},
                       "children": []}],
        })
        stitched = trace.stitch(200)
        names = [s["name"] for s in stitched["spans"]]
        assert names == ["admission", "queue", "worker-compute", "serialize"]
        _assert_exact_partition(stitched)
        compute = stitched["spans"][2]
        assert compute["attrs"]["worker"] == "1"
        (child,) = compute["children"]
        # Aligned into request time: epoch_wall == started, so the span
        # starts 100us after the worker-compute segment opens.
        expected = (started - trace.t0_wall) * 1e6 + 100.0
        assert child["start_us"] == pytest.approx(expected, abs=0.5)
        _inside(child, compute["start_us"],
                compute["start_us"] + compute["duration_us"])

    def test_clock_skew_is_clamped_inside_parent_bounds(self):
        """A worker clock running ahead must not push child spans
        outside the worker-compute segment the daemon observed."""
        trace = RequestTrace(new_trace_id(), "simulate")
        trace.mark_submitted()
        started = trace.t0_wall + 0.001
        ended = trace.t0_wall + 0.002
        time.sleep(0.004)
        trace.mark_reply({
            "started_wall": started, "ended_wall": ended, "worker": 0,
            "epoch_wall": started + 5.0,  # 5s of (pathological) skew
            "spans": [{"name": "plan", "start_us": 0.0,
                       "duration_us": 9e6, "attrs": {}, "counters": {},
                       "children": [{"name": "compile", "start_us": 1.0,
                                     "duration_us": 8e6, "attrs": {},
                                     "counters": {}, "children": []}]}],
        })
        stitched = trace.stitch(200)
        _assert_exact_partition(stitched)
        compute = next(
            s for s in stitched["spans"] if s["name"] == "worker-compute"
        )
        for child in compute["children"]:
            _inside(child, compute["start_us"],
                    compute["start_us"] + compute["duration_us"])

    def test_killed_job_ends_in_killed_segment(self):
        trace = RequestTrace(new_trace_id(), "simulate")
        trace.mark_submitted()
        time.sleep(0.002)
        trace.mark_error("deadline (5 ms) expired")
        stitched = trace.stitch(504)
        names = [s["name"] for s in stitched["spans"]]
        assert names == ["admission", "queue", "killed", "serialize"]
        killed = stitched["spans"][2]
        assert killed["attrs"]["error"].startswith("deadline")
        assert killed["duration_us"] > 0
        _assert_exact_partition(stitched)
        assert stitched["error"] == "deadline (5 ms) expired"

    def test_waiter_references_leader_instead_of_duplicating(self):
        leader_id = new_trace_id()
        trace = RequestTrace(new_trace_id(), "simulate")
        time.sleep(0.001)
        trace.mark_attached(leader_id)
        time.sleep(0.002)
        trace.mark_reply(None)
        stitched = trace.stitch(200)
        names = [s["name"] for s in stitched["spans"]]
        assert names == ["admission", "coalesce-wait", "serialize"]
        assert stitched["coalesced"] is True
        assert stitched["leader_trace_id"] == leader_id
        wait = stitched["spans"][1]
        assert wait["attrs"]["leader_trace_id"] == leader_id
        assert not wait["children"]  # exactly-once: spans live with leader
        _assert_exact_partition(stitched)

    def test_shed_request_never_reaches_the_pool(self):
        trace = RequestTrace(new_trace_id(), "simulate")
        trace.mark_error("shed: request queue full")
        stitched = trace.stitch(429)
        names = [s["name"] for s in stitched["spans"]]
        assert names == ["admission", "killed", "serialize"]
        _assert_exact_partition(stitched)

    def test_render_is_humane(self):
        trace = RequestTrace(new_trace_id(), "compile")
        trace.request_id = "req-1"
        trace.mark_reply(None)
        text = render_trace(trace.stitch(200))
        assert trace.trace_id in text and "request_id=req-1" in text
        assert "admission" in text


class TestPerfettoExport:
    def test_request_trace_exports_to_lane_9993(self):
        trace = RequestTrace(new_trace_id(), "simulate")
        trace.mark_submitted()
        time.sleep(0.002)
        trace.mark_reply({"started_wall": trace.t0_wall + 0.001,
                          "ended_wall": trace.t0_wall + 0.0015,
                          "worker": 0})
        chrome = request_trace_to_chrome(trace.stitch(200))
        validate_chrome_trace(chrome)
        slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert slices and all(e["pid"] == REQUEST_PID for e in slices)
        assert chrome["otherData"]["trace_id"] == trace.trace_id


# ----------------------------------------------------------------------
# Trace sampling
# ----------------------------------------------------------------------


class TestTraceSampling:
    def _daemon(self, rate):
        return ServiceDaemon(ServiceConfig(trace_sample=rate))

    def test_always_and_never(self):
        assert all(self._daemon(1.0)._sample_trace() for _ in range(8))
        assert not any(self._daemon(0.0)._sample_trace() for _ in range(8))

    def test_every_nth_is_deterministic_and_uniform(self):
        daemon = self._daemon(1 / 16)
        samples = [daemon._sample_trace() for _ in range(64)]
        assert sum(samples) == 4
        assert samples[0] is True  # the first request is always traced
        assert all(samples[i] for i in (0, 16, 32, 48))


# ----------------------------------------------------------------------
# Daemon end-to-end (real HTTP)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("tracing-cache")
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


class TestDaemonTracing:
    def test_request_is_fully_reconstructable_post_hoc(self, client):
        reply = client.simulate(**FAST)
        trace = client.request_trace(reply["trace_id"])
        assert trace["trace_id"] == reply["trace_id"]
        assert trace["request_id"] == reply["request_id"]
        assert trace["op"] == "simulate" and trace["status"] == 200
        names = [s["name"] for s in trace["spans"]]
        assert names == ["admission", "queue", "worker-compute", "serialize"]
        _assert_exact_partition(trace)
        compute = trace["spans"][2]
        assert compute["children"], "worker spans were not stitched in"
        worker_names = {c["name"] for c in compute["children"]}
        assert "plan" in worker_names or "simulate" in worker_names
        for child in compute["children"]:
            _inside(child, compute["start_us"],
                    compute["start_us"] + compute["duration_us"])
        assert compute["attrs"]["worker"] in ("0", "1")
        # The admission segment carries the request-level attributes.
        assert trace["spans"][0]["attrs"]["endpoint"] == "simulate"
        assert trace["spans"][0]["attrs"]["breaker"] == "closed"

    def test_trace_carries_correlated_log_tail(self, client):
        trace_id = new_trace_id()
        client.simulate(trace_id=trace_id, **FAST)
        trace = client.request_trace(trace_id)
        logs = trace["logs"]
        assert logs and all(r["trace_id"] == trace_id for r in logs)
        assert any(r["event"] == "request-finished" for r in logs)

    def test_client_trace_id_round_trips(self, client):
        trace_id = "ab" * 16
        reply = client.simulate(trace_id=trace_id, **FAST)
        assert reply["trace_id"] == trace_id
        assert client.request_trace(trace_id)["trace_id"] == trace_id

    def test_malformed_client_trace_id_is_replaced(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=60)
        try:
            conn.request("POST", "/v1/simulate", body=json.dumps(FAST),
                         headers={TRACE_ID_HEADER: "Not A Trace!"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200
        assert valid_trace_id(payload["trace_id"])

    def test_error_bodies_carry_correlation_ids(self, client, daemon):
        # 400: parse failure — request_id falls back to the trace id.
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("no-such-algorithm")
        payload = excinfo.value.payload
        assert payload["trace_id"] and valid_trace_id(payload["trace_id"])
        assert payload["request_id"] == payload["trace_id"]
        trace = client.request_trace(payload["trace_id"])
        assert (trace["status"], trace["error"]) == (400, payload["error"])
        # 400: body that is not JSON at all.
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/simulate", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert raw["request_id"] and raw["trace_id"]

    def test_deadline_kill_trace_ends_in_killed_span(self, client):
        with pytest.raises(ServiceDeadline) as excinfo:
            client.simulate(deadline_ms=1, **SLOW)
        payload = excinfo.value.payload
        trace = client.request_trace(payload["trace_id"])
        assert trace["status"] == 504
        names = [s["name"] for s in trace["spans"]]
        assert "killed" in names
        killed = next(s for s in trace["spans"] if s["name"] == "killed")
        assert "deadline" in killed["attrs"]["error"]
        assert names[-1] == "serialize"  # response build closes the trace
        _assert_exact_partition(trace)

    def test_shed_429_body_and_trace(self, tmp_path):
        daemon = ServiceDaemon(ServiceConfig(port=0, workers=1,
                                             queue_depth=0))
        daemon.start()
        try:
            with ServiceClient("127.0.0.1", daemon.port) as shed_client:
                with pytest.raises(ServiceOverloaded) as excinfo:
                    shed_client.simulate(**FAST)
                payload = excinfo.value.payload
                assert payload["request_id"] and payload["trace_id"]
                trace = shed_client.request_trace(payload["trace_id"])
            assert trace["status"] == 429
            assert [s["name"] for s in trace["spans"]] == [
                "admission", "killed", "serialize"
            ]
            assert "shed" in trace["error"]
        finally:
            daemon.stop()

    def test_coalesced_requests_account_spans_exactly_once(self, daemon):
        body = {**SLOW, "nodes": 4}  # cold fingerprint for this daemon
        replies = []
        lock = threading.Lock()

        def call():
            with ServiceClient("127.0.0.1", daemon.port,
                               timeout_s=180.0) as c:
                reply = c.simulate(**body)
                with lock:
                    replies.append(reply)

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
            time.sleep(0.05)  # leader first, waiters while it compiles
        for thread in threads:
            thread.join(timeout=180)
        assert len(replies) == 3
        leaders = [r for r in replies if not r["coalesced"]]
        waiters = [r for r in replies if r["coalesced"]]
        assert len(leaders) == 1 and len(waiters) == 2
        with ServiceClient("127.0.0.1", daemon.port) as c:
            traces = {
                r["trace_id"]: c.request_trace(r["trace_id"])
                for r in replies
            }
        leader_trace = traces[leaders[0]["trace_id"]]
        compute_owners = [
            t for t in traces.values()
            if any(s["name"] == "worker-compute" and s["children"]
                   for s in t["spans"])
        ]
        # Exactly one trace owns the shared worker spans...
        assert compute_owners == [leader_trace]
        # ...and every waiter references it instead of duplicating it.
        for waiter in waiters:
            trace = traces[waiter["trace_id"]]
            assert trace["coalesced"] is True
            assert trace["leader_trace_id"] == leader_trace["trace_id"]
            wait = next(
                s for s in trace["spans"] if s["name"] == "coalesce-wait"
            )
            assert wait["attrs"]["leader_trace_id"] == \
                leader_trace["trace_id"]
            _assert_exact_partition(trace)

    def test_debug_requests_index(self, client):
        client.simulate(**FAST)
        index = client.debug_requests()
        assert index["retained"] >= 1
        assert index["recorded"] >= index["retained"]
        assert index["trace_sample"] == 1.0
        entry = index["requests"][0]
        assert {"trace_id", "op", "status", "total_us",
                "retained_as"} <= set(entry)
        assert client.request_trace(entry["trace_id"])

    def test_unknown_trace_is_an_explained_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request_trace("deadbeefdeadbeef")
        assert excinfo.value.status == 404
        assert "deadbeef" in str(excinfo.value)

    def test_metrics_exemplars_resolve_to_retained_traces(self, client):
        client.simulate(**FAST)
        text = client.metrics()
        exemplar_ids = set(re.findall(
            r'# \{trace_id="([0-9a-f]+)"\}', text
        ))
        assert exemplar_ids, "no exemplars in /metrics after traffic"
        resolved = 0
        for trace_id in exemplar_ids:
            try:
                assert client.request_trace(trace_id)["trace_id"] == trace_id
                resolved += 1
            except ServiceError:
                pass  # an exemplar may outlive its evicted trace
        assert resolved >= 1

    def test_cli_trace_request_end_to_end(self, daemon, client, tmp_path,
                                          capsys):
        reply = client.simulate(**FAST)
        out = tmp_path / "request-trace.json"
        code = main([
            "trace-request", reply["trace_id"],
            "--port", str(daemon.port), "--output", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert reply["trace_id"] in printed and "worker-compute" in printed
        chrome = json.loads(out.read_text())
        validate_chrome_trace(chrome)
        slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert slices and all(e["pid"] == REQUEST_PID for e in slices)
        assert main([
            "trace-request", "deadbeefdeadbeef", "--port", str(daemon.port),
        ]) == 1
