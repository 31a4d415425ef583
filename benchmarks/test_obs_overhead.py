"""Overhead benchmarks for request tracing and simulator metrics.

**Tracing.**  Boots the same daemon three times over one pre-warmed
plan cache — tracing **off** (``trace_sample=0``), **sampled** (every
16th request), and **always-on** (every request) — and drives each with
the same multi-threaded warm closed loop the service load benchmark
uses, recording sustained req/s and p50/p99 latency per mode.  The bar:
always-on tracing (span trees in every worker, stitching and
flight-recorder offers on every request) must cost **at most 5% of warm
throughput** versus tracing off.  Service workers always arm a metrics
registry, so both arms of this comparison pay for metrics.

**Metrics.**  Runs an in-process ``Simulator(plan).run()`` of
mesh-allreduce at 2x8 and 8x8 (64 MB) — the simulator itself, never a
report-tier hit — with and without an armed registry (``collecting()``),
best of ``METRICS_ROUNDS`` each.  The bar: the armed run is **within 5%**
of the unarmed one at both scales, and it publishes the same number of
series at both scales.

Both write into ``BENCH_obs_overhead.json`` at the repo root for CI
diffing (the metrics arm under its ``metrics`` key).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from conftest import once  # noqa: F401 - pytest fixture re-export

from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.obs import collecting
from repro.runtime import MB, Simulator
from repro.service import ServiceClient, ServiceConfig, ServiceDaemon
from repro.topology import Cluster

OUT = Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"

WORKERS = 2
CLIENT_THREADS = 4
WARM_SECONDS = 2.5
WARMUP_REQUESTS = 4  # per daemon, before the timed window

#: Warm-loop bodies — cheap distinct keys so the measurement is
#: dominated by the service path, not a single cold compile.
BODIES = [
    {"algorithm": "ring-allreduce", "nodes": 1, "gpus": 8,
     "buffer_mb": 16.0, "mbs": 4},
    {"algorithm": "ring-allgather", "nodes": 1, "gpus": 8,
     "buffer_mb": 16.0, "mbs": 4},
    {"algorithm": "tree-allreduce", "nodes": 1, "gpus": 8,
     "buffer_mb": 16.0, "mbs": 4},
]

MODES = [
    ("off", 0.0),
    ("sampled_1_16", 1.0 / 16.0),
    ("always_on", 1.0),
]

#: Metrics arm: (nodes, gpus) scales of mesh-allreduce at 64 MB.
METRICS_SCALES = [(2, 8), (8, 8)]
METRICS_BUFFER_MB = 64
METRICS_ROUNDS = 5


def _update_out(**sections):
    """Merge top-level sections into BENCH_obs_overhead.json."""
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.update(sections)
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _drive(port, failures):
    """Warm closed loop; returns per-request latencies (ms) + wall (s)."""
    latencies = []
    lock = threading.Lock()
    stop_at = time.perf_counter() + WARM_SECONDS

    def closed_loop(offset):
        with ServiceClient("127.0.0.1", port, timeout_s=120.0) as client:
            index = offset
            while time.perf_counter() < stop_at:
                body = BODIES[index % len(BODIES)]
                index += 1
                t0 = time.perf_counter()
                try:
                    reply = client.simulate(**body)
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(f"request failed: {exc!r}")
                    return
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                if not reply.get("ok"):
                    failures.append(f"bad reply: {reply}")
                with lock:
                    latencies.append(elapsed_ms)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=closed_loop, args=(i,))
        for i in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    return latencies, time.perf_counter() - start


def _run_modes(cache_dir):
    failures = []
    results = {}
    for mode, rate in MODES:
        daemon = ServiceDaemon(ServiceConfig(
            port=0, workers=WORKERS, queue_depth=64,
            cache_dir=str(cache_dir), default_deadline_ms=120_000.0,
            trace_sample=rate,
        ))
        daemon.start()
        try:
            with ServiceClient("127.0.0.1", daemon.port,
                               timeout_s=300.0) as client:
                for index in range(WARMUP_REQUESTS):
                    client.simulate(**BODIES[index % len(BODIES)])
            latencies, wall_s = _drive(daemon.port, failures)
            retained = len(daemon.recorder)
        finally:
            daemon.stop()
        ordered = sorted(latencies)
        results[mode] = {
            "trace_sample": rate,
            "requests": len(ordered),
            "wall_s": round(wall_s, 3),
            "req_per_s": round(len(ordered) / wall_s, 2) if wall_s else 0.0,
            "p50_ms": round(_percentile(ordered, 0.50), 3),
            "p99_ms": round(_percentile(ordered, 0.99), 3),
            "retained_traces": retained,
        }
    return {"modes": results, "failures": failures,
            "workers": WORKERS, "client_threads": CLIENT_THREADS}


def test_obs_overhead(tmp_path, once):
    data = once(_run_modes, tmp_path / "plan-cache")

    print("\ntracing overhead (warm closed loop):")
    for mode, summary in data["modes"].items():
        print(
            f"  {mode:>12}: {summary['requests']} requests, "
            f"{summary['req_per_s']} req/s, p50 {summary['p50_ms']} ms, "
            f"p99 {summary['p99_ms']} ms, "
            f"{summary['retained_traces']} retained"
        )
    off = data["modes"]["off"]
    always = data["modes"]["always_on"]
    overhead = 1.0 - (always["req_per_s"] / off["req_per_s"]
                      if off["req_per_s"] else 0.0)
    data["always_on_overhead_frac"] = round(overhead, 4)
    print(f"  always-on overhead: {overhead:.1%} of off-mode throughput")

    _update_out(**data)
    print(f"wrote {OUT}")

    assert not data["failures"], data["failures"]
    for summary in data["modes"].values():
        assert summary["requests"] > 0
    # Tracing off must retain nothing; always-on must retain traces.
    assert data["modes"]["off"]["retained_traces"] == 0
    assert always["retained_traces"] > 0
    # The acceptance bar: always-on tracing costs <= 5% throughput.
    assert always["req_per_s"] >= 0.95 * off["req_per_s"], (
        f"always-on tracing cost {overhead:.1%} "
        f"({always['req_per_s']} vs {off['req_per_s']} req/s)"
    )


def _series_count(registry):
    return sum(len(entry["samples"]) for entry in registry.to_json().values())


def _run_metrics_arm():
    scales = {}
    for nodes, gpus in METRICS_SCALES:
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        plan = ResCCLBackend().plan(
            cluster, build_algorithm("mesh-allreduce", cluster),
            METRICS_BUFFER_MB * MB,
        )
        off, on = [], []
        for _ in range(METRICS_ROUNDS):
            # Alternate the arms so machine drift hits both alike.  The
            # simulator runs directly: simulate() would answer every
            # repeat of this keyed plan from the report tier.
            start = time.perf_counter()
            unarmed = Simulator(plan).run()
            off.append(time.perf_counter() - start)
            with collecting() as registry:
                start = time.perf_counter()
                armed = Simulator(plan).run()
                on.append(time.perf_counter() - start)
            assert armed.completion_time_us == unarmed.completion_time_us
        scales[f"{nodes}x{gpus}"] = {
            "off_ms": round(min(off) * 1e3, 2),
            "on_ms": round(min(on) * 1e3, 2),
            "overhead_frac": round(min(on) / min(off) - 1.0, 4),
            "series": _series_count(registry),
        }
    return {"algorithm": "mesh-allreduce", "buffer_mb": METRICS_BUFFER_MB,
            "rounds": METRICS_ROUNDS, "scales": scales}


def test_metrics_overhead(once):
    data = once(_run_metrics_arm)

    print("\nmetrics overhead (in-process simulate, best of "
          f"{data['rounds']}):")
    for scale, row in data["scales"].items():
        print(f"  {scale}: off {row['off_ms']} ms, on {row['on_ms']} ms "
              f"({row['overhead_frac']:+.1%}), {row['series']} series")
    _update_out(metrics=data)
    print(f"wrote {OUT}")

    rows = list(data["scales"].values())
    # The series count does not grow with the fabric.
    assert len({row["series"] for row in rows}) == 1, rows
    # The acceptance bar: an armed simulate costs <= 5% wall time.
    for scale, row in data["scales"].items():
        assert row["on_ms"] <= 1.05 * row["off_ms"], (
            f"armed simulate at {scale} cost {row['overhead_frac']:.1%}"
        )
