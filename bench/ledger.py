"""Declared metrics of the layer ledger and the per-layer arithmetic.

The workloads measure; this module names what they report and turns a
traced section into per-layer numbers.  Every workload emits every
declared metric — a layer a workload never enters reads 0 — so the
names here must match ``BENCHMARK.json`` exactly (``bench/tests``
checks that).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

import stats

WORKLOADS = ("cells", "dsl", "megatron", "service")

#: Cluster shapes (nodes x GPUs per node) the per-scale metrics break out.
SCALES = ("1x8", "2x4", "2x8", "4x8", "8x8")

#: Service operations, each with its own latency breakdown.
OPS = ("compile", "simulate")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "item_geomean_ms": "ms",
    "throughput_per_s": "1/s",
}

#: Units of host time, which ``run.py`` scales to the reference machine.
TIME_UNITS = ("s", "ms", "us", "us/kB")

#: Layer totals in ms per pass (per request for the service):
#: metric -> (span name, backend the span must belong to).
_TOTALS = {
    "algorithms.build_ms": ("bench.build", None),
    "lang.parse_ms": ("parsing", None),
    "ir.analysis_ms": ("analysis", None),
    "core.hpds_ms": ("scheduling", None),
    "core.tballoc_ms": ("tballoc", None),
    "core.kernelgen_ms": ("kernelgen", None),
    "core.plan_self_ms": ("plan", "ResCCL"),
    "runtime.simulate_ms": ("simulate", None),
    "baselines.nccl.plan_ms": ("plan", "NCCL"),
    "baselines.msccl.plan_ms": ("plan", "MSCCL"),
    "training.self_ms": ("bench.job", None),
}

#: Per-scale families: metric prefix -> unit.
_PER_SCALE = {
    "lang.parse_us_per_kb": "us/kB",
    "lang.to_source_ms": "ms",
    "core.plancache.key_ms": "ms",
    "core.plan_warm_ms": "ms",
    "ir.analysis_us_per_task": "us",
    "core.hpds_us_per_task": "us",
    "runtime.us_per_event": "us",
    "runtime.us_per_flow": "us",
}

#: Segments of a stitched service request trace: metric stem -> name.
_SEGMENTS = {
    "admission": "admission",
    "queue": "queue",
    "worker": "worker-compute",
    "coalesce_wait": "coalesce-wait",
    "serialize": "serialize",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = dict.fromkeys(_TOTALS, "ms")
    units.update({
        "core.tballoc_calls_per_plan": "count",
        "core.plancache.hit_rate": "ratio",
        "runtime.stale_skip_ratio": "ratio",
        "runtime.vectorized_share": "ratio",
        "runtime.bucket_queue_share": "ratio",
        "sim.algbw_gbps": "GB/s",
        "training.speedup_vs_nccl": "x",
        "obs.trace_overhead": "ratio",
    })
    for prefix, unit in _PER_SCALE.items():
        for scale in SCALES:
            units[f"{prefix}.{scale}"] = unit
    for op in OPS:
        for stem in _SEGMENTS:
            units[f"service.{stem}_ms.{op}.p50"] = "ms"
        units[f"service.worker.self_ms.{op}.p50"] = "ms"
    units.update({
        "service.worker.plan_ms.p50": "ms",
        "service.worker.simulate_ms.p50": "ms",
        "service.client_hop_ms.p50": "ms",
        "service.cache_hit_rate": "ratio",
        "service.coalesced_share": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p50(values: List[float]) -> float:
    """Median under the percentile rule; 0 without enough samples."""
    value = stats.percentile(values, 0.5)
    return 0.0 if value is None else value


def _has_child(span: dict, name: str) -> bool:
    return any(child["name"] == name for child in span.get("children", ()))


def _worker_spans(trace: dict, name: str) -> Optional[float]:
    """Milliseconds of ``name`` spans inside the worker-compute segment,
    or ``None`` for a request no worker ran (a coalesced waiter)."""
    workers = [s for s in trace["spans"] if s["name"] == "worker-compute"]
    if not workers:
        return None
    return sum(s["duration_us"] for s in stats.walk(workers)
               if s["name"] == name) / 1e3


def per_layer(
    roots: Iterable[dict],
    per: int,
    requests: Iterable[dict] = (),
    extras: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced section.

    Args:
        roots: the section's span forest (``Span.to_dict`` shape).  Spans
            with the attribute ``timed="0"`` (and their subtrees) ran
            outside the timed operations; they feed only the per-call
            medians (key derivation, warm plans), never layer totals.
        per: what layer totals are divided by — passes for a batch
            workload, requests for the service.
        requests: the service's warm requests, each a dict with ``op``,
            ``client_ms``, ``trace`` (the stitched request trace),
            ``cache_hit`` and ``coalesced``.
        extras: metrics the workload measured directly.
    """
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    rows = list(stats.flatten(roots))
    timed = [row for row in rows if row[1].get("timed") != "0"]

    def select(pool, name, scale=None, backend=None):
        return [
            (span, attrs, self_us) for span, attrs, self_us in pool
            if span["name"] == name
            and (scale is None or attrs.get("scale") == scale)
            and (backend is None or attrs.get("backend") == backend)
        ]

    def self_us(selected) -> float:
        return sum(row[2] for row in selected)

    def count(selected, key) -> float:
        return sum(row[0].get("counters", {}).get(key, 0) for row in selected)

    for metric, (name, backend) in _TOTALS.items():
        metrics[metric] = self_us(select(timed, name, backend=backend)) / 1e3 / max(per, 1)

    cold = [row[0] for row in select(timed, "plan", backend="ResCCL")
            if _has_child(row[0], "compile")]
    tballocs = sum(1 for span in stats.walk(cold) if span["name"] == "tballoc")
    metrics["core.tballoc_calls_per_plan"] = _ratio(tballocs, len(cold))

    sims = select(timed, "bench.simulate")
    metrics["runtime.stale_skip_ratio"] = _ratio(
        count(sims, "stale_events_skipped"), count(sims, "events_popped"))
    vectorized = count(sims, "vectorized_passes")
    metrics["runtime.vectorized_share"] = _ratio(
        vectorized, vectorized + count(sims, "scalar_passes"))
    metrics["runtime.bucket_queue_share"] = _ratio(
        sum(1 for row in sims if row[0]["counters"].get("queue_refills", 0) > 0), len(sims))

    for scale in SCALES:
        metrics[f"lang.parse_us_per_kb.{scale}"] = _ratio(
            self_us(select(timed, "parsing", scale)),
            count(select(timed, "bench.compile", scale), "source_kb"))
        analysis = select(timed, "analysis", scale)
        metrics[f"ir.analysis_us_per_task.{scale}"] = _ratio(
            self_us(analysis), count(analysis, "dag_nodes"))
        scheduling = select(timed, "scheduling", scale)
        metrics[f"core.hpds_us_per_task.{scale}"] = _ratio(
            self_us(scheduling), count(scheduling, "tasks_scheduled"))
        simulate_us = self_us(select(timed, "simulate", scale))
        at_scale = select(timed, "bench.simulate", scale)
        metrics[f"runtime.us_per_event.{scale}"] = _ratio(
            simulate_us, count(at_scale, "events_popped"))
        metrics[f"runtime.us_per_flow.{scale}"] = _ratio(
            simulate_us, count(at_scale, "flows_admitted"))
        keys = [row[0]["counters"] for row in select(rows, "bench.key", scale)]
        metrics[f"lang.to_source_ms.{scale}"] = _median(
            [c["to_source_us"] / 1e3 for c in keys])
        metrics[f"core.plancache.key_ms.{scale}"] = _median(
            [c["key_us"] / 1e3 for c in keys])
        metrics[f"core.plan_warm_ms.{scale}"] = _median([
            row[0]["duration_us"] / 1e3
            for row in select(rows, "plan", scale, "ResCCL")
            if not _has_child(row[0], "compile")
        ])

    requests = list(requests)
    for op in OPS:
        mine = [r for r in requests if r["op"] == op]
        for stem, segment in _SEGMENTS.items():
            metrics[f"service.{stem}_ms.{op}.p50"] = _p50([
                s["duration_us"] / 1e3 for r in mine
                for s in r["trace"]["spans"] if s["name"] == segment
            ])
        metrics[f"service.worker.self_ms.{op}.p50"] = _p50([
            stats.self_time_us(s) / 1e3 for r in mine
            for s in r["trace"]["spans"] if s["name"] == "worker-compute"
        ])
    simulated = [r["trace"] for r in requests if r["op"] == "simulate"]
    for metric, name in (("service.worker.plan_ms.p50", "plan"),
                         ("service.worker.simulate_ms.p50", "simulate")):
        values = [_worker_spans(trace, name) for trace in simulated]
        metrics[metric] = _p50([v for v in values if v is not None])
    metrics["service.client_hop_ms.p50"] = _p50(
        [r["client_ms"] - r["trace"]["total_us"] / 1e3 for r in requests])
    metrics["service.cache_hit_rate"] = _ratio(
        sum(bool(r["cache_hit"]) for r in requests), len(requests))
    metrics["service.coalesced_share"] = _ratio(
        sum(bool(r["coalesced"]) for r in requests), len(requests))

    extras = extras or {}
    unknown = set(extras) - set(metrics)
    if unknown:
        raise ValueError(f"undeclared per-layer metrics: {sorted(unknown)}")
    metrics.update(extras)
    return metrics
