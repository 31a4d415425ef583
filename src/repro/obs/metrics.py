"""Metrics registry: labelled counters, gauges, and histograms.

Subsystems publish operational measurements here when a registry is
armed via :func:`collecting` (or :func:`repro.obs.observe`): compile
phase times and plan-cache hits, fault/recovery counts, service request
latencies, and the simulator's run totals — link bytes and busy time
per fabric tier, FIFO credit stalls, flow admissions and rate
reallocations.  The simulator publishes once per run from its own
counters, never per event.  Publishers hold a reference obtained from
:func:`current_registry` and guard every publish with a ``None`` check,
so the disarmed path costs one attribute test.

Exports: :meth:`MetricsRegistry.to_json` (nested dict) and
:meth:`MetricsRegistry.to_prometheus` (Prometheus text exposition
format, one sample per label set).

Metric names use Prometheus conventions: ``<subsystem>_<what>_<unit>``
with ``_total`` suffixes on counters (``sim_credit_stalls_total``,
``net_reallocations_total``, ``sim_link_bytes_total{tier="nvlink"}``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (microsecond-scale durations
#: and small integer depths both fit this decade ladder).
DEFAULT_BUCKETS = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.series: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self.series.items())


class Gauge:
    """Point-in-time value, one series per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self.series[_label_key(labels)] = value

    def value(self, **labels: str) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self.series.items())


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum", "min", "max", "exemplars")

    def __init__(self, nbuckets: int) -> None:
        self.bucket_counts = [0] * (nbuckets + 1)  # +inf bucket last
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # bucket index -> {"labels": {...}, "value": v, "ts": t};
        # lazily allocated — most series never carry exemplars.
        self.exemplars: Optional[Dict[int, dict]] = None

    def set_exemplar(self, index: int, labels: Dict[str, str],
                     value: float, ts: Optional[float] = None) -> None:
        if self.exemplars is None:
            self.exemplars = {}
        self.exemplars[index] = {
            "labels": dict(labels),
            "value": value,
            "ts": time.time() if ts is None else ts,
        }


class Histogram:
    """Cumulative-bucket distribution, one series per label set.

    Buckets can carry OpenMetrics-style **exemplars**: pass
    ``exemplar={"trace_id": ...}`` to :meth:`observe` and the bucket the
    value lands in remembers that reference (last-writer-wins).  The
    service daemon attaches the ``trace_id`` of retained requests, so a
    p99 bucket in ``/metrics`` links to a trace ``/debug/traces/<id>``
    can still return.  Rendering is strictly additive — series without
    exemplars render byte-identically to before exemplars existed.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.series: Dict[LabelKey, _HistogramSeries] = {}

    def _bucket_index(self, value: float) -> int:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                return index
        return len(self.buckets)  # +Inf

    def observe(
        self,
        value: float,
        *,
        exemplar: Optional[Dict[str, str]] = None,
        **labels: str,
    ) -> None:
        key = _label_key(labels)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.sum += value
        series.min = min(series.min, value)
        series.max = max(series.max, value)
        index = self._bucket_index(value)
        series.bucket_counts[index] += 1
        if exemplar:
            series.set_exemplar(index, exemplar, value)

    def samples(self) -> List[Tuple[LabelKey, _HistogramSeries]]:
        return sorted(self.series.items(), key=lambda item: item[0])


class MetricsRegistry:
    """Creates, deduplicates, and exports metrics.

    Convenience forms (``inc`` / ``set`` / ``observe``) auto-create the
    metric on first use, which keeps publisher call sites to one line.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        # (source, metric name, label key) -> last cumulative snapshot
        # seen from that source; see merge_json(source=...).
        self._watermarks: Dict[Tuple, object] = {}

    # -- typed accessors ------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _get_or_create(self, name: str, cls, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    # -- one-line publish helpers --------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        self.counter(name).inc(value, **labels)

    def set(self, name: str, value: float, **labels: str) -> None:
        self.gauge(name).set(value, **labels)

    def observe(
        self,
        name: str,
        value: float,
        *,
        exemplar: Optional[Dict[str, str]] = None,
        **labels: str,
    ) -> None:
        self.histogram(name).observe(value, exemplar=exemplar, **labels)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export ---------------------------------------------------------

    def to_json(self) -> dict:
        """Nested dict: name -> {type, help, samples: [{labels, ...}]}."""
        out: Dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: dict = {"type": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = []
                for key, s in metric.samples():
                    sample = {
                        "labels": dict(key),
                        "count": s.count,
                        "sum": s.sum,
                        "min": s.min if s.count else None,
                        "max": s.max if s.count else None,
                        "bucket_counts": list(s.bucket_counts),
                    }
                    if s.exemplars:
                        # str keys: JSON round-trips must stay lossless.
                        sample["exemplars"] = {
                            str(i): dict(ex)
                            for i, ex in sorted(s.exemplars.items())
                        }
                    entry["samples"].append(sample)
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.samples()
                ]
            out[name] = entry
        return out

    def merge_json(self, data: dict, source: Optional[str] = None) -> None:
        """Fold a :meth:`to_json` export into this registry.

        Without ``source`` (the :func:`parallel_sweep` mode), exports
        are **disjoint deltas**: counters add, gauges overwrite
        (last-merged-wins, matching sequential execution), and histogram
        series accumulate count/sum/min/max/bucket_counts.  Buckets of
        an incoming histogram must match any existing metric of the same
        name.

        With ``source`` (the service daemon folding worker registries),
        exports are **cumulative snapshots** of that source's registry:
        the registry keeps a per-``(source, series)`` watermark and
        merges only the positive delta since the last snapshot, so
        re-reported totals never double-count.  A counter or bucket
        falling *below* its watermark means the source process was
        replaced and its registry reset (a respawned service worker);
        the full new value is merged — totals stay monotonic, nothing is
        lost — and ``service_worker_restarts_total{source=...,
        detected="counter-reset"}`` is incremented once per such merge.

        Histogram exemplars travel along and overwrite (last-writer-
        wins), matching their per-bucket semantics.
        """
        regressed = False
        for name, entry in data.items():
            kind = entry.get("type")
            samples = entry.get("samples", ())
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
                for sample in samples:
                    labels = sample.get("labels", {})
                    value = sample["value"]
                    if source is None:
                        metric.inc(value, **labels)
                        continue
                    mark_key = (source, name, _label_key(labels))
                    watermark = self._watermarks.get(mark_key, 0.0)
                    if value >= watermark:
                        delta = value - watermark
                    else:
                        regressed = True
                        delta = value
                    metric.inc(delta, **labels)
                    self._watermarks[mark_key] = value
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
                for sample in samples:
                    metric.set(sample["value"], **sample.get("labels", {}))
            elif kind == "histogram":
                buckets = tuple(entry.get("buckets", DEFAULT_BUCKETS))
                metric = self.histogram(name, entry.get("help", ""), buckets)
                if metric.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r}: incoming buckets {buckets} "
                        f"do not match registered {metric.buckets}"
                    )
                for sample in samples:
                    key = _label_key(sample.get("labels", {}))
                    series = metric.series.get(key)
                    if series is None:
                        series = metric.series[key] = _HistogramSeries(
                            len(metric.buckets)
                        )
                    count = sample["count"]
                    total = sample["sum"]
                    bucket_counts = list(sample["bucket_counts"])
                    if source is not None:
                        mark_key = (source, name, key)
                        mark = self._watermarks.get(mark_key)
                        if mark is not None:
                            # Bucket counts are ints and strictly
                            # monotone within one source process; any
                            # decrease is a registry reset.
                            reset = count < mark["count"] or any(
                                new < old for new, old in
                                zip(bucket_counts, mark["bucket_counts"])
                            )
                            if reset:
                                regressed = True
                            else:
                                count = count - mark["count"]
                                total = total - mark["sum"]
                                bucket_counts = [
                                    new - old for new, old in
                                    zip(bucket_counts, mark["bucket_counts"])
                                ]
                        self._watermarks[mark_key] = {
                            "count": sample["count"],
                            "sum": sample["sum"],
                            "bucket_counts": list(sample["bucket_counts"]),
                        }
                    series.count += count
                    series.sum += total
                    if count and sample["count"]:
                        series.min = min(series.min, sample["min"])
                        series.max = max(series.max, sample["max"])
                    for index, bucket_count in enumerate(bucket_counts):
                        series.bucket_counts[index] += bucket_count
                    for idx_str, ex in (sample.get("exemplars") or {}).items():
                        series.set_exemplar(
                            int(idx_str),
                            ex.get("labels", {}),
                            ex.get("value", 0.0),
                            ex.get("ts"),
                        )
            else:
                raise ValueError(f"metric {name!r}: unknown type {kind!r}")
        if regressed and source is not None:
            self.inc(
                "service_worker_restarts_total",
                1,
                source=source,
                detected="counter-reset",
            )

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, series in metric.samples():
                    cumulative = 0
                    for index, (bound, count) in enumerate(zip(
                        metric.buckets, series.bucket_counts
                    )):
                        cumulative += count
                        bucket_key = key + (("le", _fmt(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_key)} "
                            f"{cumulative}"
                            f"{_render_exemplar(series, index)}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(inf_key)} "
                        f"{series.count}"
                        f"{_render_exemplar(series, len(metric.buckets))}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {_fmt(series.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {series.count}"
                    )
            else:
                for key, value in metric.samples():
                    lines.append(
                        f"{name}{_render_labels(key)} {_fmt(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self, limit: int = 0) -> str:
        """Compact human-readable dump for CLI output."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                for key, series in metric.samples():
                    mean = series.sum / series.count if series.count else 0.0
                    lines.append(
                        f"  {name}{_render_labels(key)} "
                        f"count={series.count} mean={mean:.1f} "
                        f"max={series.max if series.count else 0:.1f}"
                    )
            else:
                for key, value in metric.samples():
                    lines.append(
                        f"  {name}{_render_labels(key)} {_fmt(value)}"
                    )
        if limit and len(lines) > limit:
            hidden = len(lines) - limit
            lines = lines[:limit] + [f"  ... {hidden} more series"]
        return "\n".join(lines)


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_exemplar(series: _HistogramSeries, index: int) -> str:
    """OpenMetrics exemplar suffix for one bucket line ('' when none).

    ``name_bucket{le="x"} N # {trace_id="..."} value timestamp`` — only
    emitted for buckets that explicitly carry an exemplar, so registries
    that never attach one render byte-identically to before.
    """
    if not series.exemplars:
        return ""
    ex = series.exemplars.get(index)
    if ex is None:
        return ""
    labels = _render_labels(_label_key(ex["labels"]))
    return f" # {labels or '{}'} {_fmt(ex['value'])} {ex['ts']:.3f}"


# ----------------------------------------------------------------------
# Ambient (module-level) registry
# ----------------------------------------------------------------------

_current: Optional[MetricsRegistry] = None


def current_registry() -> Optional[MetricsRegistry]:
    """The armed registry, or ``None`` when metrics collection is off."""
    return _current


def install_registry(registry: Optional[MetricsRegistry]) -> None:
    """Arm (or, with ``None``, disarm) the ambient registry."""
    global _current
    _current = registry


class collecting:
    """Context manager arming a fresh :class:`MetricsRegistry`."""

    def __enter__(self) -> MetricsRegistry:
        self._previous = _current
        registry = MetricsRegistry()
        install_registry(registry)
        return registry

    def __exit__(self, *exc) -> bool:
        install_registry(self._previous)
        return False


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "current_registry",
    "install_registry",
    "collecting",
]
