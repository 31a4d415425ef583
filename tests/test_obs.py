"""Tests for the observability layer: span tracer and metrics registry."""

import dataclasses

import pytest

from repro import MB, ResCCLBackend, multi_node
from repro.algorithms import hm_allreduce
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    collecting,
    current_registry,
    current_span,
    current_tracer,
    observe,
    span,
    tracing,
)
from repro.obs.spans import NULL_SPAN
from repro.runtime.simulator import simulate
from repro.topology import TIERS


class TestSpanTracer:
    def test_nesting(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                inner.set(items=3)
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].counters == {"items": 3}

    def test_durations_monotone(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.duration_us >= inner.duration_us >= 0.0
        assert outer.self_time_us >= 0.0

    def test_counters_and_incr(self):
        tracer = SpanTracer()
        with tracer.span("s") as sp:
            sp.incr("hits")
            sp.incr("hits", 2)
            sp.set(total=10)
        assert tracer.roots[0].counters == {"hits": 3, "total": 10}

    def test_attrs_in_render(self):
        tracer = SpanTracer()
        with tracer.span("compile", scheduler="hpds") as sp:
            sp.set(tasks=24)
        text = tracer.render()
        assert "compile" in text
        assert "scheduler=hpds" in text
        assert "tasks=24" in text

    def test_mismatched_exit_tolerated(self):
        tracer = SpanTracer()
        outer_ctx = tracer.span("outer")
        outer = outer_ctx.__enter__()
        tracer.span("inner").__enter__()
        # Closing the outer span unwinds the dangling inner one too.
        outer_ctx.__exit__(None, None, None)
        assert tracer.current() is NULL_SPAN
        assert outer.end_us >= outer.children[0].end_us

    def test_to_dict_round_trip(self):
        tracer = SpanTracer()
        with tracer.span("a", algo="ring") as sp:
            sp.set(n=1)
            with tracer.span("b"):
                pass
        (root,) = tracer.to_dict()
        assert root["name"] == "a"
        assert root["attrs"] == {"algo": "ring"}
        assert root["counters"] == {"n": 1}
        assert [c["name"] for c in root["children"]] == ["b"]

    def test_to_chrome_events(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner") as sp:
                sp.set(n=2)
        events = tracer.to_chrome_events(pid=9992)
        assert [e["name"] for e in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 9992
            assert event["dur"] >= 0
        assert events[1]["args"]["n"] == 2


class TestAmbientTracing:
    def test_disarmed_is_null(self):
        assert current_tracer() is None
        with span("anything") as sp:
            assert sp is NULL_SPAN
            sp.set(ignored=1)  # absorbed, no error
        assert current_span() is NULL_SPAN

    def test_armed_collects(self):
        with tracing() as tracer:
            with span("phase", key="v") as sp:
                sp.set(n=5)
                assert current_span() is sp
        assert current_tracer() is None
        assert tracer.roots[0].name == "phase"
        assert tracer.roots[0].counters == {"n": 5}

    def test_nested_arming_restores_previous(self):
        with tracing() as outer_tracer:
            with tracing() as inner_tracer:
                assert current_tracer() is inner_tracer
            assert current_tracer() is outer_tracer


class TestMetricsRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.inc("hits_total")
        reg.inc("hits_total", 2.0)
        assert reg.counter("hits_total").value() == pytest.approx(3.0)

    def test_labels_are_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("bytes_total", 10, link="a")
        reg.inc("bytes_total", 5, link="b")
        counter = reg.counter("bytes_total")
        assert counter.value(link="a") == pytest.approx(10)
        assert counter.value(link="b") == pytest.approx(5)
        assert len(counter.samples()) == 2

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set("depth", 4)
        reg.set("depth", 2)
        assert reg.gauge("depth").value() == pytest.approx(2)

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        for value in (0.5, 5.0, 50.0, 5e6):
            reg.observe("lat_us", value)
        (key, series), = reg.histogram("lat_us").samples()
        assert key == ()
        assert series.count == 4
        assert series.sum == pytest.approx(0.5 + 5.0 + 50.0 + 5e6)
        assert series.min == pytest.approx(0.5)
        assert series.max == pytest.approx(5e6)
        assert series.bucket_counts[-1] == 1  # the +Inf overflow

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.observe("x", 1.0)

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", help="number of hits").inc(3, kind="a")
        reg.set("depth", 2.5)
        reg.observe("lat_us", 7.0)
        text = reg.to_prometheus()
        assert "# HELP hits_total number of hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{kind="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text
        assert 'lat_us_bucket{le="10"} 1' in text
        assert 'lat_us_bucket{le="+Inf"} 1' in text
        assert "lat_us_sum 7" in text
        assert "lat_us_count 1" in text

    def test_json_export(self):
        reg = MetricsRegistry()
        reg.inc("hits_total", 2, kind="x")
        reg.observe("lat_us", 3.0)
        out = reg.to_json()
        assert out["hits_total"]["type"] == "counter"
        assert out["hits_total"]["samples"] == [
            {"labels": {"kind": "x"}, "value": 2.0}
        ]
        histogram = out["lat_us"]
        assert histogram["type"] == "histogram"
        assert histogram["samples"][0]["count"] == 1

    def test_render_limit(self):
        reg = MetricsRegistry()
        for i in range(5):
            reg.inc(f"metric_{i}_total")
        text = reg.render(limit=2)
        assert "... 3 more series" in text

    def test_ambient_collecting(self):
        assert current_registry() is None
        with collecting() as reg:
            assert current_registry() is reg
            current_registry().inc("x")
        assert current_registry() is None
        assert reg.counter("x").value() == pytest.approx(1)


class TestPrometheusRendering:
    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.inc("events_total", path='C:\\tmp\\"x"\nnext')
        text = reg.to_prometheus()
        assert (
            'events_total{path="C:\\\\tmp\\\\\\"x\\"\\nnext"} 1' in text
        )
        # The rendered line stays on one physical line: the newline in
        # the label value travels as the two characters backslash-n.
        line = [ln for ln in text.splitlines()
                if ln.startswith("events_total")][0]
        assert "\n" not in line and "\\n" in line

    def test_escaping_round_trips_each_metacharacter(self):
        cases = {
            "back\\slash": "back\\\\slash",
            'quo"te': 'quo\\"te',
            "new\nline": "new\\nline",
            "plain": "plain",
        }
        for raw, escaped in cases.items():
            reg = MetricsRegistry()
            reg.set("g", 1.0, label=raw)
            assert f'g{{label="{escaped}"}} 1' in reg.to_prometheus()

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        # Default buckets are the decade ladder 1, 10, 100, ...
        for value in (0.5, 5.0, 50.0, 50.0, 5e8):
            reg.observe("lat_us", value)
        text = reg.to_prometheus()
        assert 'lat_us_bucket{le="1"} 1' in text
        assert 'lat_us_bucket{le="10"} 2' in text
        assert 'lat_us_bucket{le="100"} 4' in text
        # Every later bound keeps the running total; the overflow value
        # appears only in +Inf, which always equals the series count.
        assert 'lat_us_bucket{le="1000000"} 4' in text
        assert 'lat_us_bucket{le="+Inf"} 5' in text
        assert "lat_us_count 5" in text
        bucket_lines = [ln for ln in text.splitlines()
                        if ln.startswith("lat_us_bucket")]
        counts = [float(ln.rsplit(" ", 1)[1]) for ln in bucket_lines]
        assert counts == sorted(counts)  # cumulativity, line by line

    def test_series_order_stable_across_merge_order(self):
        def populate(registry, order):
            for kind in order:
                registry.inc("reqs_total", 1, kind=kind)
                registry.set("depth", 1.0, kind=kind)
                registry.observe("lat_us", 5.0, kind=kind)

        forward, backward = MetricsRegistry(), MetricsRegistry()
        populate(forward, ["a", "b", "c"])
        populate(backward, ["c", "b", "a"])
        assert forward.to_prometheus() == backward.to_prometheus()

    def test_series_order_stable_across_merge_json(self):
        shard_one, shard_two = MetricsRegistry(), MetricsRegistry()
        shard_one.inc("reqs_total", 2, worker="1")
        shard_one.observe("lat_us", 3.0, worker="1")
        shard_two.inc("reqs_total", 5, worker="0")
        shard_two.observe("lat_us", 7.0, worker="0")
        shard_two.inc("extra_total")

        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge_json(shard_one.to_json())
        ab.merge_json(shard_two.to_json())
        ba.merge_json(shard_two.to_json())
        ba.merge_json(shard_one.to_json())
        assert ab.to_prometheus() == ba.to_prometheus()
        text = ab.to_prometheus()
        assert 'reqs_total{worker="0"} 5' in text
        assert 'reqs_total{worker="1"} 2' in text
        # Families render in name order, series in label order.
        families = [ln.split(" ")[2] for ln in text.splitlines()
                    if ln.startswith("# TYPE ")]
        assert families == sorted(families)

    def test_merge_json_accumulates_histograms(self):
        shard = MetricsRegistry()
        shard.observe("lat_us", 50.0)
        total = MetricsRegistry()
        total.observe("lat_us", 5.0)
        total.merge_json(shard.to_json())
        series = total.histogram("lat_us").series[()]
        assert series.count == 2
        assert series.sum == pytest.approx(55.0)
        assert 'lat_us_bucket{le="+Inf"} 2' in total.to_prometheus()


@pytest.fixture(scope="module")
def plan():
    return ResCCLBackend(max_microbatches=2).plan(
        multi_node(2, 4), hm_allreduce(2, 4), 16 * MB
    )


class TestRuntimeIntegration:
    def test_simulator_publishes_when_armed(self, plan):
        with observe() as obs:
            report = simulate(plan)
        names = obs.registry.names()
        for name in ("sim_flows_started_total", "sim_link_bytes_total",
                     "sim_link_busy_us", "sim_completion_time_us",
                     "sim_credit_stalls_total", "sim_wait_us_total",
                     "net_reallocations_total", "net_rate_changes_total"):
            assert name in names
        # Retired: duplicates of a kept series, and the per-event
        # histograms that grew with the fabric.
        for name in ("net_flows_admitted_total", "sim_flows_completed_total",
                     "sim_rate_reallocations_total", "net_edge_flow_depth",
                     "sim_credit_queue_depth", "sim_wait_us"):
            assert name not in names
        completion = obs.registry.gauge("sim_completion_time_us").value()
        assert completion == pytest.approx(report.completion_time_us)
        # The simulate() wrapper opened a span with the plan name.
        sim_spans = [s for s in obs.tracer.roots if s.name == "simulate"]
        assert len(sim_spans) == 1
        assert sim_spans[0].counters["completion_time_us"] == pytest.approx(
            report.completion_time_us
        )

    def test_pipeline_spans_cover_phases(self):
        cluster = multi_node(2, 4)
        with observe() as obs:
            ResCCLBackend(max_microbatches=2).plan(
                cluster, hm_allreduce(2, 4), 16 * MB
            )
        (plan_span,) = obs.tracer.roots
        assert plan_span.name == "plan"
        names = {c.name for c in plan_span.children}
        assert "compile" in names
        assert "kernelgen" in names
        (compile_span,) = [
            c for c in plan_span.children if c.name == "compile"
        ]
        phases = [c.name for c in compile_span.children]
        assert phases == ["parsing", "analysis", "scheduling", "lowering"]

    def test_disarmed_run_identical(self, plan):
        baseline = simulate(plan)
        with observe():
            armed = simulate(plan)
        again = simulate(plan)
        assert armed.completion_time_us == baseline.completion_time_us
        assert again.completion_time_us == baseline.completion_time_us
        assert armed.completion_order == baseline.completion_order

    def test_fault_harness_publishes(self, plan):
        from repro.faults import run_with_faults

        with observe() as obs:
            outcome = run_with_faults(plan, "link-flap", seed=1)
        stats = outcome.report.fault_stats
        assert stats is not None and stats.injected > 0
        registry = obs.registry
        assert registry.counter("fault_injected_total").value() == (
            pytest.approx(stats.injected)
        )
        assert "sim_fault_events_total" in registry.names()


def _series_count(registry):
    """Distinct (name, label-set) series in a registry."""
    return sum(len(entry["samples"]) for entry in registry.to_json().values())


class TestOneSourceTelemetry:
    """The simulator publishes once per run, from its own counters."""

    def test_armed_report_equals_unarmed(self, plan):
        unarmed = simulate(plan)
        with collecting():
            armed = simulate(plan)
        assert dataclasses.asdict(armed) == dataclasses.asdict(unarmed)

    def test_armed_faulted_report_equals_unarmed(self, plan):
        from repro.faults import run_with_faults

        unarmed = run_with_faults(plan, "link-flap", seed=1).report
        with collecting():
            armed = run_with_faults(plan, "link-flap", seed=1).report
        assert armed.fault_stats is not None
        assert dataclasses.asdict(armed) == dataclasses.asdict(unarmed)

    def test_published_series_equal_their_sources(self, plan):
        with collecting() as registry:
            report = simulate(plan)
        counters = report.counters
        counter = registry.counter
        assert counter("sim_flows_started_total").value() == (
            counters.flows_admitted
        )
        assert counter("net_reallocations_total").value() == (
            counters.reallocations
        )
        assert counter("net_rate_changes_total").value() == (
            counters.rate_updates
        )
        assert counter("sim_credit_stalls_total").value() == (
            counters.credit_stalls
        )
        link_bytes = counter("sim_link_bytes_total")
        assert set(dict(key)["tier"] for key in link_bytes.series) == set(TIERS)
        assert sum(link_bytes.series.values()) == pytest.approx(
            sum(ls.bytes_moved for ls in report.link_stats.values()),
            rel=1e-12,
        )
        busy = registry.gauge("sim_link_busy_us")
        assert sum(busy.series.values()) == pytest.approx(
            sum(ls.busy_time for ls in report.link_stats.values()),
            rel=1e-12,
        )
        waits = counter("sim_wait_us_total")
        assert waits.value(kind="data") == pytest.approx(
            sum(tb.data_wait for tb in report.tb_stats), rel=1e-12
        )
        assert waits.value(kind="sync") == pytest.approx(
            sum(tb.sync_wait for tb in report.tb_stats), rel=1e-12
        )

    def test_credit_stalls_counted_once_per_blocked_send(self, plan):
        shallow = dataclasses.replace(
            plan, config=dataclasses.replace(plan.config, fifo_depth=1)
        )
        with collecting() as registry:
            report = simulate(shallow)
        assert report.counters.credit_stalls > 0
        assert registry.counter("sim_credit_stalls_total").value() == (
            report.counters.credit_stalls
        )
        assert f"{report.counters.credit_stalls} credit stall(s)" in (
            report.counters.summary()
        )

    def test_fault_series_equal_fault_stats(self, plan):
        from repro.faults import run_with_faults

        with collecting() as registry:
            stats = run_with_faults(plan, "link-flap", seed=1).report.fault_stats
        assert stats.events and stats.capacity_changes
        events = registry.counter("sim_fault_events_total")
        for kind, count in stats.events.items():
            assert events.value(kind=kind) == count
        derates = registry.counter("net_capacity_derates_total")
        assert {dict(key)["tier"] for key in derates.series} == set(TIERS)
        assert sum(derates.series.values()) == sum(
            stats.capacity_changes.values()
        )

    def test_series_count_independent_of_fabric_size(self):
        from repro.algorithms import build_algorithm

        counts = []
        for nodes in (2, 8):
            cluster = multi_node(nodes, 8)
            with collecting() as registry:
                simulate(ResCCLBackend(max_microbatches=2).plan(
                    cluster, build_algorithm("ring-allreduce", cluster),
                    16 * MB,
                ))
            for name in registry.names():
                if name.startswith(("sim_", "net_")):
                    for key in registry.get(name).series:
                        assert "link" not in dict(key)
                        assert "edge" not in dict(key)
            counts.append(_series_count(registry))
        assert counts[0] == counts[1]
