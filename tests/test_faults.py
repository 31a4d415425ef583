"""The fault-injection subsystem: schedules, watchdog, recovery, fallback."""

import pytest

from repro.algorithms.ring import ring_allreduce
from repro.core import ResCCLBackend
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    make_policy,
    parse_inject_spec,
    plan_edges,
    run_with_faults,
)
from repro.faults.recovery import ResilientRunner
from repro.runtime import MB, SimulationDeadlock, SimulationStall, Simulator, simulate
from repro.runtime.flows import FlowNetwork
from repro.runtime.plan import SimConfig
from repro.topology import Cluster


@pytest.fixture(scope="module")
def cluster():
    return Cluster(nodes=1, gpus_per_node=4)


@pytest.fixture(scope="module")
def plan(cluster):
    backend = ResCCLBackend(max_microbatches=4)
    return backend.plan(cluster, ring_allreduce(4), 8 * MB)


@pytest.fixture(scope="module")
def clean(plan):
    return simulate(plan)


def edge_of(plan):
    return plan_edges(plan)[0]


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_generation_is_deterministic(self, plan):
        edges = plan_edges(plan)
        first = FaultPlan.generate("chaos", edges, 5000.0, seed=7)
        second = FaultPlan.generate("chaos", edges, 5000.0, seed=7)
        assert first.events == second.events
        assert FaultPlan.generate("chaos", edges, 5000.0, seed=8).events != first.events

    def test_scaled_to_is_a_cumulative_prefix(self, plan):
        edges = plan_edges(plan)
        full = FaultPlan.generate("link-flap", edges, 5000.0, seed=0,
                                  params={"count": 8})
        half = full.scaled_to(0.5)
        assert len(half) == 4
        assert half.events == sorted(full.events, key=lambda e: e.at_us)[:4]
        assert full.scaled_to(0.0).events == []
        assert len(full.scaled_to(1.0)) == len(full)

    def test_spec_parsing(self, plan):
        edges = plan_edges(plan)
        fp = parse_inject_spec("link-flap:count=2,down_us=500", edges, 5000.0)
        assert len(fp) == 2
        assert all(e.kind is FaultKind.FLAP for e in fp.events)
        assert all(e.duration_us == 500.0 for e in fp.events)
        with pytest.raises(ValueError, match="key=value"):
            parse_inject_spec("link-flap:count", edges, 5000.0)
        with pytest.raises(ValueError, match="unknown fault scenario"):
            parse_inject_spec("meteor-strike", edges, 5000.0)

    def test_kill_events_are_permanent(self):
        with pytest.raises(ValueError, match="permanent"):
            FaultEvent(FaultKind.KILL, 10.0, edge="nv:out:0", duration_us=5.0)


# ----------------------------------------------------------------------
# Fabric hooks
# ----------------------------------------------------------------------


class TestFlowNetworkFactors:
    def test_capacity_factor_scales_and_restores(self):
        net = FlowNetwork({"e": 100.0})
        flow = net.start_flow(("e",), nbytes=1000.0, cap=1e9, now=0.0)
        net.rerate_edges(now=0.0)
        assert flow.rate == pytest.approx(100.0)
        net.set_capacity_factor("e", 0.5, now=1.0)
        assert net.effective_capacity("e") == pytest.approx(50.0)
        assert flow.rate == pytest.approx(50.0)
        net.set_capacity_factor("e", 0.0, now=2.0)
        assert flow.rate == 0.0
        net.set_capacity_factor("e", 1.0, now=3.0)
        assert net.capacity_factor("e") == 1.0
        assert flow.rate == pytest.approx(100.0)

    def test_edge_census_counts_starved_flows(self):
        net = FlowNetwork({"e": 100.0})
        net.start_flow(("e",), nbytes=1000.0, cap=1e9, now=0.0)
        net.set_capacity_factor("e", 0.0, now=0.0)
        flows, zero, capacity = net.edge_census()["e"]
        assert (flows, zero, capacity) == (1, 1, 0.0)


# ----------------------------------------------------------------------
# Injection end to end
# ----------------------------------------------------------------------


class TestInjection:
    def test_empty_plan_is_byte_identical(self, plan, clean):
        report = ResilientRunner(plan, FaultPlan()).run()
        assert report.completion_time_us == clean.completion_time_us
        assert report.algo_bandwidth == clean.algo_bandwidth
        assert report.fault_stats is not None
        assert report.fault_stats.injected == 0
        assert report.fault_stats.detected_stalls == 0

    def test_flap_self_heals_and_records_recovery(self, plan, clean):
        fp = FaultPlan().flap(edge_of(plan), at_us=200.0, down_us=800.0)
        sim = Simulator(plan, injector=FaultInjector(fp))
        report = sim.run()
        assert report.completion_time_us > clean.completion_time_us
        assert report.fault_stats.recovered >= 1
        assert report.fault_stats.downtime_us == pytest.approx(800.0)
        kinds = [e.kind for e in report.trace]
        assert "fault:link-down" in kinds
        assert "fault:link-up" in kinds
        assert "recover:resume" in kinds

    def test_kill_without_recovery_raises_structured_stall(self, plan):
        edge = edge_of(plan)
        fp = FaultPlan().kill(edge, at_us=200.0)
        sim = Simulator(plan, injector=FaultInjector(fp))
        with pytest.raises(SimulationStall, match="never finished") as info:
            sim.run()
        stall = info.value.stall
        assert edge in stall.down_edges
        assert stall.unfinished > 0
        assert any(tb.wait_kind for tb in stall.tbs)
        assert isinstance(info.value, SimulationDeadlock)
        assert "down edges" in str(info.value)

    def test_kill_with_fallback_degrades_to_ring(self, plan, clean):
        fp = FaultPlan().kill(edge_of(plan), at_us=200.0)
        report = ResilientRunner(
            plan, fp, policy=make_policy("fallback")
        ).run()
        assert report.fault_stats.fallbacks == 1
        assert report.fault_stats.detected_stalls == 1
        assert report.algo_bandwidth > 0.0
        assert report.completion_time_us > clean.completion_time_us
        assert report.plan_name.endswith("ring-fallback")

    def test_tb_stall_delays_completion(self, plan, clean):
        fp = FaultPlan().stall_tb(rank=-1, tb_index=0, at_us=100.0,
                                  duration_us=1500.0)
        report = Simulator(plan, injector=FaultInjector(fp)).run()
        assert report.completion_time_us >= clean.completion_time_us
        assert "fault:tb-stall" in [e.kind for e in report.trace]

    def test_watchdog_disabled_falls_back_to_deadlock_check(self, plan):
        import copy

        quiet = copy.deepcopy(plan)
        quiet.config.watchdog_window_us = 0.0
        fp = FaultPlan().kill(edge_of(quiet), at_us=200.0)
        with pytest.raises(SimulationDeadlock) as info:
            Simulator(quiet, injector=FaultInjector(fp)).run()
        assert not isinstance(info.value, SimulationStall)

    def test_run_with_faults_is_deterministic(self, plan):
        first = run_with_faults(plan, "chaos", seed=3, recovery="retry")
        second = run_with_faults(plan, "chaos", seed=3, recovery="retry")
        assert (first.report.completion_time_us
                == second.report.completion_time_us)
        assert first.fault_plan.events == second.fault_plan.events

    def test_retry_policy_readmits_after_flap(self, plan, clean):
        window = plan.config.watchdog_window_us
        fp = FaultPlan().flap(edge_of(plan), at_us=200.0,
                              down_us=3.0 * window)
        report = ResilientRunner(
            plan, fp, policy=make_policy("retry")
        ).run()
        stats = report.fault_stats
        assert stats.detected_stalls >= 1
        assert stats.recovered >= 1
        assert report.completion_time_us > clean.completion_time_us


# ----------------------------------------------------------------------
# Topology support
# ----------------------------------------------------------------------


class TestDegradedCluster:
    def test_degraded_clones_and_scales(self, cluster):
        edge = "nv:out:0"
        degraded = cluster.degraded([edge], 0.25)
        assert degraded.edge_capacity(edge) == pytest.approx(
            0.25 * cluster.edge_capacity(edge)
        )
        other = "nv:out:1"
        assert degraded.edge_capacity(other) == cluster.edge_capacity(other)

    def test_degraded_rejects_bad_inputs(self, cluster):
        with pytest.raises(ValueError, match="positive"):
            cluster.degraded(["nv:out:0"], 0.0)
        with pytest.raises(KeyError):
            cluster.degraded(["no:such:edge"], 0.5)


# ----------------------------------------------------------------------
# Fault-trace ring buffer
# ----------------------------------------------------------------------


class TestFaultTraceRingBuffer:
    def _plan_with_cap(self, cluster, cap):
        backend = ResCCLBackend(
            max_microbatches=4, config=SimConfig(fault_trace_cap=cap)
        )
        return backend.plan(cluster, ring_allreduce(4), 8 * MB)

    def test_cap_evicts_oldest_and_counts_drops(self, cluster):
        sim = Simulator(self._plan_with_cap(cluster, 3))
        for i in range(10):
            sim.record_fault_event("fault:test", float(i), float(i + 1))
        report = sim.run()
        kept = [e for e in report.trace if e.kind == "fault:test"]
        assert len(kept) == 3
        assert report.trace_dropped == 7
        # Ring semantics: the oldest events are the ones evicted.
        assert [e.start_us for e in kept] == [7.0, 8.0, 9.0]

    def test_cap_zero_is_unbounded(self, cluster):
        sim = Simulator(self._plan_with_cap(cluster, 0))
        for i in range(10):
            sim.record_fault_event("fault:test", float(i), float(i + 1))
        report = sim.run()
        kept = [e for e in report.trace if e.kind == "fault:test"]
        assert len(kept) == 10
        assert report.trace_dropped == 0

    def test_default_chaos_run_reports_no_drops(self, plan):
        outcome = run_with_faults(plan, "link-flap", seed=0)
        assert outcome.report.trace_dropped == 0
