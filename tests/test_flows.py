"""Tests for the fluid-flow contention model (Equation 1 behaviour)."""

import pytest

from repro.runtime.flows import Flow, FlowNetwork


def make_network(gamma=0.0):
    return FlowNetwork({"a": 100.0, "b": 50.0}, gamma=gamma)


def join(net, edges, nbytes, cap, now):
    """Join one flow and settle it: returns it and the pass's changes."""
    flow = net.start_flow(edges, nbytes, cap=cap, now=now)
    return flow, net.rerate_edges(now)


class TestSingleFlow:
    def test_uncontended_rate_is_capacity(self):
        net = make_network()
        flow, changed = join(net, ("a",), nbytes=1000.0, cap=1e9, now=0.0)
        assert flow.rate == pytest.approx(100.0)
        assert flow in changed

    def test_per_flow_cap_applies(self):
        net = make_network()
        flow, _ = join(net, ("a",), nbytes=1000.0, cap=30.0, now=0.0)
        assert flow.rate == pytest.approx(30.0)

    def test_bottleneck_edge_wins(self):
        net = make_network()
        flow, _ = join(net, ("a", "b"), nbytes=1000.0, cap=1e9, now=0.0)
        assert flow.rate == pytest.approx(50.0)

    def test_eta(self):
        net = make_network()
        flow, _ = join(net, ("a",), nbytes=1000.0, cap=1e9, now=0.0)
        assert flow.eta() == pytest.approx(10.0)

    def test_unknown_edge_rejected(self):
        net = make_network()
        with pytest.raises(KeyError):
            net.start_flow(("zzz",), nbytes=1.0, cap=1.0, now=0.0)


class TestSharing:
    def test_fair_share_without_penalty(self):
        net = make_network(gamma=0.0)
        f1, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        f2, changed = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        assert f1.rate == pytest.approx(50.0)
        assert f2.rate == pytest.approx(50.0)
        assert f1 in changed  # existing flow re-rated

    def test_contention_penalty_reduces_aggregate(self):
        gamma = 0.1
        net = make_network(gamma=gamma)
        f1, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        f2, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        aggregate = f1.rate + f2.rate
        assert aggregate == pytest.approx(100.0 / (1.0 + gamma))
        assert aggregate < 100.0

    def test_capped_flow_donates_spare_share(self):
        net = make_network(gamma=0.0)
        slow, _ = join(net, ("a",), 1000.0, cap=10.0, now=0.0)
        fast, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        assert slow.rate == pytest.approx(10.0)
        assert fast.rate == pytest.approx(90.0)

    def test_finish_restores_rate(self):
        net = make_network(gamma=0.0)
        f1, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        f2, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        f1.advance_to(5.0)
        net.finish_flow(f1, 5.0)
        changed = net.rerate_edges(5.0)
        assert f2 in changed
        assert f2.rate == pytest.approx(100.0)

    def test_edge_load_tracking(self):
        net = make_network()
        f1, _ = join(net, ("a",), 1.0, cap=1.0, now=0.0)
        net.start_flow(("a", "b"), 1.0, cap=1.0, now=0.0)
        assert net.edge_load("a") == 2
        assert net.edge_load("b") == 1
        net.finish_flow(f1, 1.0)
        assert net.edge_load("a") == 1

    def test_effective_capacity_figure4_shape(self):
        """Aggregate throughput peaks once flows saturate the link and
        then degrades — the Figure 4 roll-off."""
        per_tb_cap = 25.0  # four of these saturate the 100-unit edge
        aggregates = []
        for k in range(1, 9):
            net = FlowNetwork({"nic": 100.0}, gamma=0.05)
            flows = [
                net.start_flow(("nic",), 1.0, cap=per_tb_cap, now=0.0)
                for _ in range(k)
            ]
            net.rerate_edges(0.0)
            aggregates.append(sum(f.rate for f in flows))
        # Rising region: 1 -> 4 TBs.
        assert aggregates[0] < aggregates[1] < aggregates[3]
        # Saturation then decline: beyond 4 TBs throughput drops.
        assert aggregates[7] < aggregates[3]

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork({"a": 1.0}, gamma=-0.1)


class TestFlowBookkeeping:
    def test_advance_to_consumes_bytes(self):
        flow = Flow(flow_id=0, edges=("a",), nbytes=100.0, cap=10.0, start_time=0.0)
        flow.rate = 10.0
        flow.advance_to(4.0)
        assert flow.remaining == pytest.approx(60.0)

    def test_advance_is_monotonic(self):
        flow = Flow(flow_id=0, edges=("a",), nbytes=100.0, cap=10.0, start_time=5.0)
        flow.rate = 10.0
        flow.advance_to(3.0)  # before start: no effect
        assert flow.remaining == pytest.approx(100.0)

    def test_zero_rate_eta_is_infinite(self):
        flow = Flow(flow_id=0, edges=("a",), nbytes=100.0, cap=10.0, start_time=0.0)
        assert flow.eta() == float("inf")


class TestMonotoneClock:
    """Every call passes the caller's current time; time never runs back."""

    def test_peer_finish_before_a_future_admission_raises(self):
        # A send posted at t over a route with latency alpha must not
        # join at t + alpha while a peer still finishes at t.
        net = make_network()
        t, alpha = 10.0, 7.5
        peer, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        net.start_flow(("a",), 1000.0, cap=1e9, now=t + alpha)
        with pytest.raises(ValueError, match="monotone"):
            net.finish_flow(peer, now=t)

    @pytest.mark.parametrize(
        "call",
        [
            lambda net, flow: net.start_flow(("b",), 1.0, cap=1.0, now=1.0),
            lambda net, flow: net.finish_flow(flow, now=1.0),
            lambda net, flow: net.rerate_edges(now=1.0),
            lambda net, flow: net.set_capacity_factor("a", 0.5, now=1.0),
        ],
        ids=["start_flow", "finish_flow", "rerate_edges", "set_capacity_factor"],
    )
    def test_every_entry_point_rejects_an_earlier_time(self, call):
        net = make_network()
        flow, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        net.rerate_edges(now=2.0)
        with pytest.raises(ValueError, match="monotone"):
            call(net, flow)

    def test_same_instant_calls_are_allowed(self):
        net = make_network()
        f1, _ = join(net, ("a",), 1000.0, cap=1e9, now=3.0)
        f2, _ = join(net, ("a",), 1000.0, cap=1e9, now=3.0)
        net.finish_flow(f1, now=3.0)
        net.rerate_edges(now=3.0)
        assert f2.rate == pytest.approx(100.0)


class TestOnePassPerInstant:
    """Joins and finishes are membership changes; one pass settles them."""

    def test_join_holds_no_rate_until_the_pass(self):
        net = make_network()
        flow = net.start_flow(("a",), 1000.0, cap=1e9, now=0.0)
        assert flow.rate == 0.0
        assert net.dirty_edges == {"a": None}
        assert net.reallocations == 0
        assert net.rerate_edges(now=0.0) == [flow]
        assert flow.rate == pytest.approx(100.0)
        assert net.dirty_edges == {}

    def test_same_instant_changes_share_one_pass(self):
        net = make_network()
        old, _ = join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        f1 = net.start_flow(("a", "b"), 1000.0, cap=1e9, now=2.0)
        f2 = net.start_flow(("b",), 1000.0, cap=1e9, now=2.0)
        net.finish_flow(old, now=2.0)
        changed = net.rerate_edges(now=2.0)
        assert net.reallocations == 2
        assert changed == [f1, f2]  # flow-id order; `old` is gone
        assert f1.rate == pytest.approx(25.0)
        assert f2.rate == pytest.approx(25.0)

    def test_pass_with_nothing_dirty_is_not_counted(self):
        net = make_network()
        join(net, ("a",), 1000.0, cap=1e9, now=0.0)
        assert net.rerate_edges(now=1.0) == []
        assert net.reallocations == 1
