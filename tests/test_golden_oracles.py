"""The golden corpus replayed through the references in ``tests/oracles/``.

Every simulation pinned by ``data/sim_golden.json`` is run again with
the rate oracle armed (each live flow at its from-scratch water-filled
share after every solver pass), with the from-scratch-share and brute-force
flow networks, and with every step lowered from scratch.  Each must
reproduce the golden digest.  One more replay checks that the flow
network is only ever called at the simulator's current time.
"""

import pytest

from repro.runtime import Simulator
from repro.runtime.flows import ABS_RATE_EPS
from tests.oracles import rates
from tests.test_determinism_golden import (
    SIM_DIGESTS,
    SIM_RUNS,
    plan_for,
    report_fingerprint,
    sim_digest,
)


@pytest.fixture
def solver(monkeypatch):
    """Install a rate solver in every simulator; returns those it builds."""

    def install(network_class):
        built = []

        class Recording(network_class):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(Simulator, "network_class", Recording)
        return built

    return install


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_rates_obey_water_filling(name, solver):
    """After every solver pass each live flow runs at its from-scratch
    water-filled share (``tests/oracles/rates.py``)."""
    networks = solver(rates.RateOracleNetwork)
    assert sim_digest(name) == SIM_DIGESTS[name]
    assert sum(n.passes_checked for n in networks) > 0
    assert max(n.max_error for n in networks) <= ABS_RATE_EPS


@pytest.mark.parametrize(
    "network_class",
    [rates.ScalarFlowNetwork, rates.BruteForceFlowNetwork],
    ids=["scalar", "brute-force"],
)
@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_reference_solvers_match_golden(name, network_class, solver):
    solver(network_class)
    assert sim_digest(name) == SIM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_from_scratch_step_table_matches_golden(name, monkeypatch):
    monkeypatch.setattr(
        Simulator, "_lower", rates.FromScratchStepSimulator._lower
    )
    assert sim_digest(name) == SIM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_network_runs_on_the_simulator_clock(name, monkeypatch):
    """Every call into the flow network passes the simulator's current
    time: a flow joins at its first byte, never ahead of the clock."""
    calls = []
    build = Simulator.__init__

    def init(sim, *args, **kwargs):
        build(sim, *args, **kwargs)
        tick = sim.network._tick

        def checked(now):
            assert now == sim.now, f"network called at {now}, clock {sim.now}"
            calls.append(now)
            tick(now)

        sim.network._tick = checked

    monkeypatch.setattr(Simulator, "__init__", init)
    assert sim_digest(name) == SIM_DIGESTS[name]
    assert calls


def test_incremental_solver_computes_fewer_shares():
    """The share cache saves work against the brute-force allocator."""
    plan = plan_for("mesh-allreduce", 2, 8, 8)

    class BruteForceSimulator(rates.FromScratchStepSimulator):
        network_class = rates.BruteForceFlowNetwork

    fast = Simulator(plan).run()
    slow = BruteForceSimulator(plan).run()
    assert report_fingerprint(fast) == report_fingerprint(slow)
    assert fast.counters.shares_computed < slow.counters.shares_computed
