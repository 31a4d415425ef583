"""One rate-solver pass per event instant.

A flow join or finish is a membership change; the simulator settles
all the changes of one instant in a single water-filling pass.  On a
fault-free run without background traffic, nothing else runs the
solver, so the pass count equals the number of distinct instants at
which the membership changed.
"""

import pytest

from repro import MB
from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.runtime import Simulator
from repro.runtime.flows import FlowNetwork
from repro.topology import Cluster

CELLS = [("hm-allreduce", 2, 8), ("ring-allreduce", 2, 4)]


class InstantRecordingNetwork(FlowNetwork):
    """Records the instants at which a flow joined or left."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.instants = set()

    def start_flow(self, edges, nbytes, cap, now):
        self.instants.add(now)
        return super().start_flow(edges, nbytes, cap, now)

    def finish_flow(self, flow, now):
        self.instants.add(now)
        return super().finish_flow(flow, now)


class RecordingSimulator(Simulator):
    network_class = InstantRecordingNetwork


def plan_for(algo, nodes, gpus):
    cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
    program = build_algorithm(algo, cluster)
    return ResCCLBackend(max_microbatches=4).plan(cluster, program, 16 * MB)


@pytest.mark.parametrize(
    "algo,nodes,gpus", CELLS, ids=[f"{a}@{n}x{g}" for a, n, g in CELLS]
)
def test_one_pass_per_membership_instant(algo, nodes, gpus):
    sim = RecordingSimulator(plan_for(algo, nodes, gpus))
    report = sim.run()
    instants = sim.network.instants
    assert len(instants) < report.counters.flows_admitted
    assert report.counters.reallocations == len(instants)

