"""Production simulator vs the eager event discipline of ``tests/oracles``.

The earliest-wins discipline (cancel in place, early wakeups repost,
the joins and finishes of one instant share one solver pass) and the
eager one (a pass per join and per finish, repost on every rate change,
stale events die by version) run on one
monotone flow clock: a flow joins the network at its first byte.  They
must therefore reach the same physics exactly, not within a tolerance:
the same completion time, per-TB stats and per-link stats.
"""

import pytest

from repro import MB
from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.ir.task import Collective
from repro.runtime import simulate
from repro.synth import TACCLSynthesizer
from repro.topology import Cluster
from tests.oracles.eager import EagerSimulator

CELLS = [
    ("hm-allreduce", 2, 4),
    ("tree-allreduce", 2, 8),
    ("taccl-allreduce", 2, 4),
    ("mesh-allreduce", 2, 4),
    ("ring-allreduce", 2, 4),
]


def plan_for(algo, nodes, gpus):
    cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
    if algo == "taccl-allreduce":
        program = TACCLSynthesizer().synthesize(cluster, Collective.ALLREDUCE)
    else:
        program = build_algorithm(algo, cluster)
    return ResCCLBackend(max_microbatches=4).plan(cluster, program, 16 * MB)


@pytest.mark.parametrize(
    "algo,nodes,gpus", CELLS, ids=[f"{a}@{n}x{g}" for a, n, g in CELLS]
)
def test_eager_discipline_same_completion(algo, nodes, gpus):
    plan = plan_for(algo, nodes, gpus)
    production = simulate(plan)
    eager = EagerSimulator(plan).run()
    assert production.completion_time_us == eager.completion_time_us
    assert production.tb_stats == eager.tb_stats
    assert production.link_stats == eager.link_stats
    assert sorted(production.completion_order) == sorted(eager.completion_order)
    assert production.counters.flows_admitted == eager.counters.flows_admitted
