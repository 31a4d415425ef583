"""The physics lower bound (repro.analysis.bounds).

No simulated completion may beat the bound, under either fidelity
preset: the built-ins plus TACCL/TECCL AllReduce at 2x4 and 2x8, 16 and
64 MB, four micro-batches at most.  The branch-and-bound tuner relies on
this to skip candidates without changing its winner.
"""

import pytest

from repro.algorithms import available_algorithms
from repro.analysis.bounds import lower_bound
from repro.baselines import MSCCLBackend, NCCLBackend
from repro.core import ResCCLBackend
from repro.request import build_cluster, resolve_spec
from repro.runtime import MB, simulate

SPECS = (*available_algorithms(), "taccl:allreduce", "teccl:allreduce")
SHAPES = ((2, 4), (2, 8))
SIZES_MB = (16, 64)


def plan_of(spec, nodes, gpus, size_mb):
    cluster = build_cluster(nodes, gpus, "A100")
    program = resolve_spec(spec, cluster)
    backend = ResCCLBackend(max_microbatches=4, use_tuning=False)
    return backend.plan(cluster, program, size_mb * MB)


@pytest.mark.parametrize("size_mb", SIZES_MB)
@pytest.mark.parametrize("nodes, gpus", SHAPES, ids=["2x4", "2x8"])
@pytest.mark.parametrize("spec", SPECS)
def test_no_simulation_beats_the_bound(spec, nodes, gpus, size_mb):
    plan = plan_of(spec, nodes, gpus, size_mb)
    bound = lower_bound(plan)
    for fidelity in ("exact", "fast"):
        completion = simulate(plan.with_fidelity(fidelity)).completion_time_us
        assert completion >= bound.bound_us, (fidelity, completion, bound)


@pytest.mark.parametrize("backend", [NCCLBackend, MSCCLBackend])
def test_baseline_plans_obey_the_bound(backend):
    cluster = build_cluster(2, 4, "A100")
    program = resolve_spec("ring-allreduce", cluster)
    target = program.collective if backend is NCCLBackend else program
    plan = backend(max_microbatches=4).plan(cluster, target, 16 * MB)
    assert simulate(plan).completion_time_us >= lower_bound(plan).bound_us


def test_terms_and_binding_edge():
    plan = plan_of("ring-allreduce", 2, 4, 64)
    bound = lower_bound(plan)
    assert bound.bound_us == max(bound.cut_us, bound.chain_us)
    cluster = plan.cluster
    # The cut term is the binding edge's load over its capacity.
    tasks = sum(
        bound.edge in cluster.path(t.src, t.dst).edges for t in plan.dag.tasks
    )
    assert bound.cut_us == pytest.approx(
        tasks * plan.chunk_bytes * plan.n_microbatches
        / cluster.edge_capacity(bound.edge)
    )
    # One micro-batch's chain is at least one task's uncontended time.
    path = cluster.path(plan.dag.tasks[0].src, plan.dag.tasks[0].dst)
    assert bound.chain_us >= path.transfer_time(plan.chunk_bytes)


def test_percent_of_bound():
    bound = lower_bound(plan_of("ring-allgather", 2, 4, 16))
    assert bound.percent(bound.bound_us) == pytest.approx(100.0)
    assert bound.percent(2 * bound.bound_us) == pytest.approx(200.0)
