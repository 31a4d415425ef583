"""Property-based tests (hypothesis) on core data structures and invariants.

Strategy: generate random-but-valid algorithm programs and cluster
shapes, then assert the invariants the system's correctness rests on:

* dependency DAGs are acyclic for any step-ordered program;
* a validated compile rejects a corrupted program exactly when
  ``validate_program`` reports issues, and with the same issue list;
* both schedulers cover the DAG exactly once, respect dependencies, and
  never put two same-link tasks in one sub-pipeline;
* TB allocation assigns every task side exactly once and merged windows
  never overlap;
* ring/mesh/HM/tree algorithm generators are correct for arbitrary
  shapes;
* the parser round-trips arbitrary generated programs;
* micro-batch planning always reconstructs the buffer exactly.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    double_binary_tree_allreduce,
    hm_allgather,
    hm_allreduce,
    hm_reducescatter,
    mesh_allreduce,
    ring_allgather,
    ring_allreduce,
)
from repro.core import ResCCLCompiler, allocate_tbs, hpds_schedule, rr_schedule
from repro.ir.dag import build_dag
from repro.ir.task import Collective, CommType, Transfer
from repro.lang.builder import AlgoProgram
from repro.lang.parser import parse_program
from repro.lang.validate import ProgramValidationError, validate_program
from repro.runtime.memory import verify_collective
from repro.runtime.plan import plan_microbatches
from repro.topology import Cluster

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

cluster_shapes = st.tuples(
    st.integers(min_value=1, max_value=4),  # nodes
    st.sampled_from([2, 4, 8]),  # gpus per node
)


@st.composite
def random_programs(draw):
    """A random valid AllGather-style program on a random cluster.

    Transfers are generated in step order with each rank's chunk
    ownership tracked, so the program is always executable (no rank
    sends data it does not hold).
    """
    nodes, gpus = draw(cluster_shapes)
    nranks = nodes * gpus
    program = AlgoProgram.create(
        nranks, Collective.ALLGATHER, name="random", gpus_per_node=gpus
    )
    holdings = {rank: {rank} for rank in range(nranks)}
    used = set()  # (src, dst, step, chunk) uniqueness
    written = set()  # (dst, chunk, step) single-writer rule
    n_transfers = draw(st.integers(min_value=1, max_value=24))
    for step in range(n_transfers):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        chunk = draw(st.sampled_from(sorted(holdings[src])))
        dst = draw(
            st.integers(min_value=0, max_value=nranks - 2).map(
                lambda v, s=src: v if v < s else v + 1
            )
        )
        key = (src, dst, step, chunk)
        wkey = (dst, chunk, step)
        if key in used or wkey in written:
            continue
        used.add(key)
        written.add(wkey)
        program.transfer(src, dst, step, chunk, CommType.RECV)
        holdings[dst].add(chunk)
    return (nodes, gpus), program


#: Ways to break a valid program, one per ``validate_program`` issue class
#: (a cycle cannot be written: see ``tests/test_ir_dag.py``).
CORRUPTIONS = ("empty", "mismatch", "duplicate", "conflict", "rank", "chunk")


@st.composite
def corrupted_programs(draw):
    """A random program with zero to three corruptions, and its cluster."""
    (nodes, gpus), program = draw(random_programs())
    cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
    nranks = program.nranks
    transfers = program.transfers
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
        if kind == "empty":
            transfers.clear()
        elif kind == "mismatch":
            cluster = Cluster(nodes=nodes + 1, gpus_per_node=gpus)
        elif transfers:
            t = transfers[draw(st.integers(0, len(transfers) - 1))]
            beyond = nranks + draw(st.integers(0, 3))
            if kind == "duplicate":
                record = t
            elif kind == "conflict":
                src = draw(st.integers(0, nranks - 1).filter(lambda r: r != t.dst))
                record = Transfer(src, t.dst, t.step, t.chunk, CommType.RRC)
            elif kind == "rank":
                record = Transfer(t.src, beyond, t.step, t.chunk, t.op)
            else:
                record = Transfer(t.src, t.dst, t.step, beyond, t.op)
            transfers.insert(draw(st.integers(0, len(transfers))), record)
    return cluster, program


# ----------------------------------------------------------------------
# DAG invariants
# ----------------------------------------------------------------------


class TestDagProperties:
    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_step_ordered_programs_are_acyclic(self, case):
        (nodes, gpus), program = case
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        dag = build_dag(program.transfers, cluster)
        assert dag.is_acyclic()

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_edges_respect_step_order(self, case):
        (nodes, gpus), program = case
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        dag = build_dag(program.transfers, cluster)
        for producer, consumer in dag.edges():
            assert dag.task(producer).step < dag.task(consumer).step


class TestValidationProperties:
    @given(corrupted_programs())
    @settings(max_examples=80, deadline=None)
    def test_compile_rejects_iff_validator_reports(self, case):
        cluster, program = case
        issues = validate_program(program, cluster).issues
        if not issues:
            ResCCLCompiler().compile(program, cluster)
            return
        with pytest.raises(ProgramValidationError) as info:
            ResCCLCompiler().compile(program, cluster)
        assert info.value.issues == issues


# ----------------------------------------------------------------------
# Scheduler invariants
# ----------------------------------------------------------------------


class TestSchedulerProperties:
    @given(random_programs(), st.sampled_from(["hpds", "rr"]))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_invariants(self, case, scheduler_name):
        (nodes, gpus), program = case
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        dag = build_dag(program.transfers, cluster)
        schedule = hpds_schedule if scheduler_name == "hpds" else rr_schedule
        pipeline = schedule(dag)
        pipeline.check_all(dag)

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_allocation_covers_all_sides_once(self, case):
        (nodes, gpus), program = case
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        dag = build_dag(program.transfers, cluster)
        pipeline = hpds_schedule(dag)
        assignments = allocate_tbs(dag, pipeline)
        seen = set()
        for tb in assignments:
            previous_end = None
            for group in tb.groups:
                if previous_end is not None:
                    assert previous_end < group.window[0]
                previous_end = group.window[1]
            for side in tb.ordered_sides():
                assert side not in seen
                seen.add(side)
        assert len(seen) == 2 * len(dag)


# ----------------------------------------------------------------------
# Algorithm generators
# ----------------------------------------------------------------------


class TestAlgorithmProperties:
    @given(st.integers(min_value=2, max_value=24))
    @settings(max_examples=23, deadline=None)
    def test_ring_allgather_any_size(self, nranks):
        verify_collective(ring_allgather(nranks)).raise_if_failed()

    @given(st.integers(min_value=2, max_value=24))
    @settings(max_examples=23, deadline=None)
    def test_ring_allreduce_any_size(self, nranks):
        verify_collective(ring_allreduce(nranks)).raise_if_failed()

    @given(st.integers(min_value=2, max_value=24))
    @settings(max_examples=23, deadline=None)
    def test_tree_allreduce_any_size(self, nranks):
        verify_collective(double_binary_tree_allreduce(nranks)).raise_if_failed()

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_mesh_allreduce_any_size(self, nranks):
        verify_collective(mesh_allreduce(nranks)).raise_if_failed()

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_hm_algorithms_any_shape(self, nnodes, gpus):
        verify_collective(hm_allgather(nnodes, gpus)).raise_if_failed()
        verify_collective(hm_reducescatter(nnodes, gpus)).raise_if_failed()
        verify_collective(hm_allreduce(nnodes, gpus)).raise_if_failed()


# ----------------------------------------------------------------------
# Parser round-trip
# ----------------------------------------------------------------------


class TestParserProperties:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_source_round_trip(self, case):
        _, program = case
        reparsed = parse_program(program.to_source())
        assert reparsed.transfers == program.transfers
        assert reparsed.header.nranks == program.header.nranks


# ----------------------------------------------------------------------
# Plan arithmetic
# ----------------------------------------------------------------------


class TestPlanProperties:
    @given(
        st.floats(min_value=1024.0, max_value=float(1 << 34)),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=100, deadline=None)
    def test_microbatch_reconstruction(self, buffer_bytes, nchunks, max_mb):
        n_mb, chunk = plan_microbatches(
            buffer_bytes, nchunks, max_microbatches=max_mb
        )
        assert 1 <= n_mb <= max_mb
        assert math.isclose(n_mb * nchunks * chunk, buffer_bytes, rel_tol=1e-9)


# ----------------------------------------------------------------------
# End-to-end: random programs through the full ResCCL pipeline
# ----------------------------------------------------------------------


class TestEndToEndProperties:
    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_program_executes_and_replays(self, case):
        """Compile, simulate, and symbolically replay a random program.

        Three invariants at once: plan construction never deadlocks the
        runtime, every invocation completes, and the dynamic completion
        order respects all data dependencies (the replay re-establishes
        a coherent buffer state for every micro-batch).
        """
        from collections import defaultdict

        from repro.core import ResCCLBackend
        from repro.runtime.memory import execute_sequential
        from repro.runtime.simulator import simulate

        (nodes, gpus), program = case
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        plan = ResCCLBackend(max_microbatches=2).plan(
            cluster, program, 4 * 1024 * 1024.0
        )
        report = simulate(plan)
        assert (
            len(report.completion_order)
            == len(plan.dag) * plan.n_microbatches
        )
        per_mb = defaultdict(list)
        for task_id, mb in report.completion_order:
            per_mb[mb].append(task_id)
        for order in per_mb.values():
            _, errors = execute_sequential(program, order)
            assert not errors, errors[:3]

    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_backends_agree_on_total_bytes(self, case):
        """MSCCL and ResCCL plans of one program move identical volume."""
        from repro.baselines import MSCCLBackend
        from repro.core import ResCCLBackend

        (nodes, gpus), program = case
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        buffer_bytes = 8 * 1024 * 1024.0
        msccl = MSCCLBackend(max_microbatches=2).plan(
            cluster, program, buffer_bytes
        )
        resccl = ResCCLBackend(max_microbatches=2).plan(
            cluster, program, buffer_bytes
        )
        assert msccl.total_bytes == pytest.approx(resccl.total_bytes)
        assert msccl.total_invocations == resccl.total_invocations
