"""Edge-case tests for simulator internals and runtime configuration."""

import pytest

from repro import MB, ResCCLBackend, multi_node, simulate
from repro.algorithms import hm_allgather, hm_allreduce, ring_allgather
from repro.ir.dag import build_dag
from repro.runtime.plan import (
    ExecutionPlan,
    Invocation,
    Side,
    SimConfig,
    TBProgram,
)
from repro.runtime.simulator import Simulator
from repro.topology import single_node, v100_profile
from tests.oracles.rates import FromScratchStepSimulator


class TestSimConfigKnobs:
    @pytest.fixture(scope="class")
    def setup(self):
        cluster = multi_node(2, 4)
        program = hm_allreduce(2, 4)
        return cluster, program

    def run(self, setup, **config_kwargs):
        cluster, program = setup
        backend = ResCCLBackend(
            max_microbatches=4, config=SimConfig(**config_kwargs)
        )
        return simulate(backend.plan(cluster, program, 32 * MB))

    def test_higher_gamma_slower(self, setup):
        mild = self.run(setup, gamma=0.0)
        harsh = self.run(setup, gamma=0.5)
        assert harsh.completion_time_us >= mild.completion_time_us

    def test_deeper_fifo_not_slower(self, setup):
        shallow = self.run(setup, fifo_depth=1)
        deep = self.run(setup, fifo_depth=4)
        assert deep.completion_time_us <= shallow.completion_time_us * 1.01

    def test_kernel_load_shifts_completion(self, setup):
        fast = self.run(setup, kernel_load_us=0.0)
        slow = self.run(setup, kernel_load_us=200.0)
        assert slow.completion_time_us > fast.completion_time_us

    def test_negative_gamma_rejected(self, setup):
        with pytest.raises(ValueError):
            self.run(setup, gamma=-1.0)


class TestV100Runtime:
    def test_v100_slower_than_a100(self):
        program = hm_allgather(2, 4)
        a100 = simulate(
            ResCCLBackend(max_microbatches=4).plan(
                multi_node(2, 4), program, 64 * MB
            )
        )
        v100 = simulate(
            ResCCLBackend(max_microbatches=4).plan(
                multi_node(2, 4, profile=v100_profile()), program, 64 * MB
            )
        )
        assert v100.algo_bandwidth < a100.algo_bandwidth


class TestSimulatorRobustness:
    def _single_transfer_plan(self, n_mb=3):
        cluster = single_node(2)
        program = ring_allgather(2)
        dag = build_dag(program.transfers, cluster)
        t01 = next(t for t in dag.tasks if t.src == 0)
        t10 = next(t for t in dag.tasks if t.src == 1)
        tbs = [
            TBProgram(0, 0, [Invocation(t01.task_id, Side.SEND, mb) for mb in range(n_mb)], 16),
            TBProgram(1, 0, [Invocation(t01.task_id, Side.RECV, mb) for mb in range(n_mb)], 16),
            TBProgram(1, 1, [Invocation(t10.task_id, Side.SEND, mb) for mb in range(n_mb)], 16),
            TBProgram(0, 1, [Invocation(t10.task_id, Side.RECV, mb) for mb in range(n_mb)], 16),
        ]
        return ExecutionPlan(
            name="single",
            cluster=cluster,
            program=program,
            dag=dag,
            n_microbatches=n_mb,
            chunk_bytes=MB,
            tb_programs=tbs,
        )

    def test_simulator_reusable_plan(self):
        """Simulating the same plan twice gives identical results."""
        plan = self._single_transfer_plan()
        first = Simulator(plan).run()
        second = Simulator(plan).run()
        assert first.completion_time_us == pytest.approx(
            second.completion_time_us
        )
        assert first.completion_order == second.completion_order

    def test_determinism_across_runs(self):
        cluster = multi_node(2, 4)
        program = hm_allreduce(2, 4)
        backend = ResCCLBackend(max_microbatches=4)
        a = simulate(backend.plan(cluster, program, 32 * MB))
        b = simulate(backend.plan(cluster, program, 32 * MB))
        assert a.completion_time_us == pytest.approx(b.completion_time_us)

    def test_empty_tb_program_allowed(self):
        """A plan whose rank has no work still completes."""
        plan = self._single_transfer_plan()
        plan.tb_programs.append(
            TBProgram(rank=0, tb_index=2, invocations=[], nwarps=16)
        )
        report = simulate(plan)
        assert report.completion_time_us > 0

    def test_link_busy_bounded_by_completion(self):
        plan = self._single_transfer_plan()
        report = simulate(plan)
        for stats in report.link_stats.values():
            assert stats.busy_time <= report.completion_time_us + 1e-6

    def test_infinite_background_flow_never_finishes(self):
        plan = self._single_transfer_plan()
        report = simulate(
            plan, background_traffic=[(("nv:out:0",), 1000.0)]
        )
        assert report.completion_time_us > 0  # run still terminates


class TestMixedWarpSiblings:
    """Micro-batch siblings of one task placed on TBs of different warp
    counts are each timed by their own TB."""

    def _plan(self):
        cluster = single_node(2)
        program = ring_allgather(2)
        dag = build_dag(program.transfers, cluster)
        t01 = next(t for t in dag.tasks if t.src == 0)
        t10 = next(t for t in dag.tasks if t.src == 1)
        tbs = [
            TBProgram(0, 0, [Invocation(t01.task_id, Side.SEND, 0)], 16),
            TBProgram(0, 1, [Invocation(t01.task_id, Side.SEND, 1)], 1),
            TBProgram(1, 0, [Invocation(t01.task_id, Side.RECV, mb) for mb in range(2)], 16),
            TBProgram(1, 1, [Invocation(t10.task_id, Side.SEND, mb) for mb in range(2)], 16),
            TBProgram(0, 2, [Invocation(t10.task_id, Side.RECV, mb) for mb in range(2)], 16),
        ]
        return ExecutionPlan(
            name="mixed-warp",
            cluster=cluster,
            program=program,
            dag=dag,
            n_microbatches=2,
            chunk_bytes=MB,
            tb_programs=tbs,
        )

    def test_one_warp_sender_streams_at_its_own_cap(self):
        plan = self._plan()
        report = simulate(plan)
        one_warp = next(
            s for s in report.tb_stats if s.rank == 0 and s.tb_index == 1
        )
        floor = plan.chunk_bytes / plan.cluster.profile.tb_copy_bandwidth(1)
        assert one_warp.nwarps == 1
        assert one_warp.busy >= floor
        assert report.completion_time_us >= floor
        reference = FromScratchStepSimulator(plan).run()
        assert reference.completion_time_us == report.completion_time_us
