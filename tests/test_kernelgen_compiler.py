"""Tests for kernel generation and the offline compiler."""

import pytest

from repro.algorithms import hm_allreduce, ring_allgather
from repro.core import ResCCLCompiler, allocate_tbs, hpds_schedule
from repro.core.kernelgen import lower_to_programs, render_kernel_source
from repro.ir.dag import build_dag
from repro.lang.validate import ProgramValidationError
from repro.runtime.plan import Side
from repro.topology import multi_node, single_node


@pytest.fixture
def compiled_ring():
    cluster = single_node(4)
    return ResCCLCompiler().compile(ring_allgather(4), cluster)


class TestLowering:
    def test_task_level_invocation_order(self):
        """Each task runs all micro-batches before the TB moves on."""
        cluster = single_node(4)
        dag = build_dag(ring_allgather(4).transfers, cluster)
        pipeline = hpds_schedule(dag)
        programs = lower_to_programs(allocate_tbs(dag, pipeline), 3, nwarps=16)
        for tb in programs:
            seen_done = set()
            current = None
            for inv in tb.invocations:
                key = (inv.task_id, inv.side)
                if key != current:
                    assert key not in seen_done, "task resumed after leaving"
                    if current is not None:
                        seen_done.add(current)
                    current = key
                    assert inv.mb == 0
            # micro-batches within one task strictly ascend
            by_task = {}
            for inv in tb.invocations:
                by_task.setdefault((inv.task_id, inv.side), []).append(inv.mb)
            for mbs in by_task.values():
                assert mbs == sorted(mbs)
                assert mbs == list(range(len(mbs)))

    def test_all_sides_lowered(self):
        cluster = multi_node(2, 4)
        dag = build_dag(hm_allreduce(2, 4).transfers, cluster)
        pipeline = hpds_schedule(dag)
        n_mb = 2
        programs = lower_to_programs(allocate_tbs(dag, pipeline), n_mb, nwarps=16)
        total = sum(len(tb.invocations) for tb in programs)
        assert total == 2 * len(dag) * n_mb

    def test_nwarps_propagated(self):
        cluster = single_node(4)
        dag = build_dag(ring_allgather(4).transfers, cluster)
        pipeline = hpds_schedule(dag)
        programs = lower_to_programs(allocate_tbs(dag, pipeline), 1, nwarps=12)
        assert all(tb.nwarps == 12 for tb in programs)


def lowered(compiled, n_mb):
    """The TB programs a plan with ``n_mb`` micro-batches runs."""
    assignments = allocate_tbs(
        compiled.dag, compiled.pipeline, pipelining_allowance=n_mb
    )
    return lower_to_programs(assignments, n_mb, nwarps=16)


def listing(compiled, rank, n_mb=1):
    return render_kernel_source(
        rank, lowered(compiled, n_mb), compiled.dag, compiled.program.name
    )


class TestKernelSource:
    def test_listing_has_three_dimensions(self, compiled_ring):
        source = listing(compiled_ring, 0, n_mb=4)
        # Rank dimension: one kernel per rank.
        assert "_r0" in source
        # TB dimension: switch over blockIdx.
        assert "switch (blockIdx.x)" in source
        assert "case 0:" in source
        # Pipeline dimension: per-primitive micro-batch loops.
        assert "for (int mb = 0; mb < 4; ++mb)" in source

    def test_listing_uses_primitive_vocabulary(self):
        cluster = multi_node(2, 4)
        compiled = ResCCLCompiler().compile(hm_allreduce(2, 4), cluster)
        source = listing(compiled, 0, n_mb=2)
        assert "send(" in source
        assert "recvReduceCopy(" in source

    def test_one_time_load(self, compiled_ring):
        source = listing(compiled_ring, 1)
        assert "load_pipeline" in source
        assert source.count("load_pipeline") == 1

    @pytest.mark.parametrize("n_mb", [1, 3, 8])
    def test_listing_renders_the_lowered_programs(self, n_mb):
        """One arm per lowered TB; one loop per (task, side) run."""
        cluster = multi_node(2, 4)
        compiled = ResCCLCompiler().compile(hm_allreduce(2, 4), cluster)
        programs = lowered(compiled, n_mb)
        rank_tbs = [tb for tb in programs if tb.rank == 0]
        source = render_kernel_source(0, programs, compiled.dag, "hm")
        assert source.count("  case ") == len(rank_tbs)
        loops = source.count(f"for (int mb = 0; mb < {n_mb}; ++mb)")
        assert loops * n_mb == sum(len(tb) for tb in rank_tbs)


class TestCompiler:
    def test_phase_times_recorded(self, compiled_ring):
        times = compiled_ring.phase_times_us
        assert set(times) == {"parsing", "analysis", "scheduling"}
        assert all(t >= 0 for t in times.values())
        assert compiled_ring.total_time_us == sum(times.values())

    def test_compile_from_source(self):
        cluster = single_node(4)
        source = ring_allgather(4).to_source()
        compiled = ResCCLCompiler().compile(source, cluster)
        assert len(compiled.dag) == 12
        assert compiled.phase_times_us["parsing"] > 0

    def test_pipeline_invariants_enforced(self, compiled_ring):
        compiled_ring.pipeline.check_all(compiled_ring.dag)

    def test_scheduler_selection(self):
        cluster = single_node(4)
        rr = ResCCLCompiler(scheduler="rr").compile(ring_allgather(4), cluster)
        assert rr.pipeline.scheduler == "rr"
        with pytest.raises(ValueError, match="unknown scheduler"):
            ResCCLCompiler(scheduler="sjf")

    def test_invalid_program_rejected(self):
        from repro.ir.task import Collective
        from repro.lang.builder import AlgoProgram

        cluster = single_node(4)
        bad = AlgoProgram.create(4, Collective.ALLGATHER)
        bad.transfer(0, 1, 0, 99, "recv")  # chunk out of range
        with pytest.raises(ProgramValidationError):
            ResCCLCompiler().compile(bad, cluster)

    def test_validation_can_be_disabled(self):
        from repro.ir.task import Collective
        from repro.lang.builder import AlgoProgram

        cluster = single_node(4)
        partial = AlgoProgram.create(4, Collective.ALLGATHER)
        partial.transfer(0, 1, 0, 0, "recv")
        compiled = ResCCLCompiler(validate=False).compile(partial, cluster)
        assert len(compiled.dag) == 1
