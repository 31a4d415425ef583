"""Tests for dependency-DAG construction (data + communication deps)."""

from pathlib import Path

import pytest

from repro.ir import (
    Collective,
    CommType,
    CyclicDependencyError,
    Transfer,
    build_dag,
)
from repro.lang.builder import AlgoProgram
from repro.topology import multi_node, single_node
from tests.oracles import compile as oracle


def _t(src, dst, step, chunk, op=CommType.RECV):
    return Transfer(src=src, dst=dst, step=step, chunk=chunk, op=op)


class TestDataDependencies:
    def test_read_after_write(self):
        # r0 -> r1 (chunk 0), then r1 forwards it: RAW on (r1, c0).
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 0)], cluster)
        assert dag.preds[1] == {0}
        assert dag.succs[0] == {1}

    def test_write_after_write_serializes_rrc_chain(self):
        # Two reductions into (r2, c0) at different steps: WAW edge.
        cluster = single_node(4)
        dag = build_dag(
            [_t(0, 2, 0, 0, CommType.RRC), _t(1, 2, 1, 0, CommType.RRC)],
            cluster,
        )
        assert dag.preds[1] == {0}

    def test_write_after_read(self):
        # r1 reads its chunk 0 at step 0 (sends it), then a recv overwrites
        # (r1, c0) at step 1: WAR edge.
        cluster = single_node(4)
        dag = build_dag([_t(1, 2, 0, 0), _t(0, 1, 1, 0)], cluster)
        assert dag.preds[1] == {0}

    def test_same_step_no_dependency(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(2, 3, 0, 2)], cluster)
        assert dag.edge_count == 0

    def test_different_chunks_independent(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 1)], cluster)
        assert dag.edge_count == 0

    def test_read_then_later_read_no_edge(self):
        # Two sends of the same chunk from the same rank: both reads.
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(0, 2, 1, 0)], cluster)
        assert dag.edge_count == 0

    def test_chain_depth(self):
        cluster = single_node(8)
        transfers = [_t(i, i + 1, i, 0) for i in range(7)]
        dag = build_dag(transfers, cluster)
        assert dag.critical_path_length() == 7


class TestCommDependencies:
    def test_intra_tasks_same_pair_share_link(self):
        cluster = multi_node(2, 4)
        dag = build_dag([_t(0, 1, 0, 0), _t(0, 1, 1, 1)], cluster)
        assert set(dag.comm_conflicts(0)) == {1}

    def test_intra_tasks_different_pairs_no_conflict(self):
        cluster = multi_node(2, 4)
        dag = build_dag([_t(0, 1, 0, 0), _t(0, 2, 0, 1)], cluster)
        assert dag.comm_conflicts(0) == []

    def test_inter_tasks_sharing_nic_conflict(self):
        cluster = multi_node(2, 8)
        # GPUs 0 and 1 share NIC 0; both send to node 1.
        dag = build_dag([_t(0, 8, 0, 0), _t(1, 9, 0, 1)], cluster)
        assert set(dag.comm_conflicts(0)) == {1}


class TestStructure:
    def test_roots(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 0), _t(2, 3, 0, 2)], cluster)
        assert set(dag.roots()) == {0, 2}

    def test_topological_order_valid(self):
        from repro.algorithms import hm_allreduce

        program = hm_allreduce(2, 4)
        dag = build_dag(program.transfers, multi_node(2, 4))
        order = dag.topological_order()
        position = {tid: i for i, tid in enumerate(order)}
        for producer, consumer in dag.edges():
            assert position[producer] < position[consumer]

    def test_cycle_detection(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 0)], cluster)
        dag.add_edge(1, 0)  # inject a cycle
        with pytest.raises(CyclicDependencyError):
            dag.topological_order()
        assert not dag.is_acyclic()

    def test_chunk_grouping(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 0), _t(2, 3, 0, 2)], cluster)
        assert set(dag.chunk_tasks[0]) == {0, 1}
        assert set(dag.chunk_tasks[2]) == {2}

    def test_networkx_export(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 0)], cluster)
        graph = dag.to_networkx()
        assert graph.number_of_nodes() == 2
        assert graph.has_edge(0, 1)
        assert graph.nodes[0]["task"].src == 0

    def test_all_builtin_algorithms_acyclic(self):
        from repro.algorithms import (
            double_binary_tree_allreduce,
            hm_allgather,
            hm_allreduce,
            hm_reducescatter,
            ring_allgather,
            ring_allreduce,
        )

        cluster = multi_node(2, 4)
        programs = [
            ring_allgather(8),
            ring_allreduce(8),
            double_binary_tree_allreduce(8),
            hm_allgather(2, 4),
            hm_reducescatter(2, 4),
            hm_allreduce(2, 4),
        ]
        for program in programs:
            dag = build_dag(program.transfers, cluster)
            assert dag.is_acyclic(), program.name


_EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "algorithms"


def _program_sources():
    """Every program source the repo ships: built-ins, the TACCL/TECCL
    synthesizers and the example corpus."""
    from repro.algorithms import available_algorithms

    specs = list(available_algorithms())
    specs += [f"{synth}:{coll}" for synth in ("taccl", "teccl")
              for coll in ("allgather", "allreduce", "reducescatter")]
    return specs + sorted(path.name for path in _EXAMPLES.glob("*.rescclang"))


class TestAcyclicByConstruction:
    """Every hazard edge runs from a lower DSL step to a strictly higher
    one, so DAGs built from programs are acyclic by construction (the
    validator's cycle check is only a guard)."""

    @pytest.mark.parametrize("source", _program_sources())
    def test_every_edge_climbs_in_step(self, source):
        from repro.lang import parse_program
        from repro.request import resolve_spec

        if source.endswith(".rescclang"):
            program = parse_program((_EXAMPLES / source).read_text())
            gpus = program.header.gpus_per_node
            cluster = multi_node(program.nranks // gpus, gpus)
        else:
            cluster = multi_node(2, 4)
            program = resolve_spec(source, cluster)
        dag = build_dag(program.transfers, cluster)
        for producer, consumer in dag.edges():
            assert dag.task(producer).step < dag.task(consumer).step


class TestBuildChecks:
    """The well-formedness facts build_dag records for validation."""

    def test_rank_outside_cluster_raises(self):
        from repro.ir.dag import RankRangeError

        with pytest.raises(RankRangeError, match="transfer #1: rank 4 out of range"):
            build_dag([_t(0, 1, 0, 0), _t(1, 4, 1, 0)], single_node(4))

    @pytest.mark.parametrize(
        "transfers, flagged",
        [
            ([_t(0, 1, 0, 0), _t(2, 3, 0, 0)], False),  # distinct slots
            ([_t(0, 1, 0, 0), _t(0, 1, 0, 0)], True),  # duplicate
            ([_t(0, 1, 0, 0), _t(2, 1, 0, 0)], True),  # same-step writers
            ([_t(0, 1, 0, 0), _t(2, 1, 1, 0)], False),  # later step: WAW edge
        ],
    )
    def test_write_conflict_flag(self, transfers, flagged):
        dag = build_dag(transfers, single_node(4))
        assert dag.write_conflict is flagged
        assert max(dag.chunk_tasks) == 0


class TestTransferValidation:
    def test_self_transfer_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            _t(1, 1, 0, 0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            Transfer(src=0, dst=1, step=-1, chunk=0, op=CommType.RECV)
        with pytest.raises(ValueError):
            Transfer(src=0, dst=1, step=0, chunk=-2, op=CommType.RECV)


class TestFusedEquivalence:
    """The fused single-pass build replays the reference edge sequence."""

    def _edge_log(self, transfers, cluster, fused):
        log = []
        dag = (
            build_dag(transfers, cluster)
            if fused
            else oracle.build_dag(transfers, cluster)
        )
        # Reconstruct the DAG with a recording add_edge to capture order.
        from repro.ir.dag import DependencyDAG, _hazard_edges

        recorder = DependencyDAG(dag.tasks)
        original = recorder.add_edge

        def record(producer, consumer):
            log.append((producer, consumer))
            original(producer, consumer)

        recorder.add_edge = record
        hazard = _hazard_edges if fused else oracle.hazard_edges
        hazard(recorder, dag.tasks)
        return dag, log

    @pytest.mark.parametrize(
        "builder",
        ["ring-allreduce", "mesh-allreduce", "hm-allreduce", "tree-allreduce"],
    )
    def test_identical_edge_sequence(self, builder):
        from repro.algorithms import build_algorithm

        cluster = multi_node(2, 4)
        program = build_algorithm(builder, cluster)
        fused_dag, fused_log = self._edge_log(
            program.transfers, cluster, fused=True
        )
        ref_dag, ref_log = self._edge_log(
            program.transfers, cluster, fused=False
        )
        assert fused_log == ref_log
        assert fused_dag.preds == ref_dag.preds
        assert fused_dag.succs == ref_dag.succs

    def test_out_of_order_steps_still_identical(self):
        # Feed steps out of emission order so the fused path's per-slot
        # stable sort actually fires.
        cluster = single_node(4)
        transfers = [
            _t(0, 1, 5, 0),
            _t(1, 2, 1, 0),
            _t(0, 1, 1, 1, CommType.RRC),
            _t(2, 1, 3, 0, CommType.RRC),
            _t(1, 3, 5, 1),
        ]
        fused = build_dag(transfers, cluster)
        reference = oracle.build_dag(transfers, cluster)
        assert fused.preds == reference.preds
        assert fused.succs == reference.succs

    def test_topological_order_cached_and_invalidated(self):
        cluster = single_node(4)
        dag = build_dag([_t(0, 1, 0, 0), _t(1, 2, 1, 0)], cluster)
        first = dag.topological_order()
        assert dag.topological_order() == first
        dag.add_edge(0, 1)  # already present logically, but invalidates
        assert dag.topological_order() == first

    def test_import_does_not_pull_networkx(self):
        """repro.ir.dag must not import networkx at module load; only
        to_networkx() (and solver exports elsewhere) may."""
        import subprocess
        import sys

        code = (
            "import sys; import repro.ir.dag; import repro.core.hpds; "
            "import repro.core.tballoc; import repro.core.compiler; "
            "sys.exit(1 if 'networkx' in sys.modules else 0)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert proc.returncode == 0
