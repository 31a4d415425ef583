"""Tests for state-based TB allocation (section 4.4)."""

import pytest

from repro.algorithms import hm_allgather, hm_allreduce, ring_allgather
from repro.core import (
    allocate_tbs,
    build_endpoint_groups,
    connection_endpoint_count,
    hpds_schedule,
)
from repro.ir.dag import build_dag
from repro.runtime.plan import Side
from repro.topology import multi_node, single_node
from tests.oracles import compile as oracle


def compiled(program, cluster):
    dag = build_dag(program.transfers, cluster)
    pipeline = hpds_schedule(dag)
    return dag, pipeline


class TestEndpointGroups:
    def test_groups_cover_all_task_sides(self):
        dag, pipeline = compiled(ring_allgather(4), single_node(4))
        groups = build_endpoint_groups(dag, pipeline)
        sides = sum(len(g.task_ids) for g in groups)
        assert sides == 2 * len(dag)

    def test_ring_has_one_send_one_recv_endpoint_per_rank(self):
        dag, pipeline = compiled(ring_allgather(4), single_node(4))
        groups = build_endpoint_groups(dag, pipeline)
        rank0 = [g for g in groups if g.rank == 0]
        assert len(rank0) == 2
        assert {g.side for g in rank0} == {Side.SEND, Side.RECV}

    def test_window_ordering_within_group(self):
        dag, pipeline = compiled(hm_allreduce(2, 4), multi_node(2, 4))
        for group in build_endpoint_groups(dag, pipeline):
            keys = [pipeline.order_key(t) for t in group.task_ids]
            assert keys == sorted(keys)
            lo, hi = group.window
            assert lo <= hi


class TestAllocation:
    def test_hm_allreduce_matches_table3_tb_count(self):
        """Table 3 Topo2 (2 servers x 8 GPUs), expert AllReduce: ResCCL
        uses 16 TBs per rank (8 send + 8 recv endpoints), vs MSCCL's 30."""
        dag, pipeline = compiled(hm_allreduce(2, 8), multi_node(2, 8))
        assignments = allocate_tbs(dag, pipeline)
        per_rank = [
            len([a for a in assignments if a.rank == r]) for r in range(16)
        ]
        assert max(per_rank) == 16

    def test_hm_topo1_matches_table3(self):
        """Table 3 Topo1 (2 servers x 4 GPUs): ResCCL 8 TBs per rank."""
        dag, pipeline = compiled(hm_allreduce(2, 4), multi_node(2, 4))
        assignments = allocate_tbs(dag, pipeline)
        per_rank = [
            len([a for a in assignments if a.rank == r]) for r in range(8)
        ]
        assert max(per_rank) == 8

    def test_never_more_than_connection_count(self):
        for program, cluster in [
            (hm_allgather(2, 4), multi_node(2, 4)),
            (hm_allreduce(2, 8), multi_node(2, 8)),
            (ring_allgather(8), single_node(8)),
        ]:
            dag, pipeline = compiled(program, cluster)
            assignments = allocate_tbs(dag, pipeline)
            assert len(assignments) <= connection_endpoint_count(dag)

    def test_merged_groups_have_disjoint_windows(self):
        dag, pipeline = compiled(hm_allreduce(2, 8), multi_node(2, 8))
        for tb in allocate_tbs(dag, pipeline):
            for earlier, later in zip(tb.groups, tb.groups[1:]):
                assert earlier.window[1] < later.window[0]

    def test_all_task_sides_assigned_exactly_once(self):
        dag, pipeline = compiled(hm_allreduce(2, 4), multi_node(2, 4))
        assignments = allocate_tbs(dag, pipeline)
        seen = set()
        for tb in assignments:
            for task_id, side in tb.ordered_sides():
                key = (task_id, side)
                assert key not in seen
                seen.add(key)
        assert len(seen) == 2 * len(dag)

    def test_merging_happens_for_serial_connections(self):
        """A program whose connections are active in disjoint phases
        merges them onto shared TBs."""
        from repro.ir.task import Collective, CommType
        from repro.lang.builder import AlgoProgram

        # Rank 0 streams chunks 0-3 to rank 1 (slots 0-3 on one link);
        # only after the last one does rank 1 bounce chunk 3 back, and
        # rank 0 forwards it to rank 2 — so the 0->2 send endpoint's
        # active window starts after the 0->1 endpoint's window ends.
        program = AlgoProgram.create(4, Collective.ALLGATHER, name="phased")
        for step in range(4):
            program.transfer(0, 1, step, step, CommType.RECV)
        program.transfer(1, 0, 4, 3, CommType.RRC)
        program.transfer(0, 2, 5, 3, CommType.RECV)
        dag = build_dag(program.transfers, single_node(4))
        pipeline = hpds_schedule(dag)
        assignments = allocate_tbs(dag, pipeline)
        rank0 = [a for a in assignments if a.rank == 0]
        merged = [a for a in rank0 if len(a.groups) > 1]
        assert merged, "expected at least one merged TB on rank 0"

    def test_labels_describe_endpoints(self):
        dag, pipeline = compiled(ring_allgather(4), single_node(4))
        labels = {tb.label for tb in allocate_tbs(dag, pipeline)}
        assert any("send->r" in label for label in labels)
        assert any("recv<-r" in label for label in labels)


class TestIndexedEquivalence:
    """The sorted-index merge reproduces the reference best-fit exactly."""

    def _fingerprint(self, assignments):
        return [
            (
                tb.rank,
                [
                    (g.side, g.peer, tuple(g.task_ids), g.window)
                    for g in tb.groups
                ],
            )
            for tb in assignments
        ]

    @pytest.mark.parametrize("allowance", [0, 1, 3, 16])
    def test_identical_assignments_across_allowances(self, allowance):
        for program, cluster in [
            (hm_allreduce(2, 8), multi_node(2, 8)),
            (hm_allgather(2, 4), multi_node(2, 4)),
            (ring_allgather(8), single_node(8)),
        ]:
            dag, pipeline = compiled(program, cluster)
            indexed = allocate_tbs(
                dag, pipeline, pipelining_allowance=allowance
            )
            reference = oracle.allocate_tbs(
                dag, pipeline, pipelining_allowance=allowance
            )
            assert self._fingerprint(indexed) == self._fingerprint(reference)

    def test_timeline_slots_pipeline_order(self):
        """ordered_task_ids() is the (sub-pipeline, slot) sort the old
        implementation recomputed, so slots are unchanged."""
        from repro.core.tballoc import timeline_slots

        dag, pipeline = compiled(hm_allreduce(2, 4), multi_node(2, 4))
        slots = timeline_slots(dag, pipeline)
        resorted = sorted(
            (t.task_id for t in dag.tasks), key=pipeline.order_key
        )
        assert resorted == pipeline.ordered_task_ids()
        assert set(slots) == {t.task_id for t in dag.tasks}
