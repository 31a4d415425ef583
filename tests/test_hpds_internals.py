"""Focused tests of HPDS internals: priorities, urgency, link arbitration."""

import pytest

from repro.core.hpds import _priority_key, hpds_schedule
from repro.ir.dag import build_dag
from repro.ir.task import Collective, CommType
from repro.lang.builder import AlgoProgram
from repro.topology import multi_node, single_node
from tests.oracles.compile import ChunkQueue
from tests.oracles.compile import hpds_schedule as reference_schedule

#: The production scheduler and the literal Algorithm 1 reference.
SCHEDULES = {"indexed": hpds_schedule, "reference": reference_schedule}


def program_with(nranks, transfers, gpus_per_node=8):
    program = AlgoProgram.create(
        nranks, Collective.ALLGATHER, gpus_per_node=gpus_per_node
    )
    for src, dst, step, chunk, op in transfers:
        program.transfer(src, dst, step, chunk, op)
    return program


class TestChunkQueue:
    def test_priority_by_service_count(self):
        queue = ChunkQueue([0, 1, 2])
        flags = {0: True, 1: True, 2: True}
        assert queue.highest_with_flag(flags) == 0  # id tie-break
        queue.decrease(0)
        assert queue.highest_with_flag(flags) == 1
        queue.decrease(1)
        queue.decrease(2)
        assert queue.highest_with_flag(flags) == 0  # round completed

    def test_urgency_breaks_service_ties(self):
        queue = ChunkQueue([0, 1])
        queue.set_urgency(1, 5)
        assert queue.highest_with_flag({0: True, 1: True}) == 1

    def test_service_count_dominates_urgency(self):
        queue = ChunkQueue([0, 1])
        queue.set_urgency(0, 100)
        queue.decrease(0)
        assert queue.highest_with_flag({0: True, 1: True}) == 1

    def test_flags_filter(self):
        queue = ChunkQueue([0, 1, 2])
        assert queue.highest_with_flag({0: False, 1: False, 2: True}) == 2
        assert queue.highest_with_flag({0: False, 1: False, 2: False}) == -1

    def test_priority_key_ordering(self):
        """The single priority definition both schedulers share: min-key
        over (served, -urgency, chunk)."""
        # Fewer services wins regardless of urgency...
        assert _priority_key(0, 0, 9) < _priority_key(1, 100, 0)
        # ...then higher urgency...
        assert _priority_key(1, 5, 9) < _priority_key(1, 2, 0)
        # ...then lower chunk id.
        assert _priority_key(1, 5, 3) < _priority_key(1, 5, 4)


@pytest.mark.parametrize("schedule", ["indexed", "reference"])
class TestLinkArbitration:
    def test_earlier_step_task_claims_contested_link_first(self, schedule):
        """Two ready tasks of different chunks share one link; the
        earlier-step one must come first in the schedule."""
        cluster = single_node(4)
        # Chunk 1 at rank 0 (received at step 0) is forwarded at step 5;
        # chunk 0 goes over the same 0->2 link at step 1.
        program = program_with(
            4,
            [
                (1, 0, 0, 1, CommType.RECV),  # rank 0 acquires chunk 1
                (0, 2, 1, 0, CommType.RECV),  # early task on link 0->2
                (0, 2, 5, 1, CommType.RECV),  # late task, same link
            ],
            gpus_per_node=4,
        )
        dag = build_dag(program.transfers, cluster)
        pipeline = SCHEDULES[schedule](dag)
        early = next(
            t.task_id for t in dag.tasks if t.step == 1 and t.src == 0
        )
        late = next(
            t.task_id for t in dag.tasks if t.step == 5 and t.src == 0
        )
        assert pipeline.order_key(early) < pipeline.order_key(late)

    def test_urgent_chains_prioritized(self, schedule):
        """Among equally-served chunks, the one heading a longer chain
        is scheduled first."""
        cluster = single_node(8)
        transfers = [(0, 1, 0, 0, CommType.RECV)]  # chunk 0: single hop
        # Chunk 7: a long forwarding chain 7 -> 6 -> 5 -> ... (chain of 5).
        for hop in range(5):
            transfers.append(
                (7 - hop, 6 - hop, hop, 7, CommType.RECV)
            )
        program = program_with(8, transfers)
        dag = build_dag(program.transfers, cluster)
        pipeline = SCHEDULES[schedule](dag)
        chain_root = next(
            t.task_id for t in dag.tasks if t.chunk == 7 and t.step == 0
        )
        single_hop = next(
            t.task_id for t in dag.tasks if t.chunk == 0
        )
        # The chain head outranks the isolated hop in the first wavefront.
        assert pipeline.order_key(chain_root) < pipeline.order_key(single_hop)

    def test_deferred_task_scheduled_in_later_subpipeline(self, schedule):
        """The link guard defers, never drops: everything still lands."""
        cluster = multi_node(2, 4)
        from repro.algorithms import hm_allreduce

        dag = build_dag(hm_allreduce(2, 4).transfers, cluster)
        pipeline = SCHEDULES[schedule](dag)
        pipeline.check_complete(dag)

    def test_inter_link_step_order_preserved(self, schedule):
        """On a shared NIC link, scheduled order follows step order for
        ready tasks (the Figure-5 inversion bug regression test)."""
        cluster = multi_node(2, 4)
        from repro.algorithms import hm_allreduce

        dag = build_dag(hm_allreduce(2, 4).transfers, cluster)
        pipeline = SCHEDULES[schedule](dag)
        for link, task_ids in dag.link_tasks.items():
            if not link.startswith("nic"):
                continue
            ordered = sorted(task_ids, key=pipeline.order_key)
            steps = [dag.task(t).step for t in ordered]
            assert steps == sorted(steps), link
