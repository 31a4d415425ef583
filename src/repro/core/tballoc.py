"""Flexible, state-based thread-block allocation (section 4.4).

Existing backends allocate one TB per connection *per stage/channel*,
leaving many TBs idle for most of the kernel.  ResCCL instead:

1. starts from connection endpoints — one executor per
   (rank, direction, peer), covering that connection across the *whole*
   pipeline rather than per stage;
2. runs a timeline analysis over the scheduled pipeline: each endpoint's
   active window is the span of list-scheduled execution slots its tasks
   occupy (see :func:`timeline_slots`);
3. merges endpoints on the same rank whose windows never overlap
   (``active(l_i) ∩ active(l_j) = ∅``), packing serially-active
   connections onto one TB with classic interval-scheduling greedy
   allocation — optimal in the number of TBs for the window model.

The result is the Equation 7 reduction: ``|TB|`` drops from the number of
connection endpoints to the number of *concurrently* active ones.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir.dag import DependencyDAG
from ..obs.spans import span as obs_span
from ..runtime.plan import Side
from .pipeline import GlobalPipeline


@dataclass
class EndpointGroup:
    """One connection endpoint's scheduled work.

    Attributes:
        rank: owning GPU.
        side: SEND or RECV role.
        peer: the GPU on the other end of the connection.
        task_ids: tasks, ordered by pipeline position.
        window: (first, last) timeline slot in which the endpoint is
            active (see :func:`timeline_slots`).
    """

    rank: int
    side: Side
    peer: int
    task_ids: List[int]
    window: Tuple[int, int]


@dataclass
class TBAssignment:
    """One allocated thread block: merged endpoint groups, in time order."""

    rank: int
    groups: List[EndpointGroup] = field(default_factory=list)

    @property
    def window(self) -> Tuple[int, int]:
        return (self.groups[0].window[0], self.groups[-1].window[1])

    def ordered_sides(self) -> List[Tuple[int, Side]]:
        """The TB's (task, side) sequence across its merged endpoints."""
        return [
            (task_id, group.side)
            for group in self.groups
            for task_id in group.task_ids
        ]

    @property
    def label(self) -> str:
        parts = [
            f"{g.side.value}{'->' if g.side is Side.SEND else '<-'}r{g.peer}"
            for g in self.groups
        ]
        return "resccl:" + "+".join(parts)


def timeline_slots(dag: DependencyDAG, pipeline: GlobalPipeline) -> Dict[int, int]:
    """Static timeline analysis: a discrete execution slot per task.

    List scheduling in pipeline order: a task runs one slot after its last
    data-dependency producer, and no earlier than its link's next free
    slot (one task per link per slot).  The resulting slots approximate
    *when* each connection is active — the ``active_l(t)`` intervals of
    section 4.4.
    """
    # The pipeline's own task sequence IS the sort the old implementation
    # recomputed: ordered_task_ids() enumerates (sub-pipeline, slot)
    # order, which is exactly sorting every task by order_key.  Slots
    # live in a dense array during the pass (task ids are dense); -1
    # marks not-yet-scheduled, matching the old ``p in slots`` guard.
    order = pipeline.ordered_task_ids()
    dense: List[int] = [-1] * len(dag.tasks)
    link_free: Dict[str, int] = {}
    tasks = dag.tasks
    preds = dag.preds
    for task_id in order:
        slot = 0
        for p in preds[task_id]:
            sp = dense[p]
            if sp >= slot:
                slot = sp + 1
        link = tasks[task_id].link
        free = link_free.get(link, 0)
        if free > slot:
            slot = free
        dense[task_id] = slot
        link_free[link] = slot + 1
    return {task_id: dense[task_id] for task_id in order}


def build_endpoint_groups(
    dag: DependencyDAG, pipeline: GlobalPipeline
) -> List[EndpointGroup]:
    """Connection-endpoint grouping with timeline-analysis windows.

    Tasks are sorted once, globally, by ``(slot, order_key)`` — a total
    order, so appending them to each endpoint's member list leaves every
    list in exactly the per-endpoint sorted order — in timeline order:
    the list-scheduled slot is when the task can actually run, which
    beats raw pipeline position when a wavefront packs long chains.
    Windows fall out of the ends of each sorted member list.
    """
    slots = timeline_slots(dag, pipeline)
    tasks = dag.tasks
    # ordered_task_ids() is already the order_key sort, so a *stable*
    # sort by slot alone yields exactly the old (slot, order_key) total
    # order without building a key tuple per task.
    timeline_order = sorted(pipeline.ordered_task_ids(), key=slots.__getitem__)
    # Sides are encoded as 0 (SEND) / 1 (RECV) while grouping — tuple
    # hashing over plain ints is much cheaper than over enum members.
    members: Dict[Tuple[int, int, int], List[int]] = {}
    for task_id in timeline_order:
        tr = tasks[task_id].transfer  # plain fields, no property calls
        for key in (
            (tr.src, 0, tr.dst),
            (tr.dst, 1, tr.src),
        ):
            bucket = members.get(key)
            if bucket is None:
                members[key] = [task_id]
            else:
                bucket.append(task_id)
    groups: List[EndpointGroup] = []
    for (rank, side_recv, peer), task_ids in members.items():
        groups.append(
            EndpointGroup(
                rank=rank,
                side=Side.RECV if side_recv else Side.SEND,
                peer=peer,
                task_ids=task_ids,
                window=(slots[task_ids[0]], slots[task_ids[-1]]),
            )
        )
    groups.sort(key=lambda g: (g.rank, g.window, g.side is Side.RECV, g.peer))
    return groups


def _merge_rank(
    groups: List[EndpointGroup],
    rank: int,
    pipelining_allowance: int,
) -> Tuple[List[TBAssignment], int, int]:
    """Best-fit merge through a sorted-by-window-end index.

    Open TBs live in a list kept sorted by ``(window_end, -creation)``.
    Best fit picks the TB with the *largest* end strictly below the
    window start (minus the allowance), breaking ties toward the
    earliest-created TB — which is exactly the rightmost index entry
    below the threshold, because equal ends sort by descending creation
    order.  Each endpoint costs one bisect plus one ordered reinsertion
    instead of a scan over every open TB; the assignment is identical to
    the linear-scan reference in ``tests/oracles/`` by construction.
    """
    merges_accepted = 0
    merges_rejected = 0
    open_tbs: List[TBAssignment] = []
    # Entries are (window_end, -creation_index, tb); creation indexes are
    # unique per rank so the TBAssignment itself is never compared.
    index: List[Tuple[int, int, TBAssignment]] = []
    for group in groups:  # already sorted by window start
        threshold = group.window[0] - pipelining_allowance
        pos = bisect_left(index, (threshold,))
        if pos == 0:
            if open_tbs:
                merges_rejected += 1
            tb = TBAssignment(rank=rank)
            seq = len(open_tbs)
            open_tbs.append(tb)
        else:
            _, neg_seq, tb = index.pop(pos - 1)
            seq = -neg_seq
            merges_accepted += 1
        tb.groups.append(group)
        insort(index, (group.window[1], -seq, tb))
    return open_tbs, merges_accepted, merges_rejected


def allocate_tbs(
    dag: DependencyDAG,
    pipeline: GlobalPipeline,
    pipelining_allowance: int = 0,
) -> List[TBAssignment]:
    """State-based allocation: merge serially-active endpoints per rank.

    Greedy interval scheduling: endpoints are taken in window-start
    order; each goes to the existing TB whose last window ended most
    recently but still strictly before this endpoint's window starts,
    or to a fresh TB when every TB's window overlaps.

    ``pipelining_allowance`` widens every window on the right by that
    many slots before testing disjointness: under task-level execution a
    connection's last task keeps streaming micro-batches past its static
    slot, so merging across a smaller gap would serialize work that
    actually overlaps.  Backends pass a value derived from the
    micro-batch count.
    """
    with obs_span("tballoc") as sp:
        by_rank: Dict[int, List[EndpointGroup]] = defaultdict(list)
        endpoint_count = 0
        for group in build_endpoint_groups(dag, pipeline):
            by_rank[group.rank].append(group)
            endpoint_count += 1

        merges_accepted = 0
        merges_rejected = 0
        assignments: List[TBAssignment] = []
        for rank in sorted(by_rank):
            open_tbs, accepted, rejected = _merge_rank(
                by_rank[rank], rank, pipelining_allowance
            )
            merges_accepted += accepted
            merges_rejected += rejected
            assignments.extend(open_tbs)
        sp.set(
            endpoints=endpoint_count,
            tbs=len(assignments),
            merges_accepted=merges_accepted,
            merges_rejected=merges_rejected,
        )
    return assignments


def connection_endpoint_count(dag: DependencyDAG) -> int:
    """TBs a rigid connection-based allocation would need (for reporting)."""
    endpoints = set()
    for task in dag.tasks:
        endpoints.add((task.src, Side.SEND, task.dst))
        endpoints.add((task.dst, Side.RECV, task.src))
    return len(endpoints)


__all__ = [
    "EndpointGroup",
    "TBAssignment",
    "timeline_slots",
    "build_endpoint_groups",
    "allocate_tbs",
    "connection_endpoint_count",
]
