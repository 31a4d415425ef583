"""Shared plumbing for baseline backend plan construction.

Both baselines — and the execution-granularity taxonomy of section 2.1 —
are expressed through how they *order invocations inside TB programs*:

* **algorithm-level** ordering iterates micro-batches in the outer loop
  (``for mb: for task: ...``): the whole algorithm is lazily re-executed
  per micro-batch, so every data-dependency stall repeats ``n`` times;
* **task-level** ordering iterates tasks outermost (``for task: for mb``):
  one task streams all of its micro-batches back-to-back, which is
  ResCCL's execution granularity.

Within one (micro-batch, step) group, SEND invocations are emitted before
RECV invocations: with credit-based buffered connections a sender never
blocks on its receiver's program position, which makes send-first
ordering deadlock-free for the algorithms in this repository.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from ..ir.dag import DependencyDAG
from ..ir.task import TransmissionTask
from ..runtime.plan import Invocation, Side

#: (rank, side, peer) — the connection-endpoint a task occupies.
Endpoint = Tuple[int, Side, int]

#: (rank, label, tasks) — one baseline TB as its plan structure fixes it,
#: before micro-batches are laid out.
TBGroup = Tuple[int, str, List[TransmissionTask]]


def endpoint_of(task: TransmissionTask, side: Side) -> Endpoint:
    """The connection endpoint executing one side of a task."""
    if side is Side.SEND:
        return (task.src, Side.SEND, task.dst)
    return (task.dst, Side.RECV, task.src)


def group_by_endpoint(
    tasks: Iterable[TransmissionTask],
) -> Dict[Endpoint, List[TransmissionTask]]:
    """Connection-based grouping: one group per (rank, side, peer).

    This is the rigid allocation of existing backends (section 4.4):
    every group becomes a dedicated TB unless a backend merges further.
    """
    groups: Dict[Endpoint, List[TransmissionTask]] = defaultdict(list)
    for task in tasks:
        groups[endpoint_of(task, Side.SEND)].append(task)
        groups[endpoint_of(task, Side.RECV)].append(task)
    for members in groups.values():
        members.sort(key=lambda t: (t.step, t.task_id))
    return groups


def _ordered_sides(
    tasks: Sequence[TransmissionTask], rank: int
) -> List[Tuple[TransmissionTask, Side]]:
    """Order a rank's task-sides by (step, send-before-recv, task id)."""
    entries: List[Tuple[TransmissionTask, Side]] = []
    for task in tasks:
        if task.src == rank:
            entries.append((task, Side.SEND))
        if task.dst == rank:
            entries.append((task, Side.RECV))
    entries.sort(
        key=lambda pair: (pair[0].step, pair[1] is Side.RECV, pair[0].task_id)
    )
    return entries


def algorithm_level_order(
    tasks: Sequence[TransmissionTask],
    rank: int,
    microbatches: Iterable[int],
) -> List[Invocation]:
    """Algorithm-level (lazy) invocation order for one rank's task set."""
    sides = _ordered_sides(tasks, rank)
    return [
        Invocation(task_id=task.task_id, side=side, mb=mb)
        for mb in microbatches
        for task, side in sides
    ]


def task_level_order(
    task_sides: Sequence[Tuple[TransmissionTask, Side]],
    n_microbatches: int,
) -> List[Invocation]:
    """Task-level invocation order: each task runs all its micro-batches."""
    return [
        Invocation(task_id=task.task_id, side=side, mb=mb)
        for task, side in task_sides
        for mb in range(n_microbatches)
    ]


def stripe_microbatches(n_microbatches: int, channels: int) -> List[List[int]]:
    """Partition micro-batches round-robin over parallel channels.

    Channel ``k`` processes micro-batches ``k, k+channels, ...`` — the
    channel/instance parallelism NCCL and MSCCL use to put more TBs on a
    link (section 2.2's "additional transmission channels").
    """
    if channels < 1:
        raise ValueError(f"need at least one channel, got {channels}")
    channels = min(channels, n_microbatches) or 1
    return [list(range(k, n_microbatches, channels)) for k in range(channels)]


def tasks_by_stage(
    dag: DependencyDAG, stage_starts: Sequence[int]
) -> List[List[TransmissionTask]]:
    """Split the task set into the program's manual stages."""
    starts = sorted(stage_starts)
    stages: List[List[TransmissionTask]] = [[] for _ in starts]
    for task in dag.tasks:
        index = 0
        for i, start in enumerate(starts):
            if task.step >= start:
                index = i
        stages[index].append(task)
    return stages


__all__ = [
    "Endpoint",
    "TBGroup",
    "endpoint_of",
    "group_by_endpoint",
    "algorithm_level_order",
    "task_level_order",
    "stripe_microbatches",
    "tasks_by_stage",
]
