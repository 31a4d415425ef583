"""Hierarchical Priority-based Dynamic Scheduling — the paper's Algorithm 1.

HPDS builds the global task pipeline by repeatedly constructing
sub-pipelines.  Within one sub-pipeline it visits per-chunk DAGs ``G[C]``
in priority order, extracting every task whose data dependencies are
already scheduled (in *earlier* sub-pipelines) and whose link is not yet
claimed by the current sub-pipeline.  Chunks that contributed recently
lose priority ("tasks with lower execution frequency — underutilized
chunks — are assigned higher priority"), which balances load across
chunks and keeps inter- and intra-machine task chains in separate
wavefronts — the bubble-minimization property of section 4.3.

Algorithm 1 read literally is O(sub-pipelines x chunks x tasks): a full
chunk scan per pick, a full remaining-task scan per chunk visit, and a
per-link ready-set scan per candidate.  The scheduler here reaches
near-linearithmic cost by replacing every scan with an
incrementally-maintained index: a lazy-deletion heap over chunks keyed
by :func:`_priority_key`, per-chunk ready heaps drained in ascending
task id, per-link min-heaps keyed by ``(step, task_id)`` for
communication-dependency arbitration, and per-chunk lazy max-heaps that
maintain critical-path urgency without re-maxing the ready set.

The literal scan-based version lives in ``tests/oracles/compile.py``.
``tests/test_hpds_indexed.py`` proves the two produce bit-identical
pipelines over the DSL corpus, the built-in algorithms, synthesized
programs, and a degraded-cluster replan;
``benchmarks/test_compile_scaling.py`` measures the speedup.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from ..ir.dag import DependencyDAG
from ..obs.spans import current_span
from .pipeline import GlobalPipeline, SubPipeline


def _priority_key(served: int, urgency: int, chunk: int) -> Tuple[int, int, int]:
    """The two-level HPDS priority, as a min-sortable key.

    1. **execution frequency** — chunks served fewer times rank first
       ("tasks with lower execution frequency — underutilized chunks —
       are assigned higher priority", section 4.3), which balances chunk
       progress;
    2. **critical-path urgency** — among equally-served chunks, the one
       whose pending work heads the longest remaining dependency chain
       ranks first, so long reduction chains are never starved behind
       short ones.

    Ties break on ascending chunk id, making the schedule deterministic.
    This is the single definition of chunk priority: the scheduler's
    chunk heap and the scan-based reference in ``tests/oracles/`` both
    key on it.
    """
    return (served, -urgency, chunk)


def _schedule(dag: DependencyDAG) -> GlobalPipeline:
    """Index-based HPDS: every scan of Algorithm 1 becomes a heap operation.

    Replays the literal pick sequence exactly:

    * the chunk pick pops a **lazy-deletion heap** of
      ``_priority_key(served, urgency, chunk)`` entries — an entry is
      valid iff the chunk is still flagged and the key matches its
      current state, and every state change pushes a fresh entry, so
      the valid minimum equals the reference's full-scan argmin;
    * the per-chunk visit drains a **ready heap** in ascending task id —
      the same order the reference's remaining-task scan yields, because
      ``chunk_tasks`` lists are ascending by construction — and pushes
      the non-picked tasks straight back (a popped ascending run is
      already a valid heap);
    * link arbitration peeks the **per-link min-heap** of
      ``(step, task_id)``: an earlier-step ready task exists iff the
      valid heap minimum is smaller than the candidate's own key;
    * urgency is maintained **incrementally**: each chunk owns a lazy
      max-heap of ``(-height, task)`` entries pushed when a task becomes
      ready; the current urgency is the valid top, popped-through in
      amortized O(log n) instead of re-maxing the ready set.
    """
    order = dag.topological_order()  # raises CyclicDependencyError

    tasks = dag.tasks
    n = len(tasks)
    succs = dag.succs
    task_chunk: List[int] = [t.transfer.chunk for t in tasks]
    task_link: List[str] = [t.link for t in tasks]
    task_step: List[int] = [t.transfer.step for t in tasks]
    unscheduled_preds: List[int] = [len(dag.preds[t.task_id]) for t in tasks]
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Critical-path height of each task (the length of the longest
    # dependency chain it heads) drives the urgency level, kept in a
    # dense array.
    height: List[int] = [0] * n
    for tid in reversed(order):
        tallest = 0
        for s in succs[tid]:
            h = height[s]
            if h > tallest:
                tallest = h
        height[tid] = tallest + 1

    chunks = [c for c, members in dag.chunk_tasks.items() if members]
    served: Dict[int, int] = {c: 0 for c in chunks}
    urgency: Dict[int, int] = {c: 0 for c in chunks}
    chunk_left: Dict[int, int] = {c: len(dag.chunk_tasks[c]) for c in chunks}

    # ready_mask[tid] is 1 while the task is ready and unscheduled; it is
    # the validity oracle for every lazy heap entry below.
    ready_mask = bytearray(n)
    ready_heap: Dict[int, List[int]] = {c: [] for c in chunks}
    urgency_heap: Dict[int, List[Tuple[int, int]]] = {c: [] for c in chunks}
    link_heap: Dict[str, List[Tuple[int, int]]] = {}

    def make_ready(tid: int) -> None:
        ready_mask[tid] = 1
        c = task_chunk[tid]
        heappush(ready_heap[c], tid)
        heappush(urgency_heap[c], (-height[tid], tid))
        link = task_link[tid]
        heap = link_heap.get(link)
        if heap is None:
            link_heap[link] = [(task_step[tid], tid)]
        else:
            heappush(heap, (task_step[tid], tid))

    for tid in range(n):
        if unscheduled_preds[tid] == 0:
            make_ready(tid)

    def current_urgency(c: int) -> int:
        heap = urgency_heap[c]
        while heap and not ready_mask[heap[0][1]]:
            heappop(heap)
        return -heap[0][0] if heap else 0

    for c in chunks:
        urgency[c] = current_urgency(c)

    n_remaining = n
    active: List[int] = list(chunks)
    sub_pipelines: List[SubPipeline] = []
    while n_remaining:
        current = SubPipeline(index=len(sub_pipelines))
        used_links: Set[str] = set()
        active = [c for c in active if chunk_left[c]]
        flags: Dict[int, bool] = dict.fromkeys(active, True)
        flags_true = len(active)
        chunk_heap: List[Tuple[int, int, int]] = [
            _priority_key(served[c], urgency[c], c) for c in active
        ]
        heapq.heapify(chunk_heap)

        while flags_true:
            # Lazy-deletion pop: skip entries whose chunk was unflagged
            # or whose (served, urgency) moved on since the push.  Every
            # flagged chunk always has one valid entry, so the loop
            # cannot exhaust the heap while flags_true > 0.
            chunk = -1
            while chunk_heap:
                s, neg_u, c = heappop(chunk_heap)
                if (
                    flags.get(c, False)
                    and s == served[c]
                    and neg_u == -urgency[c]
                ):
                    chunk = c
                    break
            if chunk < 0:  # pragma: no cover - defensive, invariant holds
                break

            heap = ready_heap[chunk]
            node_list: List[int] = []
            leftovers: List[int] = []
            while heap:
                tid = heappop(heap)
                if not ready_mask[tid]:
                    continue
                link = task_link[tid]
                if link in used_links:
                    leftovers.append(tid)
                    continue
                # Inline link arbitration: an earlier-step ready task on
                # this link (the valid minimum of its lazy heap) owns it.
                lheap = link_heap.get(link)
                if lheap:
                    while lheap and not ready_mask[lheap[0][1]]:
                        heappop(lheap)
                    if lheap and lheap[0] < (task_step[tid], tid):
                        leftovers.append(tid)
                        continue
                node_list.append(tid)
                used_links.add(link)
            # Popped in ascending order, so the leftover run is already a
            # valid min-heap.
            ready_heap[chunk] = leftovers

            if not node_list:
                flags[chunk] = False
                flags_true -= 1
                continue

            current.task_ids.extend(node_list)
            n_picked = len(node_list)
            n_remaining -= n_picked
            chunk_left[chunk] -= n_picked
            touched = {chunk}
            for tid in node_list:
                ready_mask[tid] = 0
            for tid in node_list:
                for succ in succs[tid]:
                    unscheduled_preds[succ] -= 1
                    if unscheduled_preds[succ] == 0:
                        # make_ready, inlined on the hot path.
                        ready_mask[succ] = 1
                        sc = task_chunk[succ]
                        heappush(ready_heap[sc], succ)
                        heappush(urgency_heap[sc], (-height[succ], succ))
                        slink = task_link[succ]
                        lheap = link_heap.get(slink)
                        if lheap is None:
                            link_heap[slink] = [(task_step[succ], succ)]
                        else:
                            heappush(lheap, (task_step[succ], succ))
                        touched.add(sc)
                        # An unscheduled succ keeps its chunk in `active`,
                        # so `flags` is guaranteed to hold sc.
                        if not flags[sc]:
                            # A chunk that regained eligible work is
                            # revisited within this sub-pipeline.
                            flags[sc] = True
                            flags_true += 1
            served[chunk] += 1
            for tc in touched:
                u = current_urgency(tc)
                urgency[tc] = u
                if flags[tc]:
                    # _priority_key, inlined.
                    heappush(chunk_heap, (served[tc], -u, tc))

        if not current.task_ids:
            raise RuntimeError(
                "HPDS made no progress — the ready set is empty although "
                f"{n_remaining} task(s) remain (inconsistent DAG state)"
            )
        sub_pipelines.append(current)
    return GlobalPipeline(sub_pipelines=sub_pipelines, scheduler="hpds")


def hpds_schedule(dag: DependencyDAG) -> GlobalPipeline:
    """Run Algorithm 1 over a dependency DAG.

    Returns the global pipeline ``Pr``; raises if the DAG is cyclic (the
    outer loop would otherwise never terminate).
    """
    pipeline = _schedule(dag)
    current_span().set(
        hpds_tasks=len(dag),
        hpds_sub_pipelines=len(pipeline.sub_pipelines),
        hpds_chunks=sum(1 for members in dag.chunk_tasks.values() if members),
    )
    return pipeline


__all__ = ["hpds_schedule"]
