"""Literal reference implementations of the three hot compile stages.

The production stack (``repro.ir.dag.build_dag``,
``repro.core.hpds.hpds_schedule``, ``repro.core.tballoc.allocate_tbs``)
runs indexed, near-linearithmic versions of these.  The versions here
follow the paper's descriptions scan by scan, so they are slow but easy
to check by eye.  Tests assert that both produce identical DAGs,
pipelines, TB assignments and kernels, and
``benchmarks/test_compile_scaling.py`` times them as the baseline.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.compiler import SCHEDULERS, CompileResult
from repro.core.hpds import _priority_key
from repro.core.pipeline import GlobalPipeline, SubPipeline
from repro.core.tballoc import (
    EndpointGroup,
    TBAssignment,
    build_endpoint_groups,
)
from repro.ir.dag import DependencyDAG
from repro.ir.task import TransmissionTask
from repro.lang.builder import evaluate_module
from repro.lang.parser import parse_module
from repro.lang.validate import validate_program

# ---------------------------------------------------------------------------
# Dependency analysis
# ---------------------------------------------------------------------------


@dataclass
class SlotState:
    """Hazard-tracking state for one (rank, chunk) buffer slot."""

    last_writers: List[int] = field(default_factory=list)
    readers_since_write: List[int] = field(default_factory=list)


def slot_accesses(task: TransmissionTask):
    """Buffer slots a task touches: ((rank, chunk), is_write) pairs.

    The source rank reads its copy of the chunk.  A ``recv`` destination
    overwrites its slot; an ``rrc`` destination reads and writes it (the
    write subsumes the read for hazard purposes).
    """
    return [((task.src, task.chunk), False), ((task.dst, task.chunk), True)]


def hazard_edges(dag: DependencyDAG, tasks: Sequence[TransmissionTask]) -> None:
    """Two-level grouping (slot, then step dict) of the hazard rules."""
    per_slot: Dict[Tuple[int, int], Dict[int, List[Tuple[int, bool]]]] = (
        defaultdict(lambda: defaultdict(list))
    )
    for task in tasks:
        for slot, is_write in slot_accesses(task):
            per_slot[slot][task.step].append((task.task_id, is_write))

    for slot, by_step in per_slot.items():
        state = SlotState()
        for step in sorted(by_step):
            group = by_step[step]
            writes = [tid for tid, w in group if w]
            reads = [tid for tid, w in group if not w]
            for tid in writes:
                for producer in state.last_writers:
                    dag.add_edge(producer, tid)  # write-after-write
                for reader in state.readers_since_write:
                    dag.add_edge(reader, tid)  # write-after-read
            for tid in reads:
                for producer in state.last_writers:
                    dag.add_edge(producer, tid)  # read-after-write
            if writes:
                state.last_writers = writes
                state.readers_since_write = list(reads)
            else:
                state.readers_since_write.extend(reads)


def build_dag(transfers, cluster) -> DependencyDAG:
    """The dependency DAG, built through :func:`hazard_edges`."""
    tasks = [
        TransmissionTask(
            task_id=index,
            transfer=transfer,
            link=cluster.link_name(transfer.src, transfer.dst),
            intra_node=cluster.same_node(transfer.src, transfer.dst),
        )
        for index, transfer in enumerate(transfers)
    ]
    dag = DependencyDAG(tasks)
    hazard_edges(dag, tasks)
    return dag


# ---------------------------------------------------------------------------
# HPDS (Algorithm 1)
# ---------------------------------------------------------------------------


class ChunkQueue:
    """Hierarchical priority queue over chunks, picked by full scan.

    Orders chunks by :func:`repro.core.hpds._priority_key`, the same key
    the production scheduler's lazy-deletion heap uses.
    """

    def __init__(self, chunks: List[int]) -> None:
        self._served: Dict[int, int] = {c: 0 for c in chunks}
        self._urgency: Dict[int, int] = {c: 0 for c in chunks}
        self._chunks = sorted(chunks)

    def decrease(self, chunk: int) -> None:
        self._served[chunk] += 1

    def set_urgency(self, chunk: int, value: int) -> None:
        self._urgency[chunk] = value

    def highest_with_flag(self, flags: Dict[int, bool]) -> int:
        """Highest-priority chunk whose flag is still true, or -1."""
        best = -1
        best_key = None
        for chunk in self._chunks:
            if not flags.get(chunk, False):
                continue
            key = _priority_key(
                self._served[chunk], self._urgency[chunk], chunk
            )
            if best_key is None or key < best_key:
                best_key = key
                best = chunk
        return best


def heights(dag: DependencyDAG, order: List[int]) -> Dict[int, int]:
    """Critical-path height of each task: length of the longest
    dependency chain it heads."""
    height: Dict[int, int] = {}
    for tid in reversed(order):
        height[tid] = 1 + max((height[s] for s in dag.succs[tid]), default=0)
    return height


def hpds_schedule(dag: DependencyDAG) -> GlobalPipeline:
    """Algorithm 1, literally: full scans per pick and per chunk visit."""
    order = dag.topological_order()  # raises CyclicDependencyError

    remaining: Set[int] = {t.task_id for t in dag.tasks}
    unscheduled_preds: Dict[int, int] = {
        t.task_id: len(dag.preds[t.task_id]) for t in dag.tasks
    }
    # Algorithm 1 removes scheduled nodes from G immediately (line 22), so
    # a task becomes data-ready as soon as its producers are scheduled —
    # possibly within the *current* sub-pipeline.
    ready: Set[int] = {tid for tid, n in unscheduled_preds.items() if n == 0}

    height = heights(dag, order)

    chunks = [c for c, members in dag.chunk_tasks.items() if members]
    queue = ChunkQueue(chunks)
    chunk_remaining: Dict[int, List[int]] = {
        c: list(dag.chunk_tasks[c]) for c in chunks
    }
    ready_by_chunk: Dict[int, Set[int]] = {c: set() for c in chunks}
    # Communication-dependency arbitration: a later-step task must not
    # claim a contended link before an earlier-step ready task.
    ready_by_link: Dict[str, Set[int]] = {}
    for tid in ready:
        ready_by_chunk[dag.task(tid).chunk].add(tid)
        ready_by_link.setdefault(dag.task(tid).link, set()).add(tid)

    def link_has_earlier_ready(task_id: int) -> bool:
        task = dag.task(task_id)
        key = (task.step, task_id)
        return any(
            (dag.task(other).step, other) < key
            for other in ready_by_link.get(task.link, ())
            if other != task_id
        )

    def refresh_urgency(chunk: int) -> None:
        queue.set_urgency(
            chunk,
            max((height[t] for t in ready_by_chunk[chunk]), default=0),
        )

    for chunk in chunks:
        refresh_urgency(chunk)

    sub_pipelines: List[SubPipeline] = []
    while remaining:
        current = SubPipeline(index=len(sub_pipelines))
        used_links: Set[str] = set()
        flags: Dict[int, bool] = {
            c: bool(chunk_remaining[c]) for c in chunks
        }
        while any(flags.values()):
            chunk = queue.highest_with_flag(flags)
            if chunk < 0:
                break
            node_list: List[int] = []
            for task_id in chunk_remaining[chunk]:
                if task_id not in ready:
                    continue
                link = dag.task(task_id).link
                if link in used_links:
                    continue
                if link_has_earlier_ready(task_id):
                    continue  # the link belongs to an earlier-step chain
                node_list.append(task_id)
                used_links.add(link)
            if not node_list:
                flags[chunk] = False
                continue
            current.task_ids.extend(node_list)
            picked = set(node_list)
            chunk_remaining[chunk] = [
                t for t in chunk_remaining[chunk] if t not in picked
            ]
            remaining.difference_update(picked)
            touched = {chunk}
            for task_id in node_list:
                ready.discard(task_id)
                ready_by_chunk[chunk].discard(task_id)
                ready_by_link[dag.task(task_id).link].discard(task_id)
                for succ in dag.succs[task_id]:
                    unscheduled_preds[succ] -= 1
                    if unscheduled_preds[succ] == 0:
                        ready.add(succ)
                        succ_task = dag.task(succ)
                        ready_by_chunk[succ_task.chunk].add(succ)
                        ready_by_link.setdefault(succ_task.link, set()).add(succ)
                        touched.add(succ_task.chunk)
                        # A chunk that regained eligible work is revisited.
                        flags[succ_task.chunk] = True
            for touched_chunk in touched:
                refresh_urgency(touched_chunk)
            queue.decrease(chunk)
        if not current.task_ids:
            raise RuntimeError(
                "HPDS made no progress — the ready set is empty although "
                f"{len(remaining)} task(s) remain (inconsistent DAG state)"
            )
        sub_pipelines.append(current)
    return GlobalPipeline(sub_pipelines=sub_pipelines, scheduler="hpds")


# ---------------------------------------------------------------------------
# State-based TB allocation
# ---------------------------------------------------------------------------


def merge_rank(
    groups: List[EndpointGroup],
    rank: int,
    pipelining_allowance: int,
) -> Tuple[List[TBAssignment], int, int]:
    """Best-fit merge by linear scan over open TBs."""
    merges_accepted = 0
    merges_rejected = 0
    open_tbs: List[TBAssignment] = []
    for group in groups:  # already sorted by window start
        best = None
        for tb in open_tbs:
            if tb.window[1] + pipelining_allowance < group.window[0]:
                if best is None or tb.window[1] > best.window[1]:
                    best = tb
        if best is None:
            if open_tbs:
                merges_rejected += 1
            best = TBAssignment(rank=rank)
            open_tbs.append(best)
        else:
            merges_accepted += 1
        best.groups.append(group)
    return open_tbs, merges_accepted, merges_rejected


def allocate_tbs(
    dag: DependencyDAG, pipeline: GlobalPipeline, pipelining_allowance: int = 0
) -> List[TBAssignment]:
    """State-based allocation through :func:`merge_rank`."""
    by_rank: Dict[int, List[EndpointGroup]] = defaultdict(list)
    for group in build_endpoint_groups(dag, pipeline):
        by_rank[group.rank].append(group)
    assignments: List[TBAssignment] = []
    for rank in sorted(by_rank):
        assignments.extend(
            merge_rank(by_rank[rank], rank, pipelining_allowance)[0]
        )
    return assignments


# ---------------------------------------------------------------------------
# Whole compile
# ---------------------------------------------------------------------------


def compile_program(
    algorithm, cluster, scheduler: str = "hpds", validate: bool = True
) -> CompileResult:
    """The full compile, with every hot stage run by its reference.

    Mirrors :meth:`repro.core.compiler.ResCCLCompiler.compile` stage by
    stage (including the per-stage wall times in ``phase_times_us``) and
    stops at the pipeline, as it does.  The result compares with
    ``compile_fingerprint(..., assignments=allocate_tbs(...))`` and the
    times compare with the production compiler's.
    """
    times: Dict[str, float] = {}
    start = time.perf_counter()
    if isinstance(algorithm, str):
        program = evaluate_module(parse_module(algorithm))
    else:
        program = algorithm
    times["parsing"] = (time.perf_counter() - start) * 1e6

    start = time.perf_counter()
    if validate:
        validate_program(program, cluster).raise_if_failed()
    dag = build_dag(program.transfers, cluster)
    times["analysis"] = (time.perf_counter() - start) * 1e6

    start = time.perf_counter()
    if scheduler == "hpds":
        pipeline = hpds_schedule(dag)
    else:
        pipeline = SCHEDULERS[scheduler](dag)
    pipeline.check_all(dag)
    times["scheduling"] = (time.perf_counter() - start) * 1e6

    return CompileResult(
        program=program,
        dag=dag,
        pipeline=pipeline,
        cluster=cluster,
        scheduler=scheduler,
        phase_times_us=times,
    )
