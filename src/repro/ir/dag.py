"""Global dependency analysis: transfers -> dependency DAG.

Section 4.1: ResCCL performs a global dependency analysis on the input
algorithm, generating a DAG whose nodes are transmission tasks and whose
edges are *data dependencies*.  Tasks touching the same buffer slot —
the (rank, chunkId) pair — in different steps are ordered by classic
hazard rules (read-after-write, write-after-read, write-after-write).
Tasks sharing a bottleneck link carry a *communication dependency*, which
is not an edge (it does not force an order, it forbids concurrency) and is
therefore kept as per-link groupings for the scheduler.

The analysis is on the cold-compile critical path (see
``docs/performance.md``), so :func:`build_dag` runs a fused single-pass
construction over pre-sorted step buckets.  It emits the exact
``add_edge`` sequence of the literal two-level grouping in
``tests/oracles/compile.py``, so the DAGs are indistinguishable —
including set iteration order downstream.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

from ..topology import Cluster
from .task import Transfer, TransmissionTask


class CyclicDependencyError(ValueError):
    """Raised when an algorithm's data dependencies contain a cycle.

    A cyclic algorithm would deadlock on real hardware (section 4.1 notes
    the absence of cycles is what makes the analysis a DAG).
    """


class RankRangeError(ValueError):
    """Raised by :func:`build_dag` when a transfer names a rank outside
    the cluster (no link can be resolved for it)."""


class DependencyDAG:
    """The task-level dependency DAG ``G_A = (V_T, E)`` of section 3.

    Attributes:
        tasks: all transmission tasks, indexed by ``task_id``.
        preds: ``task_id -> set of task_ids it depends on``.
        succs: ``task_id -> set of task_ids depending on it``.
        chunk_tasks: per-chunk sub-DAG membership ``G[C]`` used by HPDS.
        link_tasks: per-link groupings encoding communication dependencies.
        write_conflict: set by :func:`build_dag` when one buffer slot is
            written by more than one task in one step (a duplicate
            transfer or a same-step write conflict).
    """

    write_conflict = False

    def __init__(self, tasks: Sequence[TransmissionTask]) -> None:
        self.tasks: List[TransmissionTask] = list(tasks)
        self.preds: Dict[int, Set[int]] = {t.task_id: set() for t in self.tasks}
        self.succs: Dict[int, Set[int]] = {t.task_id: set() for t in self.tasks}
        self.chunk_tasks: Dict[int, List[int]] = defaultdict(list)
        self.link_tasks: Dict[str, List[int]] = defaultdict(list)
        self._topo_cache: List[int] = []
        self._topo_valid = False
        for task in self.tasks:
            # .transfer holds the plain fields; going through it once
            # skips the delegating-property calls on this hot path.
            self.chunk_tasks[task.transfer.chunk].append(task.task_id)
            self.link_tasks[task.link].append(task.task_id)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def task(self, task_id: int) -> TransmissionTask:
        """Look up a task by id."""
        return self.tasks[task_id]

    def add_edge(self, producer: int, consumer: int) -> None:
        """Record that ``consumer`` depends on data produced by ``producer``."""
        if producer == consumer:
            return
        self.preds[consumer].add(producer)
        self.succs[producer].add(consumer)
        self._topo_valid = False

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.succs.values())

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate (producer, consumer) data-dependency pairs."""
        for producer, consumers in self.succs.items():
            for consumer in consumers:
                yield producer, consumer

    def roots(self) -> List[int]:
        """Tasks with no data dependencies — immediately schedulable."""
        return [t.task_id for t in self.tasks if not self.preds[t.task_id]]

    def comm_conflicts(self, task_id: int) -> List[int]:
        """Other tasks that share this task's bottleneck link."""
        link = self.tasks[task_id].link
        return [t for t in self.link_tasks[link] if t != task_id]

    # ------------------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Kahn topological order; raises on cyclic dependencies.

        Degrees live in a dense array indexed by task id (ids are dense
        by construction — ``task()`` is a list lookup), and the order is
        cached until the next ``add_edge``, so the compiler's repeated
        consumers (cycle check, height pass, critical path) pay for one
        traversal.  The visit sequence is identical to the historical
        dict-based Kahn: same ascending-id initial frontier, same LIFO
        pops, same successor-set iteration order.
        """
        if self._topo_valid:
            return list(self._topo_cache)
        n = len(self.tasks)
        indegree = [0] * n
        for tid, preds in self.preds.items():
            indegree[tid] = len(preds)
        frontier = [tid for tid in range(n) if indegree[tid] == 0]
        order: List[int] = []
        while frontier:
            tid = frontier.pop()
            order.append(tid)
            for succ in self.succs[tid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if len(order) != n:
            stuck = sorted(
                tid for tid in range(n) if indegree[tid] > 0
            )
            raise CyclicDependencyError(
                f"data-dependency cycle involving tasks {stuck[:8]}"
                + ("..." if len(stuck) > 8 else "")
            )
        self._topo_cache = order
        self._topo_valid = True
        return list(order)

    def is_acyclic(self) -> bool:
        """True when the data dependencies form a DAG."""
        try:
            self.topological_order()
        except CyclicDependencyError:
            return False
        return True

    def critical_path_length(self) -> int:
        """Longest dependency chain, in tasks (a lower bound on steps)."""
        depth: Dict[int, int] = {}
        for tid in self.topological_order():
            preds = self.preds[tid]
            depth[tid] = 1 + max((depth[p] for p in preds), default=0)
        return max(depth.values(), default=0)

    def to_networkx(self) -> "nx.DiGraph":
        """Export as a networkx DiGraph (nodes carry their task objects)."""
        import networkx as nx  # deferred: only this export needs it

        graph = nx.DiGraph()
        for task in self.tasks:
            graph.add_node(task.task_id, task=task)
        graph.add_edges_from(self.edges())
        return graph


def _hazard_edges(
    dag: DependencyDAG, tasks: Sequence[TransmissionTask]
) -> None:
    """Single-pass hazard analysis over flat, pre-sorted step buckets.

    One dict keyed by slot holds a flat ``(step, task_id, is_write)``
    list per slot, appended in task order.  Steps are usually emitted
    monotonically per slot, so the per-slot stable sort is a no-op check
    most of the time; the hazard sweep then walks equal-step runs in
    place.  The ``add_edge`` sequence — slots in first-touch order, steps
    ascending, writes before reads, accesses in task order within a step
    — matches the two-level reference in ``tests/oracles/`` exactly.
    """
    per_slot: Dict[Tuple[int, int], List[Tuple[int, int, bool]]] = {}
    unsorted_slots = set()
    for task in tasks:
        tr = task.transfer  # plain fields; skips delegating properties
        step = tr.step
        tid = task.task_id
        chunk = tr.chunk
        read_slot = (tr.src, chunk)
        write_slot = (tr.dst, chunk)
        bucket = per_slot.get(read_slot)
        if bucket is None:
            per_slot[read_slot] = [(step, tid, False)]
        else:
            if step < bucket[-1][0]:
                unsorted_slots.add(read_slot)
            bucket.append((step, tid, False))
        bucket = per_slot.get(write_slot)
        if bucket is None:
            per_slot[write_slot] = [(step, tid, True)]
        else:
            if step < bucket[-1][0]:
                unsorted_slots.add(write_slot)
            bucket.append((step, tid, True))

    add_edge = dag.add_edge
    for slot, accesses in per_slot.items():
        # Stable sort by step keeps task order inside each step run —
        # the same order the reference's per-step append lists hold.
        # Most slots are appended in step order (flagged at insertion),
        # so the sort rarely runs.
        if slot in unsorted_slots:
            accesses.sort(key=lambda a: a[0])
        last_writers: List[int] = []
        readers_since_write: List[int] = []
        i = 0
        total = len(accesses)
        while i < total:
            step, tid, is_write = accesses[i]
            j = i + 1
            if j == total or accesses[j][0] != step:
                # Single-access run — the overwhelmingly common case;
                # skip the slice + listcomp machinery.
                if is_write:
                    for producer in last_writers:
                        add_edge(producer, tid)  # write-after-write
                    for reader in readers_since_write:
                        add_edge(reader, tid)  # write-after-read
                    last_writers = [tid]
                    readers_since_write = []
                else:
                    for producer in last_writers:
                        add_edge(producer, tid)  # read-after-write
                    readers_since_write.append(tid)
                i = j
                continue
            while j < total and accesses[j][0] == step:
                j += 1
            writes = [t for _, t, w in accesses[i:j] if w]
            reads = [t for _, t, w in accesses[i:j] if not w]
            if len(writes) > 1:
                dag.write_conflict = True
            for tid in writes:
                for producer in last_writers:
                    add_edge(producer, tid)  # write-after-write
                for reader in readers_since_write:
                    add_edge(reader, tid)  # write-after-read
            for tid in reads:
                for producer in last_writers:
                    add_edge(producer, tid)  # read-after-write
            if writes:
                last_writers = writes
                readers_since_write = list(reads)
            else:
                readers_since_write.extend(reads)
            i = j


def build_dag(
    transfers: Sequence[Transfer],
    cluster: Cluster,
) -> DependencyDAG:
    """Construct the dependency DAG for an algorithm on a cluster.

    Tasks get dense ids in input order.  Data-dependency edges follow the
    hazard rules per buffer slot, ordered by the DSL ``step`` value;
    accesses sharing a step are considered concurrent and get no edge.
    Every edge therefore runs from a lower step to a strictly higher one,
    so a DAG built here is acyclic by construction.

    The cheap well-formedness facts come with the build: a rank outside
    the cluster raises :class:`RankRangeError` (checked once per distinct
    ``(src, dst)`` pair), ``max(dag.chunk_tasks)`` is the largest chunk
    id, and ``dag.write_conflict`` flags a slot written twice in a step.
    """
    # Collectives reuse a small set of (src, dst) pairs across thousands
    # of transfers; resolving each pair's link name and locality once
    # keeps task construction linear in the transfer count.
    pair_cache: Dict[Tuple[int, int], Tuple[str, bool]] = {}
    tasks: List[TransmissionTask] = []
    world = cluster.world_size
    for index, transfer in enumerate(transfers):
        pair = (transfer.src, transfer.dst)
        resolved = pair_cache.get(pair)
        if resolved is None:
            for rank in pair:
                if not 0 <= rank < world:
                    raise RankRangeError(
                        f"transfer #{index}: rank {rank} out of range [0, {world})"
                    )
            resolved = pair_cache[pair] = (
                cluster.link_name(*pair),
                cluster.same_node(*pair),
            )
        tasks.append(
            TransmissionTask(
                task_id=index,
                transfer=transfer,
                link=resolved[0],
                intra_node=resolved[1],
            )
        )
    dag = DependencyDAG(tasks)
    _hazard_edges(dag, tasks)
    return dag


__all__ = ["DependencyDAG", "CyclicDependencyError", "RankRangeError", "build_dag"]
