"""Static validation of elaborated ResCCLang programs.

Run before compilation, these checks catch the errors that would deadlock
or corrupt a collective on real hardware: out-of-range ranks/chunks,
duplicate transmission tasks, same-step write conflicts on one buffer
slot, and cyclic data dependencies.

:func:`validate_program` is the one producer of the issue list (for the
compiler and for ``resccl verify``).  A validated compile does not call
it up front: :func:`validated_dag` builds the compile's own DAG, whose
construction already range-checks ranks, records every chunk id and
flags slots written twice in one step, and calls :func:`validate_program`
only when one of those facts (or an empty program, or a rank count that
differs from the cluster's) says it will report something.

Every data-dependency edge :func:`~repro.ir.dag.build_dag` adds runs from
a lower DSL step to a strictly higher one, so DAGs built from programs
are acyclic by construction.  The cycle check stays as a cheap guard: it
reads the DAG's cached topological order, which scheduling reuses.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.dag import CyclicDependencyError, DependencyDAG, RankRangeError, build_dag
from ..topology import Cluster
from .builder import AlgoProgram


class ProgramValidationError(ValueError):
    """Raised when a program fails validation; carries every issue found."""

    def __init__(self, issues: List[str]) -> None:
        preview = "\n  - ".join(issues[:12])
        suffix = "" if len(issues) <= 12 else f"\n  ... and {len(issues) - 12} more"
        super().__init__(f"{len(issues)} validation issue(s):\n  - {preview}{suffix}")
        self.issues = issues


@dataclass
class ValidationReport:
    """Outcome of validating one program."""

    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_failed(self) -> None:
        if self.issues:
            raise ProgramValidationError(self.issues)


def _default_cluster(program: AlgoProgram) -> Cluster:
    """A topology consistent with the program header, for analysis only."""
    gpus_per_node = program.header.gpus_per_node
    if program.nranks % gpus_per_node != 0:
        return Cluster(nodes=1, gpus_per_node=program.nranks)
    nodes = program.nranks // gpus_per_node
    nics = min(program.header.nics_per_node, gpus_per_node)
    return Cluster(nodes=nodes, gpus_per_node=gpus_per_node, nics_per_node=nics)


def validate_program(
    program: AlgoProgram, cluster: Optional[Cluster] = None
) -> ValidationReport:
    """Validate a program, optionally against a concrete cluster.

    Returns a report; call ``report.raise_if_failed()`` to make failures
    fatal.  When ``cluster`` is omitted, a topology is inferred from the
    program header for the dependency-cycle check.
    """
    report = ValidationReport()
    issues = report.issues
    nranks = program.nranks
    nchunks = program.nchunks

    if not program.transfers:
        issues.append("program contains no transfers")
        return report

    if cluster is not None and cluster.world_size != nranks:
        issues.append(
            f"program declares nRanks={nranks} but the cluster has "
            f"{cluster.world_size} GPUs"
        )

    seen: Counter = Counter()
    writes_per_slot_step: Dict[Tuple[int, int, int], List[int]] = defaultdict(list)
    for index, t in enumerate(program.transfers):
        if t.src >= nranks:
            issues.append(f"transfer #{index}: src rank {t.src} >= nRanks {nranks}")
        if t.dst >= nranks:
            issues.append(f"transfer #{index}: dst rank {t.dst} >= nRanks {nranks}")
        if t.chunk >= nchunks:
            issues.append(
                f"transfer #{index}: chunk {t.chunk} >= chunk count {nchunks}"
            )
        seen[(t.src, t.dst, t.step, t.chunk)] += 1
        writes_per_slot_step[(t.dst, t.chunk, t.step)].append(index)

    for key, count in seen.items():
        if count > 1:
            src, dst, step, chunk = key
            issues.append(
                f"duplicate transfer r{src}->r{dst} step={step} chunk={chunk} "
                f"appears {count} times"
            )

    for (dst, chunk, step), writers in writes_per_slot_step.items():
        if len(writers) > 1:
            issues.append(
                f"write conflict: transfers {writers} all write chunk {chunk} "
                f"on rank {dst} at step {step}"
            )

    if issues:
        # Rank/chunk range errors make DAG construction meaningless.
        return report

    analysis_cluster = cluster if cluster is not None else _default_cluster(program)
    try:
        build_dag(program.transfers, analysis_cluster).topological_order()
    except CyclicDependencyError as exc:
        issues.append(str(exc))
    return report


def validated_dag(program: AlgoProgram, cluster: Cluster) -> DependencyDAG:
    """The dependency DAG of a valid ``program`` on ``cluster``.

    Raises :class:`ProgramValidationError` with exactly
    :func:`validate_program`'s issues when the program is invalid.  A
    valid program costs one :func:`~repro.ir.dag.build_dag` and no other
    pass: each issue class shows up in that build (see the module
    docstring), and only then does :func:`validate_program` run.
    """
    if program.transfers and cluster.world_size == program.nranks:
        try:
            dag = build_dag(program.transfers, cluster)
        except RankRangeError:
            pass
        else:
            if (
                max(dag.chunk_tasks) < program.nchunks
                and not dag.write_conflict
                and dag.is_acyclic()
            ):
                return dag
    validate_program(program, cluster).raise_if_failed()
    raise AssertionError(
        f"validate_program accepts {program!r}, which build_dag flagged"
    )


__all__ = [
    "validate_program",
    "validated_dag",
    "ValidationReport",
    "ProgramValidationError",
]
