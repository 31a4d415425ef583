"""Builder API for ResCCLang programs, and the AST evaluator.

Algorithm developers (and the synthesizers) construct programs through
:class:`AlgoProgram` — the embedded form of ResCCLang, matching how the
paper's Figure 16 program is "Python-style".  The textual parser produces
an AST :class:`~repro.lang.ast.Module`, which :func:`evaluate_module`
executes into the same :class:`AlgoProgram` representation.  On the
compile path (:func:`~repro.lang.parser.parse_program`) a module body may
also hold :data:`LiteralTransfer` records, which execute into a
:class:`Transfer` with no expression evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from ..ir.task import Collective, CommType, Transfer, chunk_count
from .ast import (
    Assign,
    BinOp,
    Expr,
    ForLoop,
    Header,
    Module,
    Name,
    Num,
    ResCCLangEvalError,
    Stmt,
    TransferStmt,
    eval_expr,
)

#: Safety valve for runaway loops when evaluating untrusted DSL text.
MAX_TRANSFERS = 5_000_000

#: ``(src, dst, step, chunk, op)`` of a ``transfer`` line whose arguments
#: are integer literals: the :class:`Transfer` fields, read by the scanner.
LiteralTransfer = Tuple[int, int, int, int, CommType]


@dataclass
class AlgoProgram:
    """A fully-elaborated collective algorithm: header + transfer list.

    This is the input to the ResCCL compiler and to the baseline
    backends.  Transfers are ordered as emitted; their ``step`` values
    carry the algorithm's logical ordering.

    ``stage_starts`` is the *manual stage division* that stage-level
    backends (MSCCL, section 2.1) require: a sorted list of step values,
    each opening a new stage.  ResCCL ignores it — its scheduling is
    automatic — and it defaults to a single stage.
    """

    header: Header
    transfers: List[Transfer] = field(default_factory=list)
    stage_starts: List[int] = field(default_factory=lambda: [0])

    def stage_of(self, step: int) -> int:
        """Stage index containing a step (for stage-level backends)."""
        stage = 0
        for index, start in enumerate(self.stage_starts):
            if step >= start:
                stage = index
        return stage

    @property
    def num_stages(self) -> int:
        return len(self.stage_starts)

    @classmethod
    def create(
        cls,
        nranks: int,
        collective: Collective,
        name: str = "anonymous",
        nchannels: int = 4,
        nwarps: int = 16,
        gpus_per_node: int = 8,
        nics_per_node: int = 4,
    ) -> "AlgoProgram":
        """Convenience constructor mirroring the ``ResCCLAlgo`` signature."""
        header = Header(
            nranks=nranks,
            algo_name=name,
            collective=collective,
            nchannels=nchannels,
            nwarps=nwarps,
            gpus_per_node=gpus_per_node,
            nics_per_node=nics_per_node,
        )
        return cls(header=header)

    # ------------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.header.nranks

    @property
    def name(self) -> str:
        return self.header.algo_name

    @property
    def collective(self) -> Collective:
        return self.header.collective

    @property
    def nchunks(self) -> int:
        """Chunks per rank buffer (equals the rank count, section 4.2)."""
        return chunk_count(self.header.collective, self.header.nranks)

    @property
    def max_step(self) -> int:
        """Largest step index used, or -1 for an empty program."""
        return max((t.step for t in self.transfers), default=-1)

    def transfer(
        self,
        src: int,
        dst: int,
        step: int,
        chunk: int,
        op: Union[CommType, str] = CommType.RECV,
    ) -> Transfer:
        """Record one transmission task; returns the created transfer."""
        if isinstance(op, str):
            op = CommType(op)
        record = Transfer(src=src, dst=dst, step=step, chunk=chunk, op=op)
        self.transfers.append(record)
        return record

    def __len__(self) -> int:
        return len(self.transfers)

    # ------------------------------------------------------------------

    def to_source(self) -> str:
        """Serialize to textual ResCCLang (one transfer statement per task).

        The output is flat — loops are not reconstructed — but it is valid
        Figure 14 syntax and round-trips through the parser.
        """
        h = self.header
        lines = [
            (
                f"def ResCCLAlgo(nRanks={h.nranks}, nChannels={h.nchannels}, "
                f"nWarps={h.nwarps}, AlgoName=\"{h.algo_name}\", "
                f"OpType=\"{h.collective.value}\", GPUPerNode={h.gpus_per_node}, "
                f"NICPerNode={h.nics_per_node}):"
            )
        ]
        for t in self.transfers:
            lines.append(
                f"    transfer({t.src}, {t.dst}, {t.step}, {t.chunk}, {t.op.value})"
            )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"AlgoProgram({self.name!r}, {self.collective.value}, "
            f"nranks={self.nranks}, transfers={len(self.transfers)})"
        )


def _header_env(header: Header) -> Dict[str, int]:
    """Identifiers the header puts in scope for the program body."""
    return {
        "nRanks": header.nranks,
        "nChannels": header.nchannels,
        "nWarps": header.nwarps,
        "GPUPerNode": header.gpus_per_node,
        "NICPerNode": header.nics_per_node,
    }


def _runaway() -> ResCCLangEvalError:
    return ResCCLangEvalError(
        f"program exceeds {MAX_TRANSFERS} transfers; likely a runaway loop"
    )


def _execute(
    body: Sequence[Union[Stmt, LiteralTransfer]],
    env: Dict[str, int],
    program: AlgoProgram,
) -> None:
    transfers = program.transfers
    for stmt in body:
        if type(stmt) is tuple:  # a LiteralTransfer from the scanner
            if len(transfers) >= MAX_TRANSFERS:
                raise _runaway()
            transfers.append(Transfer(*stmt))
        elif isinstance(stmt, Assign):
            env[stmt.target] = eval_expr(stmt.value, env)
        elif isinstance(stmt, ForLoop):
            args = [eval_expr(a, env) for a in stmt.range_args]
            for value in range(*args):
                env[stmt.var] = value
                _execute(stmt.body, env, program)
        elif isinstance(stmt, TransferStmt):
            if len(transfers) >= MAX_TRANSFERS:
                raise _runaway()
            program.transfer(
                src=eval_expr(stmt.src, env),
                dst=eval_expr(stmt.dst, env),
                step=eval_expr(stmt.step, env),
                chunk=eval_expr(stmt.chunk, env),
                op=stmt.comm_type,
            )
        else:
            raise ResCCLangEvalError(f"unknown statement {stmt!r}")


def evaluate_module(module: Module) -> AlgoProgram:
    """Execute a parsed ResCCLang module into an elaborated program."""
    program = AlgoProgram(header=module.header)
    env = _header_env(module.header)
    _execute(module.body, env, program)
    return program


__all__ = ["AlgoProgram", "LiteralTransfer", "evaluate_module", "MAX_TRANSFERS"]
