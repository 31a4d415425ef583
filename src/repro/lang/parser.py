"""Single-pass recursive-descent parser for textual ResCCLang (Figure 14 BNF).

The surface syntax is Python-like and indentation-structured, exactly as
the paper's Figure 16 example program:

    def ResCCLAlgo(nRanks=32, nChannels=4, nWarps=16, AlgoName="HM",
                   OpType="Allreduce", GPUPerNode=8, NICPerNode=8):
        nNodes = 4
        for n in range(0, nNodes):
            transfer(srcRank, dstRank, step, chunkId, rrc)

The grammar terminals: identifiers, integer literals, quoted strings (for
``AlgoName`` and ``OpType``), the arithmetic operators ``+ - * / %``,
parentheses, and the keywords ``def``, ``for``, ``in``, ``range``,
``transfer``.  ``commType`` may be written bare (``recv`` / ``rrc``, as in
Figure 16) or quoted (as in the BNF).

Cost contract: parsing is one pass over the source, O(bytes), with no
backtracking.  Each logical line is checked for bad characters by one
regex match and lexed by one ``findall`` into a list of plain strings
(no token records).  The LL(1) parser walks that list by index with one
token of look-ahead, and logical lines stream into the block parser one
at a time, so only the current line's tokens are alive.  Every syntax
error is a :class:`ResCCLangSyntaxError` carrying the (starting) line
number of the offending logical line.

:func:`parse_program` (the compile path) reads a *literal* transfer line,
``transfer(<int>, <int>, <int>, <int>, recv|rrc)`` with any blanks, by one
regex match into a plain ``(src, dst, step, chunk, CommType)`` record: no
tokens, no AST nodes, no expression evaluation.  That is the shape of
every line :meth:`AlgoProgram.to_source` writes.  Any other line (loops,
expressions, a quoted or upper-case commType, malformed text) takes the
tokenizer and parser above, so errors keep their messages and line
numbers, and :func:`parse_module` returns the same AST as ever.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..ir.task import Collective, CommType
from .ast import (
    Assign,
    BinOp,
    Expr,
    ForLoop,
    Header,
    Module,
    Name,
    Num,
    ResCCLangError,
    ResCCLangSyntaxError,
    Stmt,
    TransferStmt,
)
from .builder import AlgoProgram, LiteralTransfer, evaluate_module

_TOKEN_CHARS = r" \t\dA-Za-z_+\-*/%(),:="
#: A line is clean when every character is whitespace, a token character,
#: or part of a closed string (written unrolled, so matching is linear).
_CLEAN_RE = re.compile(rf'[{_TOKEN_CHARS}]*(?:"[^"\n]*"[{_TOKEN_CHARS}]*)*')
_TOKEN_RE = re.compile(r'"[^"\n]*"|\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/%(),:=]')
#: A whole physical line holding one literal transfer: its indent, the
#: four integers and the commType, then blanks and an optional comment.
_LITERAL_RE = re.compile(
    r"([ \t]*)transfer[ \t]*\([ \t]*([0-9]+)[ \t]*,[ \t]*([0-9]+)[ \t]*,"
    r"[ \t]*([0-9]+)[ \t]*,[ \t]*([0-9]+)[ \t]*,[ \t]*(recv|rrc)[ \t]*\)"
    r"[ \t]*(?:#.*)?"
)

#: Tokens after the last one of a line read as this end marker.
_END = ""
_ADD_OPS = frozenset("+-")
_MUL_OPS = frozenset("*/%")

_COMM_TYPES: Dict[str, CommType] = {member.value: member for member in CommType}
_COLLECTIVES: Dict[str, Collective] = {
    member.value.lower(): member for member in Collective
}
_HEADER_PARAMS = {
    "nRanks": "nranks",
    "nChannels": "nchannels",
    "nWarps": "nwarps",
    "AlgoName": "algo_name",
    "OpType": "collective",
    "GPUPerNode": "gpus_per_node",
    "NICPerNode": "nics_per_node",
}

#: ``(indent, tokens, line number)`` of one logical line; ``tokens`` ends
#: with :data:`_END`, or is the record of a literal transfer line.
_Line = Tuple[int, Union[List[str], LiteralTransfer], int]


def _bad_character(text: str, number: int) -> ResCCLangSyntaxError:
    bad = text[_CLEAN_RE.match(text).end()]
    return ResCCLangSyntaxError(f"unexpected character {bad!r}", number)


def _logical_lines(source: str, literals: bool) -> Iterator[_Line]:
    """Yield the indented token lines of ``source``, dropping blanks/comments.

    A trailing backslash or an unclosed parenthesis joins physical lines,
    which lets long headers wrap as in the paper's listing; the joined
    line reports the number of its first physical line.  With
    ``literals``, a physical line after the header that holds one literal
    transfer yields its :data:`LiteralTransfer` record instead of tokens.
    """
    clean, tokenize = _CLEAN_RE.fullmatch, _TOKEN_RE.findall
    literal = None  # the header line always goes through the tokenizer
    pending = ""
    start = depth = 0
    for number, code in enumerate(source.splitlines(), 1):
        if literal is not None and not pending:
            match = literal(code)
            if match is not None:
                lead, src, dst, step, chunk, comm = match.groups()
                indent = len(lead.replace("\t", "    ") if "\t" in lead else lead)
                record = (int(src), int(dst), int(step), int(chunk), _COMM_TYPES[comm])
                yield indent, record, number
                continue
        if "#" in code:
            code = code[: code.index("#")]
        code = code.rstrip()
        if not pending:
            if not code:
                continue
            start = number
        continued = code.endswith("\\")
        if continued:
            code = code[:-1]
        depth += code.count("(") - code.count(")")
        if pending:
            code = pending + " " + code.lstrip()
        if continued or depth > 0:
            pending = code
            continue
        pending = ""
        depth = 0
        text = code.lstrip(" \t")
        indent = len(code) - len(text)
        if indent and "\t" in code:
            indent = len(code[:indent].replace("\t", "    "))
        if clean(text) is None:
            raise _bad_character(text, start)
        tokens = tokenize(text)
        if tokens:
            tokens.append(_END)
            yield indent, tokens, start
            if literals:
                literal = _LITERAL_RE.fullmatch
    if pending.strip():
        text = pending.lstrip()
        if clean(text) is None:
            raise _bad_character(text, start)
        raise ResCCLangSyntaxError("unbalanced parentheses at end of file", start)


def _unexpected(token: str, expected: str, number: int) -> ResCCLangSyntaxError:
    if token == _END:
        return ResCCLangSyntaxError("unexpected end of line", number)
    return ResCCLangSyntaxError(f"expected {expected}, found {token!r}", number)


def _require_end(tokens: List[str], i: int, number: int) -> None:
    if tokens[i] != _END:
        raise ResCCLangSyntaxError(f"trailing tokens starting at {tokens[i]!r}", number)


def _parse_atom(
    tokens: List[str], i: int, number: int, atoms: Dict[str, Expr]
) -> Tuple[Expr, int]:
    """``atom := number | id | '(' expr ')' | '-' atom``; returns ``(node, i)``.

    Literal and identifier nodes are immutable, so one node per distinct
    token text is shared through ``atoms``.
    """
    token = tokens[i]
    if token.isdigit():
        node = atoms[token] = Num(int(token))
        return node, i + 1
    if token.isidentifier():
        node = atoms[token] = Name(token)
        return node, i + 1
    if token == "(":
        node, i = _parse_expr(tokens, i + 1, number, atoms)
        if tokens[i] != ")":
            raise _unexpected(tokens[i], "')'", number)
        return node, i + 1
    if token == "-":
        # Unary minus, e.g. ``(offset-step)`` style rewrites: ``0 - x``.
        node, i = _parse_atom(tokens, i + 1, number, atoms)
        return BinOp(op="-", left=Num(0), right=node), i
    raise _unexpected(token, "expression", number)


def _parse_expr(
    tokens: List[str], i: int, number: int, atoms: Dict[str, Expr]
) -> Tuple[Expr, int]:
    """``expr := term (('+'|'-') term)*``, ``term := atom (('*'|'/'|'%') atom)*``.

    Returns ``(node, i)``; operators associate to the left.
    """
    node: Optional[Expr] = None
    add_op = ""
    while True:
        term = atoms.get(tokens[i])
        if term is None:
            term, i = _parse_atom(tokens, i, number, atoms)
        else:
            i += 1
        while tokens[i] in _MUL_OPS:
            op = tokens[i]
            right = atoms.get(tokens[i + 1])
            if right is None:
                right, i = _parse_atom(tokens, i + 1, number, atoms)
            else:
                i += 2
            term = BinOp(op=op, left=term, right=right)
        node = term if node is None else BinOp(op=add_op, left=node, right=term)
        if tokens[i] not in _ADD_OPS:
            return node, i
        add_op = tokens[i]
        i += 1


def _expect(tokens: List[str], i: int, text: str, number: int) -> int:
    if tokens[i] != text:
        raise _unexpected(tokens[i], repr(text), number)
    return i + 1


def _parse_header(tokens: List[str], number: int) -> Header:
    i = _expect(tokens, 0, "def", number)
    i = _expect(tokens, i, "ResCCLAlgo", number)
    i = _expect(tokens, i, "(", number)
    values = {}
    while tokens[i] != ")":
        key = tokens[i]
        field = _HEADER_PARAMS.get(key)
        if field is None:
            if not key.isidentifier():
                raise _unexpected(key, "a header parameter", number)
            known = ", ".join(sorted(_HEADER_PARAMS))
            raise ResCCLangSyntaxError(
                f"unknown parameter {key!r}; known: {known}", number
            )
        if field in values:
            raise ResCCLangSyntaxError(f"duplicate parameter {key!r}", number)
        i = _expect(tokens, i + 1, "=", number)
        value = tokens[i]
        quoted = field in ("algo_name", "collective")
        if quoted and not value.startswith('"'):
            raise ResCCLangSyntaxError(f"{key} expects a quoted string", number)
        if not quoted and not value.isdigit():
            raise ResCCLangSyntaxError(f"{key} expects an integer", number)
        if field == "collective":
            values[field] = _COLLECTIVES.get(value[1:-1].lower())
            if values[field] is None:
                known = ", ".join(member.value for member in Collective)
                raise ResCCLangSyntaxError(
                    f"unknown OpType {value!r}; expected one of: {known}", number
                )
        else:
            values[field] = value[1:-1] if quoted else int(value)
        i += 1
        if tokens[i] == ",":
            i += 1
        elif tokens[i] != ")":
            raise _unexpected(tokens[i], "',' or ')'", number)
    i = _expect(tokens, i + 1, ":", number)
    _require_end(tokens, i, number)
    if "nranks" not in values:
        raise ResCCLangSyntaxError("header is missing nRanks", number)
    try:
        return Header(**values)
    except ResCCLangError as exc:
        raise ResCCLangSyntaxError(str(exc), number) from None


def _parse_transfer(
    tokens: List[str], number: int, atoms: Dict[str, Expr]
) -> TransferStmt:
    i = _expect(tokens, 1, "(", number)
    args = []
    for _ in range(4):
        # Inlined look-ahead: a lone literal or identifier skips _parse_expr.
        arg = atoms.get(tokens[i])
        if arg is not None and tokens[i + 1] == ",":
            i += 2
        else:
            arg, i = _parse_expr(tokens, i, number, atoms)
            i = _expect(tokens, i, ",", number)
        args.append(arg)
    token = tokens[i]
    comm_type = _COMM_TYPES.get(token)
    if comm_type is None:
        if not (token.isidentifier() or token.startswith('"')):
            raise _unexpected(token, "commType", number)
        comm_type = _COMM_TYPES.get(token.strip('"').lower())
        if comm_type is None:
            raise ResCCLangSyntaxError(
                f"unknown commType {token!r}; expected 'recv' or 'rrc'", number
            )
    i = _expect(tokens, i + 1, ")", number)
    _require_end(tokens, i, number)
    src, dst, step, chunk = args
    return TransferStmt(src=src, dst=dst, step=step, chunk=chunk, comm_type=comm_type)


def _parse_for(
    tokens: List[str], number: int, atoms: Dict[str, Expr]
) -> Tuple[str, Tuple[Expr, ...]]:
    var = tokens[1]
    if not var.isidentifier():
        raise _unexpected(var, "identifier", number)
    i = _expect(tokens, 2, "in", number)
    i = _expect(tokens, i, "range", number)
    i = _expect(tokens, i, "(", number)
    range_args = []
    while True:
        arg, i = _parse_expr(tokens, i, number, atoms)
        range_args.append(arg)
        if tokens[i] != ",":
            break
        i += 1
    i = _expect(tokens, i, ")", number)
    if len(range_args) > 3:
        raise ResCCLangSyntaxError("range() takes at most 3 arguments", number)
    i = _expect(tokens, i, ":", number)
    _require_end(tokens, i, number)
    return var, tuple(range_args)


def _parse_block(
    lines: Iterator[_Line], line: Optional[_Line], indent: int, atoms: Dict[str, Expr]
) -> Tuple[List[Stmt], Optional[_Line]]:
    """Parse statements at exactly ``indent``, starting with ``line``.

    Returns the statements and the first line after the block (the
    dedent), or ``None`` at end of input.
    """
    body: List[Stmt] = []
    while line is not None:
        line_indent, tokens, number = line
        if line_indent != indent:
            if line_indent < indent:
                break
            raise ResCCLangSyntaxError(
                f"unexpected indent (expected {indent} spaces, got {line_indent})",
                number,
            )
        if type(tokens) is tuple:  # a literal transfer, already read
            body.append(tokens)
            line = next(lines, None)
            continue
        head = tokens[0]
        if head == "transfer":
            body.append(_parse_transfer(tokens, number, atoms))
            line = next(lines, None)
        elif head == "for":
            var, range_args = _parse_for(tokens, number, atoms)
            line = next(lines, None)
            if line is None or line[0] <= line_indent:
                raise ResCCLangSyntaxError(
                    "expected an indented block after ':'", number
                )
            inner, line = _parse_block(lines, line, line[0], atoms)
            body.append(ForLoop(var=var, range_args=range_args, body=tuple(inner)))
        elif head.isidentifier():
            i = _expect(tokens, 1, "=", number)
            value, i = _parse_expr(tokens, i, number, atoms)
            _require_end(tokens, i, number)
            body.append(Assign(target=head, value=value))
            line = next(lines, None)
        else:
            raise _unexpected(head, "statement", number)
    return body, line


def _parse(source: str, literals: bool) -> Module:
    lines = _logical_lines(source, literals)
    first = next(lines, None)
    if first is None:
        raise ResCCLangSyntaxError("empty program", 1)
    indent, tokens, number = first
    if indent != 0:
        raise ResCCLangSyntaxError("the def must start at column 0", number)
    header = _parse_header(tokens, number)
    line = next(lines, None)
    if line is None:
        raise ResCCLangSyntaxError("the algorithm body is empty", number)
    body, line = _parse_block(lines, line, line[0], {})
    if line is not None:
        raise ResCCLangSyntaxError(
            "statement outside of the ResCCLAlgo body", line[2]
        )
    return Module(header=header, body=body)


def parse_module(source: str) -> Module:
    """Parse ResCCLang source text into an AST module."""
    return _parse(source, literals=False)


def parse_program(source: str) -> AlgoProgram:
    """Parse and evaluate ResCCLang text into an elaborated program.

    Equal to ``evaluate_module(parse_module(source))``, with literal
    transfer lines read straight into records (see the module docstring).
    """
    return evaluate_module(_parse(source, literals=True))


__all__ = ["parse_module", "parse_program"]
