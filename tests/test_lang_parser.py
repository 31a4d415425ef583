"""Tests for the ResCCLang textual parser (Figure 14 grammar)."""

import pytest

from repro.ir.task import Collective, CommType
from repro.lang import (
    ResCCLangSyntaxError,
    parse_module,
    parse_program,
)

RING_AG_SOURCE = """\
# Figure 5(a): 4-rank ring AllGather.
def ResCCLAlgo(nRanks=4, AlgoName="ring", OpType="Allgather"):
    N = 4
    for r in range(0, N):
        offset = r
        peer = (r + 1) % N
        for step in range(0, N - 1):
            transfer(r, peer, step, (offset - step) % N, recv)
"""


class TestHeader:
    def test_full_header(self):
        source = (
            'def ResCCLAlgo(nRanks=32, nChannels=4, nWarps=16, AlgoName="HM", '
            'OpType="Allreduce", GPUPerNode=8, NICPerNode=8):\n'
            "    transfer(0, 1, 0, 0, rrc)\n"
        )
        module = parse_module(source)
        header = module.header
        assert header.nranks == 32
        assert header.nchannels == 4
        assert header.nwarps == 16
        assert header.algo_name == "HM"
        assert header.collective is Collective.ALLREDUCE
        assert header.gpus_per_node == 8
        assert header.nics_per_node == 8

    def test_header_defaults(self):
        module = parse_module(
            "def ResCCLAlgo(nRanks=4):\n    transfer(0, 1, 0, 0, recv)\n"
        )
        assert module.header.nchannels == 4
        assert module.header.nwarps == 16
        assert module.header.collective is Collective.ALLGATHER

    def test_wrapped_header_continuation(self):
        source = (
            'def ResCCLAlgo(nRanks=8, AlgoName="wrapped",\n'
            '               OpType="Allgather"):\n'
            "    transfer(0, 1, 0, 0, recv)\n"
        )
        module = parse_module(source)
        assert module.header.algo_name == "wrapped"


class TestStatements:
    def test_ring_allgather_elaborates(self):
        program = parse_program(RING_AG_SOURCE)
        assert len(program.transfers) == 4 * 3
        first = program.transfers[0]
        assert (first.src, first.dst, first.step) == (0, 1, 0)
        assert first.op is CommType.RECV

    def test_matches_builder_ring(self):
        from repro.algorithms import ring_allgather

        parsed = parse_program(RING_AG_SOURCE)
        built = ring_allgather(4)
        assert set(parsed.transfers) == set(built.transfers)

    def test_quoted_comm_type(self):
        program = parse_program(
            'def ResCCLAlgo(nRanks=4):\n    transfer(0, 1, 0, 0, "rrc")\n'
        )
        assert program.transfers[0].op is CommType.RRC

    def test_assignment_and_arithmetic(self):
        program = parse_program(
            "def ResCCLAlgo(nRanks=8):\n"
            "    x = 2 + 3 * 2\n"  # 8 with precedence
            "    transfer(1, x % 8, 0, x / 3, recv)\n"
        )
        t = program.transfers[0]
        assert t.dst == 0  # 8 % 8
        assert t.chunk == 2  # 8 // 3

    def test_parenthesized_expression(self):
        program = parse_program(
            "def ResCCLAlgo(nRanks=8):\n"
            "    transfer(0, (1 + 2) * 2, 0, 0, recv)\n"
        )
        assert program.transfers[0].dst == 6

    def test_header_parameters_visible_in_body(self):
        program = parse_program(
            "def ResCCLAlgo(nRanks=6):\n"
            "    transfer(0, nRanks - 1, 0, 0, recv)\n"
        )
        assert program.transfers[0].dst == 5

    def test_range_single_argument(self):
        program = parse_program(
            "def ResCCLAlgo(nRanks=4):\n"
            "    for i in range(3):\n"
            "        transfer(i, i + 1, i, 0, recv)\n"
        )
        assert len(program.transfers) == 3

    def test_range_three_arguments(self):
        program = parse_program(
            "def ResCCLAlgo(nRanks=8):\n"
            "    for i in range(0, 6, 2):\n"
            "        transfer(i, i + 1, 0, i, recv)\n"
        )
        assert [t.src for t in program.transfers] == [0, 2, 4]

    def test_nested_loops(self):
        program = parse_program(
            "def ResCCLAlgo(nRanks=4):\n"
            "    for i in range(0, 2):\n"
            "        for j in range(0, 2):\n"
            "            transfer(i, i + j + 1, i, j, recv)\n"
        )
        assert len(program.transfers) == 4

    def test_comments_and_blank_lines_ignored(self):
        program = parse_program(
            "# leading comment\n"
            "def ResCCLAlgo(nRanks=4):\n"
            "\n"
            "    # inner comment\n"
            "    transfer(0, 1, 0, 0, recv)  # trailing\n"
        )
        assert len(program.transfers) == 1


HEADER = "def ResCCLAlgo(nRanks=4):\n"
BODY = "    x = 1\n"


def case(case_id, source, line, pattern):
    return pytest.param(source, line, pattern, id=case_id)


#: One case per ``raise`` site in ``repro/lang/parser.py``:
#: ``(source, line the error must name, message pattern)``.
ERROR_TABLE = [
    case("bad-character", HEADER + "    x = 1 @ 2\n", 2, "unexpected character '@'"),
    case("bad-character-at-eof", HEADER + "    transfer(0, 1,\n  $", 2, "unexpected character"),
    case("unbalanced-paren-at-eof", HEADER + BODY + "    transfer(0, 1,\n", 3, "unbalanced"),
    case("end-of-line", HEADER + "    x = \n", 2, "end of line"),
    case("expected-token", HEADER + "    x 1\n", 2, "expected '='"),
    case("trailing-token", HEADER + "    x = 1 2\n", 2, "trailing tokens"),
    case("continuation-line", "# c\n" + HEADER + "    x = (1 +\n  2 3)\n", 3, "expected '\\)'"),
    case("expected-expression", HEADER + "    x = * 2\n", 2, "expected expression"),
    case("header-not-a-name", "def ResCCLAlgo(nRanks=4, 5=2):\n" + BODY, 1, "header parameter"),
    case("header-unknown", "def ResCCLAlgo(nRanks=4, bogus=1):\n" + BODY, 1, "unknown parameter"),
    case("header-duplicate", "def ResCCLAlgo(nRanks=2, nRanks=4):\n" + BODY, 1, "duplicate"),
    case(
        "header-duplicate-wrapped",
        "# c\ndef ResCCLAlgo(nRanks=2,\n    nChannels=1,\n    nChannels=4):\n" + BODY,
        2,
        "duplicate parameter 'nChannels'",
    ),
    case("header-missing-comma", "def ResCCLAlgo(nRanks=2 nChannels=4):\n" + BODY, 1, "',' or"),
    case("header-unquoted", "def ResCCLAlgo(nRanks=4, AlgoName=ring):\n" + BODY, 1, "quoted"),
    case("header-not-integer", 'def ResCCLAlgo(nRanks="4"):\n' + BODY, 1, "expects an integer"),
    case("header-optype", 'def ResCCLAlgo(nRanks=4, OpType="bogus"):\n' + BODY, 1, "OpType"),
    case("header-no-nranks", 'def ResCCLAlgo(AlgoName="x"):\n' + BODY, 1, "missing nRanks"),
    case("header-out-of-range", "def ResCCLAlgo(nRanks=0):\n" + BODY, 1, "nRanks must be >= 2"),
    case("commtype-not-a-name", HEADER + "    transfer(0, 1, 0, 0, 5)\n", 2, "expected commType"),
    case("commtype-unknown", HEADER + "\n    transfer(0, 1, 0, 0, foo)\n", 3, "commType 'foo'"),
    case("for-not-a-name", HEADER + "    for 1 in range(2):\n    " + BODY, 2, "identifier"),
    case("range-arity", HEADER + "    for i in range(0, 1, 2, 3):\n    " + BODY, 2, "at most 3"),
    case("unexpected-indent", HEADER + BODY + "      y = 2\n", 3, "unexpected indent"),
    case("missing-indent", HEADER + "    for i in range(2):\n" + BODY, 2, "indented block"),
    case("expected-statement", HEADER + BODY + "    5 = 3\n", 3, "expected statement"),
    case("empty-program", "   \n# just a comment\n", 1, "empty program"),
    case("indented-def", "\n  " + HEADER + BODY, 2, "column 0"),
    case("empty-body", "# c\n" + HEADER, 2, "body is empty"),
    case("statement-outside-body", HEADER + BODY + "y = 2\n", 3, "outside"),
]


class TestErrors:
    @pytest.mark.parametrize("source,line,pattern", ERROR_TABLE)
    def test_error_names_its_line(self, source, line, pattern):
        with pytest.raises(ResCCLangSyntaxError, match=pattern) as info:
            parse_module(source)
        assert info.value.line == line
        assert str(info.value).startswith(f"line {line}: ")

    def test_first_offending_line_wins(self):
        """Lines stream into the parser, so errors come in source order."""
        with pytest.raises(ResCCLangSyntaxError) as info:
            parse_module(HEADER + "    x = 1 2\n    y = $\n")
        assert info.value.line == 2

    def test_trailing_header_comma_still_accepted(self):
        assert parse_module("def ResCCLAlgo(nRanks=4,):\n    x = 1\n").header.nranks == 4

    def test_bad_comm_type(self):
        with pytest.raises(ValueError, match="commType"):
            parse_module(
                "def ResCCLAlgo(nRanks=4):\n    transfer(0, 1, 0, 0, push)\n"
            )


class TestRoundTrip:
    def test_figure16_program_parses(self):
        """The Appendix B example (Figure 16), generalized shape 4x8."""
        source = """\
def ResCCLAlgo(nRanks=32, nChannels=4, nWarps=16, AlgoName="HM", OpType="Allreduce", GPUPerNode=8, NICPerNode=8):
    nNodes = 4
    nGpusperNode = 8
    nChunks = nNodes * nGpusperNode
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = baseStep * (nGpusperNode - 1) + offset
                    transfer(srcRank, dstRank, step, (dstRank + baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + baseStep
                transfer(srcRank, dstRank, step, (srcRank + nChunks - baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + nNodes - 1 + baseStep
                chunkId = (srcRank + nChunks - (baseStep + nNodes - 1) * nGpusperNode) % nChunks
                transfer(srcRank, dstRank, step, chunkId, recv)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = nNodes * (nGpusperNode - 1) + 2 * nNodes - 2 + baseStep
                    transfer(srcRank, dstRank, step, (srcRank + baseStep * nGpusperNode) % nChunks, recv)
"""
        from repro.algorithms import hm_allreduce

        program = parse_program(source)
        built = hm_allreduce(4, 8)
        assert set(program.transfers) == set(built.transfers)


#: Spellings of one literal transfer line; every one must elaborate to
#: ``Transfer(1, 2, 3, 0, rrc)``, most through the literal scanner and
#: the rest (continuations, quoted or upper-case commType) through the
#: tokenizer and parser.
LITERAL_VARIANTS = {
    "plain": "    transfer(1, 2, 3, 0, rrc)\n",
    "tab-indent": "\ttransfer(1, 2, 3, 0, rrc)\n",
    "tight": "    transfer(1,2,3,0,rrc)\n",
    "spread": "    transfer  (  1 ,\t2 , 3\t,0,  rrc  )  \n",
    "leading-zeros": "    transfer(01, 002, 3, 00, rrc)\n",
    "trailing-comment": "    transfer(1, 2, 3, 0, rrc)  # recv (\n",
    "paren-continuation": "    transfer(1, 2,\n             3, 0, rrc)\n",
    "backslash-continuation": "    transfer(1, 2, 3, \\\n        0, rrc)\n",
    "quoted-comm-type": '    transfer(1, 2, 3, 0, "rrc")\n',
    "upper-case-comm-type": "    transfer(1, 2, 3, 0, RRC)\n",
    "expression-argument": "    transfer(1, 1 + 1, 3, 0, rrc)\n",
}


#: Literal-looking bodies that are syntax errors, whichever path reads them.
MALFORMED_LITERALS = {
    "missing-argument": "    transfer(0, 1, 0, recv)\n",
    "trailing-token": "    transfer(0, 1, 0, 0, recv) x\n",
    "extra-paren": "    transfer(0, 1, 0, 0, recv))\n",
    "double-comma": "    transfer(0, 1, 0, 0,, recv)\n",
    "missing-comma": "    transfer(0 1, 0, 0, recv)\n",
    "unknown-comm-type": "    transfer(0, 1, 0, 0, push)\n",
    "bad-character": "    transfer(0, 1, 0, 0, recv) $\n",
    "non-ascii-blank": "    transfer(0, 1, 0, 0, recv)\xa0x\n",
    "unbalanced-at-eof": "    transfer(0, 1, 0, 0, recv\n",
    "unexpected-indent": "    x = 1\n      transfer(0, 1, 0, 0, recv)\n",
    "outside-body": "    x = 1\ntransfer(0, 1, 0, 0, recv)\n",
    "syntax-error-beats-self-transfer": "    transfer(1, 1, 0, 0, recv)\n    x = 1 2\n",
}


def _reference(source):
    """The compile path's result as the AST evaluator gives it."""
    from repro.lang import evaluate_module

    return evaluate_module(parse_module(source))


def _raised(parse, source):
    with pytest.raises(ValueError) as info:
        parse(source)
    return type(info.value), str(info.value), getattr(info.value, "line", None)


class TestLiteralLines:
    """parse_program reads literal transfer lines without the AST, with
    the same result as evaluate_module(parse_module(text))."""

    @pytest.mark.parametrize("line", LITERAL_VARIANTS.values(), ids=LITERAL_VARIANTS)
    def test_variant_elaborates_like_the_evaluator(self, line):
        source = HEADER + "    transfer(0, 1, 0, 0, recv)\n" + line + "    x = 2\n"
        program = parse_program(source)
        assert program.transfers == _reference(source).transfers
        assert program.header == _reference(source).header
        assert program.transfers[1].op is CommType.RRC
        assert (program.transfers[1].src, program.transfers[1].step) == (1, 3)

    def test_literals_inside_for_bodies(self):
        source = (
            'def ResCCLAlgo(nRanks=4, AlgoName="loops", OpType="Allreduce"):\n'
            "    for r in range(0, 3):\n"
            "        transfer(0, 1, 0, 0, recv)\n"
            "        for s in range(2):\n"
            "\t\t    transfer(1, 2, 1, 0, rrc)  # tabs count as 4 columns\n"
            "            transfer(r, r + 1, s + 2, 1, recv)\n"
            "    transfer(3, 0, 9, 3, recv)\n"
        )
        program = parse_program(source)
        reference = _reference(source)
        assert program.transfers == reference.transfers
        assert program.header == reference.header
        assert len(program.transfers) == 3 * (1 + 2 * 2) + 1

    def test_flat_program_skips_expression_evaluation(self, monkeypatch):
        from repro.algorithms import ring_allgather
        from repro.lang import builder

        def refuse(expr, env):
            raise AssertionError("a literal line was evaluated as an expression")

        monkeypatch.setattr(builder, "eval_expr", refuse)
        program = ring_allgather(8)
        assert parse_program(program.to_source()).transfers == program.transfers

    @pytest.mark.parametrize("body", MALFORMED_LITERALS.values(), ids=MALFORMED_LITERALS)
    def test_malformed_lines_fail_as_before(self, body):
        source = HEADER + "    transfer(0, 1, 0, 0, recv)\n" + body
        expected = _raised(_reference, source)
        assert expected[0] is ResCCLangSyntaxError
        assert _raised(parse_program, source) == expected

    @pytest.mark.parametrize(
        "source",
        [
            "transfer(0, 1, 0, 0, recv)\n" + HEADER,  # before the header
            HEADER + "    transfer(2, 2, 0, 0, recv)\n",  # self-transfer
            HEADER + "    transfer(0, 1, 0, 0, recv)\n    transfer(1, 0, 0, 0, recv)\n"
            + "    transfer(x, 1, 0, 0, recv)\n",  # undefined identifier
        ],
        ids=["before-header", "self-transfer", "undefined-identifier"],
    )
    def test_other_errors_unchanged(self, source):
        assert _raised(parse_program, source) == _raised(_reference, source)
