"""Tests for the AlgoProgram builder, evaluator, and static validation."""

import pytest

from repro.ir.task import Collective, CommType
from repro.lang import (
    AlgoProgram,
    ProgramValidationError,
    ResCCLangEvalError,
    evaluate_module,
    parse_module,
    validate_program,
)
from repro.lang.builder import MAX_TRANSFERS
from repro.topology import multi_node, single_node


class TestBuilder:
    def test_create_defaults(self):
        program = AlgoProgram.create(8, Collective.ALLREDUCE, name="x")
        assert program.nranks == 8
        assert program.nchunks == 8
        assert program.header.nchannels == 4
        assert program.header.nwarps == 16
        assert len(program) == 0

    def test_transfer_records(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        t = program.transfer(0, 1, 0, 2, "recv")
        assert t.op is CommType.RECV
        assert program.max_step == 0

    def test_transfer_accepts_enum(self):
        program = AlgoProgram.create(4, Collective.ALLREDUCE)
        t = program.transfer(0, 1, 3, 2, CommType.RRC)
        assert t.op is CommType.RRC
        assert program.max_step == 3

    def test_empty_max_step(self):
        assert AlgoProgram.create(4, Collective.ALLGATHER).max_step == -1

    def test_stage_of(self):
        program = AlgoProgram.create(4, Collective.ALLREDUCE)
        program.stage_starts = [0, 3, 6]
        assert program.stage_of(0) == 0
        assert program.stage_of(2) == 0
        assert program.stage_of(3) == 1
        assert program.stage_of(99) == 2
        assert program.num_stages == 3

    def test_header_bounds(self):
        from repro.lang.ast import Header, ResCCLangError

        with pytest.raises(ResCCLangError):
            Header(nranks=1)
        with pytest.raises(ResCCLangError):
            Header(nranks=4, nchannels=0)


class TestEvaluator:
    def test_division_is_integer(self):
        from repro.lang.parser import parse_program

        program = parse_program(
            "def ResCCLAlgo(nRanks=8):\n    transfer(7 / 2, 1, 0, 0, recv)\n"
        )
        assert program.transfers[0].src == 3

    def test_division_by_zero(self):
        module = parse_module(
            "def ResCCLAlgo(nRanks=8):\n    transfer(1 / 0, 1, 0, 0, recv)\n"
        )
        with pytest.raises(ResCCLangEvalError, match="division by zero"):
            evaluate_module(module)

    def test_modulo_by_zero(self):
        module = parse_module(
            "def ResCCLAlgo(nRanks=8):\n    transfer(1 % 0, 1, 0, 0, recv)\n"
        )
        with pytest.raises(ResCCLangEvalError, match="modulo by zero"):
            evaluate_module(module)

    def test_undefined_identifier(self):
        module = parse_module(
            "def ResCCLAlgo(nRanks=8):\n    transfer(bogus, 1, 0, 0, recv)\n"
        )
        with pytest.raises(ResCCLangEvalError, match="undefined identifier"):
            evaluate_module(module)

    def test_runaway_loop_capped(self):
        assert MAX_TRANSFERS >= 1_000_000  # sanity on the safety valve

    def test_loop_variable_scoping(self):
        from repro.lang.parser import parse_program

        program = parse_program(
            "def ResCCLAlgo(nRanks=8):\n"
            "    for i in range(0, 3):\n"
            "        x = i * 2\n"
            "    transfer(x, x + 1, 0, 0, recv)\n"
        )
        # DSL scoping is flat (like the paper's examples): x survives.
        assert program.transfers[0].src == 4


class TestValidation:
    def test_valid_program_passes(self):
        from repro.algorithms import hm_allreduce

        report = validate_program(hm_allreduce(2, 4), multi_node(2, 4))
        assert report.ok
        report.raise_if_failed()  # no-op

    def test_empty_program(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        report = validate_program(program)
        assert not report.ok
        assert any("no transfers" in issue for issue in report.issues)

    def test_rank_out_of_range(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        program.transfer(0, 1, 0, 0)
        program.transfers.append(
            __import__("repro.ir.task", fromlist=["Transfer"]).Transfer(
                src=0, dst=7, step=0, chunk=1, op=CommType.RECV
            )
        )
        report = validate_program(program)
        assert any("dst rank 7" in issue for issue in report.issues)

    def test_chunk_out_of_range(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        program.transfer(0, 1, 0, 99)
        report = validate_program(program)
        assert any("chunk 99" in issue for issue in report.issues)

    def test_duplicate_transfer(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        program.transfer(0, 1, 0, 0)
        program.transfer(0, 1, 0, 0)
        report = validate_program(program)
        assert any("duplicate" in issue for issue in report.issues)

    def test_write_conflict(self):
        program = AlgoProgram.create(4, Collective.ALLREDUCE)
        program.transfer(0, 2, 0, 1, "rrc")
        program.transfer(1, 2, 0, 1, "rrc")
        report = validate_program(program)
        assert any("write conflict" in issue for issue in report.issues)

    def test_cluster_mismatch(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        program.transfer(0, 1, 0, 0)
        report = validate_program(program, single_node(8))
        assert any("cluster has 8" in issue for issue in report.issues)

    def test_raise_if_failed(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        with pytest.raises(ProgramValidationError):
            validate_program(program).raise_if_failed()

    def test_error_message_truncates(self):
        program = AlgoProgram.create(4, Collective.ALLGATHER)
        for chunk in range(90, 110):
            program.transfers.append(
                __import__("repro.ir.task", fromlist=["Transfer"]).Transfer(
                    src=0, dst=1, step=0, chunk=chunk, op=CommType.RECV
                )
            )
        with pytest.raises(ProgramValidationError, match="more"):
            validate_program(program).raise_if_failed()


def _program(transfers, nranks=4):
    program = AlgoProgram.create(nranks, Collective.ALLREDUCE)
    for transfer in transfers:
        program.transfer(*transfer)
    return program


#: One case per issue class ``validate_program`` reports:
#: ``(transfers of a 4-rank program, cluster world size)``.
PARITY_CASES = [
    pytest.param([], 4, id="empty-program"),
    pytest.param([(0, 1, 0, 0)], 8, id="cluster-mismatch"),
    pytest.param([(0, 1, 0, 0), (5, 1, 1, 0)], 4, id="src-out-of-range"),
    pytest.param([(0, 1, 0, 0), (1, 6, 1, 0)], 4, id="dst-out-of-range"),
    pytest.param([(0, 1, 0, 0), (1, 2, 1, 9)], 4, id="chunk-out-of-range"),
    pytest.param([(0, 1, 0, 0), (0, 1, 0, 0)], 4, id="duplicate"),
    pytest.param([(0, 2, 0, 1, "rrc"), (1, 2, 0, 1, "rrc")], 4, id="write-conflict"),
    pytest.param(
        [(0, 1, 0, 0), (0, 1, 0, 0), (2, 7, 1, 5), (3, 1, 1, 8)], 4, id="several"
    ),
]


class TestCompileValidationParity:
    """A validated compile rejects exactly what validate_program rejects,
    with exactly its issue list, while building a single DAG."""

    @pytest.mark.parametrize("transfers, world", PARITY_CASES)
    def test_compile_raises_the_validator_issues(self, transfers, world):
        from repro.core import ResCCLCompiler

        program, cluster = _program(transfers), single_node(world)
        expected = validate_program(program, cluster).issues
        assert expected
        with pytest.raises(ProgramValidationError) as info:
            ResCCLCompiler().compile(program, cluster)
        assert info.value.issues == expected
        if transfers:  # an empty body is a syntax error in text
            with pytest.raises(ProgramValidationError) as info:
                ResCCLCompiler().compile(program.to_source(), cluster)
            assert info.value.issues == expected

    def test_cycle_guard_reports_the_validator_issue(self, monkeypatch):
        """DSL DAGs cannot be cyclic, so a back edge is injected into
        every DAG the validation module builds."""
        from repro.core import ResCCLCompiler
        from repro.lang import validate

        build = validate.build_dag

        def cyclic(transfers, cluster):
            dag = build(transfers, cluster)
            dag.add_edge(len(dag) - 1, 0)
            return dag

        monkeypatch.setattr(validate, "build_dag", cyclic)
        program, cluster = _program([(0, 1, 0, 0), (1, 2, 1, 0)]), single_node(4)
        expected = validate_program(program, cluster).issues
        assert len(expected) == 1 and "cycle" in expected[0]
        with pytest.raises(ProgramValidationError) as info:
            ResCCLCompiler().compile(program, cluster)
        assert info.value.issues == expected

    @pytest.mark.parametrize("from_text", [False, True], ids=["program", "text"])
    def test_validated_compile_builds_one_dag(self, monkeypatch, from_text):
        from repro.algorithms import build_algorithm
        from repro.core import ResCCLCompiler, compiler
        from repro.lang import validate

        calls = []
        build = validate.build_dag

        def counting(transfers, cluster):
            calls.append(len(transfers))
            return build(transfers, cluster)

        monkeypatch.setattr(validate, "build_dag", counting)
        monkeypatch.setattr(compiler, "build_dag", counting)
        cluster = multi_node(2, 4)
        program = build_algorithm("hm-allreduce", cluster)
        source = program.to_source() if from_text else program
        result = ResCCLCompiler().compile(source, cluster)
        assert calls == [len(program.transfers)]
        assert len(result.dag) == len(program.transfers)
