"""Tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

DOCS = Path(__file__).resolve().parent.parent / "docs"
RING8 = "examples/algorithms/ring_allreduce_8.rescclang"


def assert_one_error_line(capsys, reason):
    """Stderr holds exactly one ``error:`` line, carrying ``reason``."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1, err
    assert reason in error_lines[0], err


class TestAlgos:
    def test_lists_builtins(self, capsys):
        assert main(["algos"]) == 0
        out = capsys.readouterr().out
        assert "hm-allreduce" in out
        assert "taccl:" in out


class TestVerify:
    def test_builtin_algorithm(self, capsys):
        assert main(["verify", "hm-allgather", "--nodes", "2", "--gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "static validation: ok" in out
        assert "collective semantics: ok" in out

    def test_synthesizer_spec(self, capsys):
        assert main(["verify", "teccl:allgather", "--nodes", "2", "--gpus", "4"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_dsl_file(self, tmp_path, capsys):
        from repro.algorithms import ring_allgather

        path = tmp_path / "ring.rescclang"
        path.write_text(ring_allgather(8).to_source())
        assert main(["verify", str(path), "--nodes", "1", "--gpus", "8"]) == 0

    def test_broken_dsl_file_fails(self, tmp_path, capsys):
        from repro.ir.task import Collective
        from repro.lang import AlgoProgram

        broken = AlgoProgram.create(8, Collective.ALLGATHER)
        broken.transfer(0, 1, 0, 0)  # incomplete AllGather
        path = tmp_path / "broken.rescclang"
        path.write_text(broken.to_source())
        assert main(["verify", str(path), "--nodes", "1", "--gpus", "8"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_unknown_spec(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "does-not-exist"])
        assert info.value.code == 2
        assert_one_error_line(capsys, "'does-not-exist' is not a built-in")


class TestProgramFile:
    """Every program-taking subcommand refits the default cluster to a
    DSL file's rank count."""

    def test_compile_refits_default_cluster(self, capsys):
        assert main(["compile", RING8]) == 0
        assert "nodes=1, gpus_per_node=8" in capsys.readouterr().out

    def test_trace_refits_default_cluster(self, capsys):
        assert main(["trace", RING8, "--buffer-mb", "16", "--mbs", "2",
                     "--width", "40"]) == 0
        assert "timeline" in capsys.readouterr().out

    def test_verify_and_export_refit_default_cluster(self, tmp_path, capsys):
        assert main(["verify", RING8]) == 0
        out = tmp_path / "ring8.rescclang"
        assert main(["export", RING8, str(out)]) == 0
        assert "nRanks=8" in out.read_text()

    def test_explicit_shape_is_not_refit(self, capsys):
        assert main(["verify", RING8, "--nodes", "1", "--gpus", "4"]) == 1
        assert "static validation FAILED" in capsys.readouterr().out


class TestCompile:
    def test_compile_summary(self, capsys):
        assert main(["compile", "ring-allgather", "--nodes", "1", "--gpus", "8"]) == 0
        out = capsys.readouterr().out
        assert "sub-pipelines" in out
        assert "scheduling" in out

    def test_compile_kernel_listing(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "ring-allgather",
                    "--nodes",
                    "1",
                    "--gpus",
                    "4",
                    "--kernel",
                    "--rank",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "switch (blockIdx.x)" in out

    def test_rr_scheduler(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "ring-allgather",
                    "--scheduler",
                    "rr",
                    "--nodes",
                    "1",
                    "--gpus",
                    "4",
                ]
            )
            == 0
        )

    def test_reports_the_plan_that_runs(self, capsys):
        """compile --mbs N lowers exactly as an N-micro-batch plan does."""
        from repro.algorithms import build_algorithm
        from repro.core import ResCCLBackend
        from repro.runtime import MB
        from repro.topology import single_node

        argv = ["mesh-reducescatter", "--nodes", "1", "--gpus", "8"]
        assert main(["compile", *argv, "--mbs", "8", "--kernel"]) == 0
        out = capsys.readouterr().out
        cluster = single_node(8)
        plan = ResCCLBackend(max_microbatches=8).plan(
            cluster, build_algorithm("mesh-reducescatter", cluster), 256 * MB
        )
        assert plan.n_microbatches == 8
        assert len(plan.tb_programs) == 112
        assert "; 112 thread blocks at 8 micro-batch(es)" in out
        rank0 = [tb for tb in plan.tb_programs if tb.rank == 0]
        assert out.count("  case ") == len(rank0) == 14


class TestMalformedCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "ring-allreduce", "--nodes", "0"],
            ["run", "ring-allreduce", "--gpus", "-1"],
            ["run", "ring-allreduce", "--buffer-mb", "0"],
            ["run", "ring-allreduce", "--buffer-mb", "-4"],
            ["run", "ring-allreduce", "--mbs", "0"],
            ["compile", "ring-allreduce", "--mbs", "0"],
            ["trace", "ring-allreduce", "--mbs", "two"],
            ["trace", "ring-allreduce", "--width", "0"],
            ["trace", "ring-allreduce", "--width", "-5"],
            ["profile", "ring-allreduce", "--metrics-limit", "-2"],
        ],
    )
    def test_non_positive_count_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--inject", "link-flap", "--fault-intensity", "7"],
            ["--inject", "link-flap", "--fault-intensity", "-1"],
            ["--inject", "link-kill", "--failover-factor", "-3"],
        ],
    )
    def test_fault_knob_outside_unit_interval_is_an_error(self, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "ring-allreduce", "--nodes", "1", "--gpus", "4",
                  "--buffer-mb", "8", "--mbs", "2", *flags])
        assert info.value.code == 2
        (error,) = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert re.search(r"error: argument --[a-z-]+: must be in \[0, 1\]", error)

    @pytest.mark.parametrize("sizes", ["-4", "16,nan", "16,x"])
    def test_tune_sizes_take_the_buffer_mb_bound(self, sizes, tmp_path, capsys):
        # A negative size used to reach the tuner and end in a traceback.
        with pytest.raises(SystemExit) as info:
            main(["tune", f"--sizes-mb={sizes}", "--table", str(tmp_path / "t.json")])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("error: --sizes-mb: must be")

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["run", "ring-allreduce", "--mbs", "0"], {"mbs": 0}),
            (["run", "ring-allreduce", "--buffer-mb", "-1"], {"buffer_mb": -1}),
            (["run", "ring-allreduce", "--buffer-mb", "nan"],
             {"buffer_mb": float("nan")}),
            # Were the cap missing, the bad --rank would end the command
            # before an 8192-rank program is built.
            (["trace", "ring-allreduce", "--nodes", "1024", "--gpus", "8",
              "--rank", "99999"], {"nodes": 1024, "gpus": 8}),
            (["verify", "ring-allreduce", "--profile", "H100"],
             {"profile": "H100"}),
            (["compile", "ring-allreduce", "--scheduler", "RR"],
             {"scheduler": "RR"}),
            (["run", "ring-allreduce", "--sim-fidelity", "medium"],
             {"sim_fidelity": "medium"}),
            (["verify", "taccl:foo"], {"algorithm": "taccl:foo"}),
            (["verify", "xyz:allreduce"], {"algorithm": "xyz:allreduce"}),
        ],
    )
    def test_cli_and_service_reject_with_one_reason(self, argv, payload, capsys):
        from repro.service import RequestError, parse_request

        with pytest.raises(RequestError) as refused:
            parse_request("compile", {"algorithm": "ring-allreduce", **payload})
        message = str(refused.value)
        # Field errors read "field '<name>': <reason>"; the CLI prints the
        # same reason after "argument --<flag>:".
        reason = message.split(": ", 1)[1] if message.startswith("field ") else message
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1
        assert error_lines[0].endswith(reason)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["run", "ring-allreduce", "--tuning-table", "no-such-table.json"],
             "tuning table not found: no-such-table.json"),
            (["tune", "--collectives", ","],
             "need at least one collective and one size"),
        ],
    )
    def test_missing_input_exits_2(self, argv, reason, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert_one_error_line(capsys, reason)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "ring-allreduce", "--kernel", "--rank", "99"],
            ["trace", "ring-allreduce", "--rank", "42"],
            ["trace", "ring-allreduce", "--ranks", "1,42"],
            ["profile", "ring-allreduce", "--ranks", "8"],
        ],
    )
    def test_rank_outside_cluster_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--nodes", "1", "--gpus", "8"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "is outside [0, 8)" in err
        assert len(err.strip().splitlines()) == 1


class TestRunAndCompare:
    def test_fractional_buffer_and_compare_header(self, capsys):
        # The CLI takes the service's positive float for --buffer-mb
        # (an integer before); the compare header prints it with :g.
        argv = ["ring-allreduce", "--nodes", "1", "--gpus", "4", "--mbs", "2"]
        assert main(["run", *argv, "--buffer-mb", "0.5"]) == 0
        capsys.readouterr()
        assert main(["compare", *argv, "--buffer-mb", "16"]) == 0
        assert ", 16 MB:" in capsys.readouterr().out

    def test_run_resccl(self, capsys):
        assert (
            main(
                [
                    "run",
                    "hm-allreduce",
                    "--buffer-mb",
                    "16",
                    "--mbs",
                    "2",
                    "--nodes",
                    "2",
                    "--gpus",
                    "4",
                ]
            )
            == 0
        )
        assert "GB/s" in capsys.readouterr().out

    def test_run_nccl_backend(self, capsys):
        assert (
            main(
                [
                    "run",
                    "ring-allreduce",
                    "--backend",
                    "nccl",
                    "--buffer-mb",
                    "16",
                    "--mbs",
                    "2",
                    "--nodes",
                    "2",
                    "--gpus",
                    "4",
                ]
            )
            == 0
        )

    def test_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "hm-allreduce", "--backend", "hccl"])
        assert info.value.code == 2
        assert_one_error_line(capsys, "argument --backend: invalid choice: 'hccl'")

    def test_backend_is_case_insensitive(self, capsys):
        argv = ["run", "ring-allgather", "--nodes", "1", "--gpus", "4",
                "--buffer-mb", "8", "--mbs", "2", "--backend"]
        assert main(argv + ["NCCL"]) == 0
        upper = capsys.readouterr().out
        assert main(argv + ["nccl"]) == 0
        assert capsys.readouterr().out == upper

    def test_compare_table(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "hm-allgather",
                    "--buffer-mb",
                    "16",
                    "--mbs",
                    "2",
                    "--nodes",
                    "2",
                    "--gpus",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "NCCL" in out and "ResCCL" in out and "vs NCCL" in out
        # No plan beats its physics lower bound.
        header, _, *rows = out.split("\n\n")[1].splitlines()
        column = header.index("% of bound")
        for row in rows[:3]:
            assert int(row[column:].split("%")[0]) >= 100

    def test_tune_prints_the_winners_bound(self, tmp_path, capsys):
        argv = ["tune", "--collectives", "allgather", "--sizes-mb", "8",
                "--nodes", "1", "--gpus", "4", "--schedulers", "hpds",
                "--jobs", "1", "--table", str(tmp_path / "t.json")]
        assert main(argv) == 0
        header, _, row = capsys.readouterr().out.splitlines()[:3]
        column = header.index("bound ms")
        assert float(row[column:].split()[0]) > 0
        assert main(argv) == 0  # skipped: the table stores no bound
        header, _, row = capsys.readouterr().out.splitlines()[:3]
        assert row[header.index("bound ms"):].split()[0] == "-"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_v100_profile(self, capsys):
        assert (
            main(
                [
                    "run",
                    "hm-allgather",
                    "--profile",
                    "V100",
                    "--buffer-mb",
                    "16",
                    "--mbs",
                    "2",
                    "--nodes",
                    "2",
                    "--gpus",
                    "4",
                ]
            )
            == 0
        )


class TestExportAndXml:
    def test_export_rescclang(self, tmp_path, capsys):
        out = tmp_path / "ring.rescclang"
        assert (
            main(
                ["export", "ring-allgather", str(out), "--nodes", "1",
                 "--gpus", "4"]
            )
            == 0
        )
        assert "ResCCLang" in capsys.readouterr().out
        assert out.read_text().startswith("def ResCCLAlgo")

    def test_export_msccl_xml(self, tmp_path, capsys):
        out = tmp_path / "ring.xml"
        assert (
            main(
                ["export", "ring-allreduce", str(out), "--nodes", "1",
                 "--gpus", "4"]
            )
            == 0
        )
        assert "MSCCL-XML" in capsys.readouterr().out
        assert "<algo" in out.read_text()

    def test_xml_round_trips_through_cli(self, tmp_path, capsys):
        out = tmp_path / "hm.xml"
        assert (
            main(
                ["export", "hm-allreduce", str(out), "--nodes", "2",
                 "--gpus", "4"]
            )
            == 0
        )
        assert (
            main(["verify", str(out), "--nodes", "2", "--gpus", "4"]) == 0
        )
        assert "semantics: ok" in capsys.readouterr().out


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table3" in out

    def test_requires_name(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["experiment"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no experiment id")
        assert len(err.splitlines()) == 1

    def test_unknown_name_exits_2(self, capsys):
        # Used to end in a ValueError traceback from run_experiment.
        with pytest.raises(SystemExit) as info:
            main(["experiment", "nope"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'nope'")
        assert len(err.splitlines()) == 1

    def test_runs_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "TB count" in capsys.readouterr().out or True


class TestTraceCommand:
    def test_ascii_and_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "hm-allreduce",
                    "--nodes", "2", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                    "--width", "40",
                    "--output", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "timeline" in printed
        assert out.exists()

    def test_ranks_filter_applies_to_both_outputs(self, tmp_path, capsys):
        import json

        from repro.analysis import validate_chrome_trace
        from repro.analysis.timeline import FAULT_PID

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "hm-allreduce",
                    "--nodes", "2", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                    "--ranks", "1,2",
                    "--width", "40",
                    "--output", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "r1 " in printed and "r0 " not in printed
        trace = json.loads(out.read_text())
        validate_chrome_trace(trace)
        lane_pids = {
            e["pid"] for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] < FAULT_PID
        }
        assert lane_pids == {1, 2}

    def test_inject_includes_fault_events(self, tmp_path, capsys):
        import json

        from repro.analysis.timeline import FAULT_PID

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "ring-allreduce",
                    "--nodes", "1", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                    "--inject", "link-flap",
                    "--seed", "0",
                    "--output", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "fault/recovery events" in printed
        trace = json.loads(out.read_text())
        fault_kinds = {
            e["name"] for e in trace["traceEvents"]
            if e.get("pid") == FAULT_PID and e["ph"] == "X"
        }
        assert any(k.startswith("fault:") for k in fault_kinds)

    def test_bad_ranks_spec(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "trace", "ring-allreduce",
                    "--nodes", "1", "--gpus", "4",
                    "--buffer-mb", "16", "--mbs", "2",
                    "--ranks", "zero,one",
                ]
            )
        assert info.value.code == 2
        assert_one_error_line(capsys, "--ranks wants a comma-separated list")


class TestProfileCommand:
    def test_span_tree_attribution_and_exports(self, tmp_path, capsys):
        import json

        from repro.analysis import validate_chrome_trace
        from repro.analysis.timeline import SPAN_PID

        out = tmp_path / "profile.json"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "profile",
                    "ring-allreduce",
                    "--nodes", "1", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                    "--output", str(out),
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        # The span tree covers the pipeline end to end.
        for phase in ("plan", "parsing", "analysis", "scheduling",
                      "kernelgen", "simulate"):
            assert phase in printed
        assert "critical path" in printed
        assert "metrics:" in printed
        trace = json.loads(out.read_text())
        validate_chrome_trace(trace)
        phs = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "C", "M"} <= phs
        span_names = {
            e["name"] for e in trace["traceEvents"]
            if e.get("pid") == SPAN_PID and e["ph"] == "X"
        }
        assert "simulate" in span_names
        exported = json.loads(metrics.read_text())
        assert "sim_completion_time_us" in exported

    def test_attribution_sums_within_one_percent(self, capsys):
        assert (
            main(
                [
                    "profile",
                    "hm-allreduce",
                    "--nodes", "2", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        import re

        match = re.search(
            r"critical path — .*: ([\d.]+) us", printed
        )
        assert match, printed
        completion = float(match.group(1))
        bucket_times = [
            float(m.group(1))
            for m in re.finditer(
                r"^\s+(?:send|recv|overhead|wait:data|wait:sync|idle)"
                r"\s+([\d.]+)\s+[\d.]+%$",
                printed,
                re.MULTILINE,
            )
        ]
        assert bucket_times, printed
        assert sum(bucket_times) == pytest.approx(completion, rel=0.01)

    def test_prometheus_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "profile",
                    "ring-allreduce",
                    "--backend", "nccl",
                    "--nodes", "1", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        text = metrics.read_text()
        assert "# TYPE sim_completion_time_us gauge" in text

    def test_profile_with_faults(self, capsys):
        assert (
            main(
                [
                    "profile",
                    "ring-allreduce",
                    "--nodes", "1", "--gpus", "4",
                    "--buffer-mb", "16",
                    "--mbs", "2",
                    "--inject", "link-flap",
                    "--seed", "0",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "faults:" in printed
        assert "critical path" in printed

    def test_per_link_table_top_links_by_busy_time(self, capsys):
        argv = ["profile", "hm-allreduce", "--nodes", "2", "--gpus", "4",
                "--buffer-mb", "16", "--mbs", "2"]
        assert main(argv + ["--metrics-limit", "3"]) == 0
        printed = capsys.readouterr().out
        table = printed.split("links (", 1)[1].split("\n\n", 1)[0]
        header, rule, *rows = table.splitlines()[1:]
        assert header.split() == ["link", "busy", "us", "MB", "util"]
        assert len(rows) == 3
        busy = [float(row.split()[1]) for row in rows]
        assert busy == sorted(busy, reverse=True)
        assert all(row.split()[3].endswith("%") for row in rows)
        # --metrics-limit 0 lists every link, so the top 3 are a prefix.
        assert main(argv + ["--metrics-limit", "0"]) == 0
        full = capsys.readouterr().out.split("links (", 1)[1]
        shown, total = full.split(",", 1)[0].split(" of ")
        assert shown == total and int(total) > 3
        top = full.split("\n\n", 1)[0].splitlines()[3:6]
        assert [row.split() for row in top] == [row.split() for row in rows]


class TestFaultInjection:
    RING8 = RING8

    def test_inject_flap_completes_with_recovery_events(self, capsys):
        assert (
            main(
                [
                    "run", self.RING8,
                    "--inject", "link-flap",
                    "--seed", "0",
                    "--buffer-mb", "16",
                    "--mbs", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "recover:resume" in out
        assert "goodput vs clean run" in out

    def test_inject_kill_falls_back_to_ring(self, capsys):
        assert (
            main(
                [
                    "run", self.RING8,
                    "--inject", "link-kill",
                    "--seed", "0",
                    "--buffer-mb", "16",
                    "--mbs", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 fallback(s)" in out
        assert "ring-fallback" in out

    def test_inject_kill_without_recovery_exits_2(self, capsys):
        assert (
            main(
                [
                    "run", self.RING8,
                    "--inject", "link-kill",
                    "--seed", "0",
                    "--recovery", "none",
                    "--buffer-mb", "16",
                    "--mbs", "4",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "simulation deadlocked" in err
        assert "never finished" in err
        assert "down edges" in err

    def test_default_cluster_auto_fits_dsl_world_size(self, capsys):
        # ring_allreduce_8 declares 8 ranks; the default 2x8 cluster is
        # refitted rather than failing validation.
        assert (
            main(["run", self.RING8, "--buffer-mb", "16", "--mbs", "4"]) == 0
        )
        assert "GB/s" in capsys.readouterr().out

    def test_explicit_cluster_shape_still_validates(self):
        with pytest.raises(Exception, match="nRanks"):
            main(
                [
                    "run", self.RING8,
                    "--nodes", "2", "--gpus", "6",
                    "--buffer-mb", "16",
                ]
            )

    def test_experiment_seed_is_plumbed(self, capsys):
        import repro.experiments as experiments

        seen = {}

        def fake_run(seed=0):
            seen["seed"] = seed
            from repro.experiments.base import ExperimentResult
            return ExperimentResult(name="resilience", title="t", headers=[])

        original = experiments.REGISTRY["resilience"]
        experiments.REGISTRY["resilience"] = fake_run
        try:
            assert main(["experiment", "resilience", "--seed", "42"]) == 0
        finally:
            experiments.REGISTRY["resilience"] = original
        assert seen["seed"] == 42


def _doc_sections(text, prefix):
    """``{heading: body}`` of the ``## <prefix>...`` sections of a doc."""
    sections = {}
    for chunk in text.split("\n## ")[1:]:
        heading, _, body = chunk.partition("\n")
        if heading.startswith(prefix):
            sections[heading] = body
    return sections


class TestReference:
    def test_cli_md_lists_every_option_and_default(self):
        sections = _doc_sections((DOCS / "cli.md").read_text(), "`resccl ")
        parser = build_parser()
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for name, subparser in commands.choices.items():
            body = sections[f"`resccl {name}`"]
            rows = {
                line.split("|")[1].strip().strip("`"): line
                for line in body.splitlines() if line.startswith("| `")
            }
            for action in subparser._actions:
                if not action.option_strings or action.dest == "help":
                    continue
                (option,) = action.option_strings
                assert option in rows, f"{name}: {option} undocumented"
                default = action.default
                if default is None or default is False:
                    continue
                shown = f"{default:g}" if isinstance(default, float) else default
                assert f"| `{shown}` |" in rows[option], (
                    f"{name} {option}: default {shown} undocumented"
                )
