"""Unit tests of the layer ledger's rules (``python -m pytest bench/tests -q``).

They cover the statistics the benchmark reports with, the speed
scaling, the ``--compare`` verdicts, the declared metric names, and the
refusal to run without the program's sources; none of them runs a
workload.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ledger  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# ----------------------------------------------------------------------
# Percentiles and geomeans
# ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 201))
    assert stats.percentile(values, 0.95) == 190
    assert stats.percentile(values[:-1], 0.95) is None
    assert stats.percentile(list(range(20)), 0.5) == 9
    assert stats.percentile(list(range(19)), 0.5) is None
    with pytest.raises(ValueError):
        stats.percentile(values, 1.0)


def test_tail_is_the_highest_supported_percentile():
    values = list(range(1, 51))
    q, value = stats.tail(values)
    assert (q, value) == (0.8, 40)
    assert len([v for v in values if v > value]) == stats.MIN_TAIL_SAMPLES
    assert stats.tail(list(range(10))) is None


def test_geomean_of_medians():
    samples = {"a": [1.0, 100.0, 4.0], "b": [9.0, 9.0], "skipped": []}
    assert stats.geomean_of_medians(samples) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


# ----------------------------------------------------------------------
# Speed scaling
# ----------------------------------------------------------------------


def test_scaler_uses_the_rounds_inside_the_interval():
    # CPU 0 is fast (1 ms rounds) until t=10, then slow (2 ms); CPU 1
    # stays at 1 ms.  Rounds start every second.
    records = {
        0: [(t, t + 0.001, 0.001 if t < 10 else 0.002) for t in range(20)],
        1: [(t, t + 0.001, 0.001) for t in range(20)],
    }
    scaler = speed.Scaler(records)
    ref = speed.REFERENCE_S
    assert scaler.rounds([0], 2.5, 6.5) == [0.001] * 4
    assert scaler.rounds([0], 8.5, 11.5) == [0.001, 0.002, 0.002]
    # The factor is the mean speed, not the inverse of the mean round.
    assert scaler.factor([0], 8.5, 11.5) == pytest.approx((ref / 0.001 + 2 * ref / 0.002) / 3)
    # No round began inside: the one nearest the middle, per CPU.
    assert scaler.rounds([0, 1], 12.2, 12.6) == [0.002, 0.001]
    assert scaler.rounds([0], 9.4, 9.45) == [0.001]
    # A slow CPU's seconds count for less reference-machine time.
    assert scaler.scale([0], 14.5, 16.5) == pytest.approx(2.0 * speed.REFERENCE_S / 0.002)
    assert scaler.scale([1], 14.5, 16.5) == pytest.approx(2.0 * speed.REFERENCE_S / 0.001)


def test_speed_trace_records_and_stops_its_shadows(tmp_path):
    with speed.SpeedTrace(tmp_path) as trace:
        cpu = trace.pin_fastest()
        assert cpu in trace.cpus
        began = time.perf_counter()
        time.sleep(0.2)
        scaler = trace.scaler()
        assert all(rows for rows in scaler.records.values())
        assert scaler.scale(trace.cpus, began, began + 0.2) > 0
        procs = list(trace.procs)
    assert all(proc.poll() is not None for proc in procs)
    assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------


def _span(name, start, duration, children=(), **attrs):
    return {"name": name, "start_us": start, "duration_us": duration,
            "attrs": attrs, "counters": {}, "children": list(children)}


def test_self_time_clips_and_merges_children():
    root = _span("root", 0, 100, [
        _span("a", 10, 20),
        _span("b", 20, 30),   # overlaps a: 10..50 covered once
        _span("c", 90, 30),   # clipped to the parent's end: 90..100
    ])
    assert stats.self_time_us(root) == 50
    assert stats.self_time_us(_span("leaf", 5, 7)) == 7


def test_flatten_inherits_the_nearest_attribute():
    tree = _span("bench.plan", 0, 10, [
        _span("plan", 1, 8, [_span("compile", 2, 3)], backend="ResCCL"),
        _span("bench.simulate", 9, 1, scale="1x8"),
    ], scale="2x8")
    rows = {span["name"]: (attrs, self_us) for span, attrs, self_us in stats.flatten([tree])}
    assert rows["compile"][0] == {"scale": "2x8", "backend": "ResCCL"}
    assert rows["bench.simulate"][0]["scale"] == "1x8"
    assert rows["plan"][1] == 5
    assert rows["bench.plan"][1] == 1


def test_per_layer_totals_from_a_synthetic_tree():
    cold = _span("plan", 0, 100, [
        _span("compile", 0, 60, [
            _span("parsing", 0, 10), _span("analysis", 10, 20),
            _span("scheduling", 30, 10), _span("lowering", 40, 20, [_span("tballoc", 40, 20)]),
        ]),
        _span("tballoc", 60, 15), _span("kernelgen", 75, 5),
    ], backend="ResCCL")
    cold["children"][0]["children"][1]["counters"] = {"dag_nodes": 4}
    warm = _span("plan", 0, 2, backend="ResCCL")
    heap, bucket = _span("bench.simulate", 0, 5), _span("bench.simulate", 5, 5)
    bucket["counters"] = {"queue_refills": 3}
    roots = [_span("bench.plan", 0, 100, [cold], scale="2x8"),
             _span("bench.plan_warm", 0, 2, [warm], scale="2x8", timed="0"),
             heap, bucket]
    metrics = ledger.per_layer(roots, per=2)
    assert metrics["runtime.bucket_queue_share"] == 0.5
    assert metrics["ir.analysis_ms"] == pytest.approx(0.010)  # 20 us over 2 passes
    assert metrics["core.tballoc_ms"] == pytest.approx(0.0175)
    assert metrics["core.plan_self_ms"] == pytest.approx(0.010)  # warm plan excluded
    assert metrics["core.tballoc_calls_per_plan"] == 2
    assert metrics["ir.analysis_us_per_task.2x8"] == pytest.approx(5.0)
    assert metrics["core.plan_warm_ms.2x8"] == pytest.approx(0.002)
    with pytest.raises(ValueError):
        ledger.per_layer(roots, per=1, extras={"no.such_metric": 1.0})


# ----------------------------------------------------------------------
# --compare verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("before, after, better, expected", [
    ([100, 101, 99], [102, 103, 101], "lower", "unchanged"),
    ([100, 101, 99], [120, 121, 119], "lower", "regressed"),
    ([100, 101, 99], [80, 81, 79], "lower", "improved"),
    ([100, 130, 90], [100, 101, 99], "lower", "unresolved"),
    ([100, 130, 110], [50, 51, 52], "lower", "improved"),
    ([100, 101, 99], [70, 100, 130], "lower", "unresolved"),
    ([100, 130, 110], [150, 151, 152], "lower", "regressed"),
    # A noisy side whose every run loses is settled, but a small change
    # is not a verdict either way.
    ([90, 100, 101], [102, 103, 104], "lower", "unchanged"),
    ([100, 130, 99.5], [98, 98.5, 99], "lower", "unchanged"),
    ([10, 10, 10], [8, 8, 8], "higher", "regressed"),
    ([10, 10, 10], [12, 12, 12], "higher", "improved"),
    ([10, 13, 11], [5, 6, 7], "higher", "regressed"),
])
def test_verdicts(before, after, better, expected):
    assert stats.verdict(before, after, 0.1, better)[0] == expected


def test_spread_uses_quartiles_from_four_runs():
    assert stats.spread([10.0]) == 0.0
    assert stats.spread([9.0, 11.0]) == pytest.approx(0.2)
    values = [10.0, 10.0, 10.0, 10.0, 10.0, 20.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)


def _run_file(path, scale, sim, compile_ms=10.0, simulate_ms=50.0):
    runs = [
        {m["name"]: 1.0 * scale for m in SPEC["end_to_end"]}
        for _ in range(3)
    ]
    for i, run_metrics in enumerate(runs):
        run_metrics["wall_s"] = (10.0 + i * 0.1) * scale
    warm = {"compile": {"p50_ms": compile_ms}, "simulate": {"p50_ms": simulate_ms}}
    path.write_text(json.dumps({"workloads": {
        w["name"]: {
            "runs": runs,
            "details": [{"warm": warm} if w["name"] == "service" else {}] * len(runs),
            "sim": sim,
        }
        for w in SPEC["workloads"]
    }}))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    a = _run_file(tmp_path / "a.json", 1.0, {"x": 1})
    same = _run_file(tmp_path / "same.json", 1.0, {"x": 1})
    slower = _run_file(tmp_path / "slower.json", 1.5, {"x": 1})
    changed = _run_file(tmp_path / "changed.json", 1.0, {"x": 2})
    assert run.compare(a, same) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out
    assert "service   compile_p50_ms" in out and "service   simulate_p50_ms" in out
    assert run.compare(a, slower) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare(a, changed) == 1
    assert "changed" in capsys.readouterr().out


def test_compare_sees_a_trade_between_service_operations(tmp_path, capsys):
    # Compile 2x faster and simulate 1.5x slower: the geomean of the two
    # reads 13% better, but the simulate p50 regressed.
    a = _run_file(tmp_path / "a.json", 1.0, {"x": 1})
    traded = _run_file(tmp_path / "traded.json", 1.0, {"x": 1},
                       compile_ms=5.0, simulate_ms=75.0)
    assert run.compare(a, traded) == 1
    rows = {tuple(line.split()[:3]) for line in capsys.readouterr().out.splitlines()}
    assert ("service", "compile_p50_ms", "improved") in rows
    assert ("service", "simulate_p50_ms", "regressed") in rows


# ----------------------------------------------------------------------
# Declared metric names
# ----------------------------------------------------------------------


def test_declared_names_match_what_the_run_emits():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared_e2e == ledger.END_TO_END
    assert declared_layer == ledger.per_layer_units()
    # per_layer() fills every declared name, even for an empty section.
    assert set(ledger.per_layer([], per=1)) == set(declared_layer)
    names = list(declared_e2e) + list(declared_layer)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(ledger.WORKLOADS)


@pytest.mark.parametrize("path", sorted((BENCH / "baseline").glob("seed*.json")),
                         ids=lambda p: p.name)
def test_committed_runs_emit_every_declared_metric(path):
    data = json.loads(path.read_text())["workloads"]
    assert set(data) == set(ledger.WORKLOADS)
    for name, entry in data.items():
        assert entry["correct"]
        for metrics in entry["runs"]:
            assert set(metrics) == set(ledger.END_TO_END)
        assert set(entry["trace"]) == set(ledger.per_layer_units())
        ops = run.op_p50s(entry)
        if name == "service":
            assert set(ops) == {f"{op}_p50_ms" for op in ledger.OPS}
            assert all(len(values) == len(entry["runs"]) for values in ops.values())
        else:
            assert not ops


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dsl", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
