#!/usr/bin/env python3
"""The layer ledger: one benchmark over four workloads.

Run from the repository root (no install or ``PYTHONPATH`` needed)::

    python3 bench/run.py --seed 0
    python3 bench/run.py --workload cells --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --compare bench/baseline/seed0.json bench/out/run-1.json

The first form runs every workload in fresh subprocesses — three
untraced runs each, then one traced run — prints every metric as
``workload metric value unit`` and writes ``bench/out/run-<seed>.json``.

The second runs one workload in this process.  It prints the same
metric lines and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, which splits the seconds between an
untraced and a traced section, the per-layer metrics.  Details go to
``bench/out/<workload>-seed<N>-trace<T>.json`` and, when traced, the
spans to ``bench/out/<workload>.trace.json``.  It exits 1 when a
correctness gate or an operation failed.

The third prints a verdict per workload and end-to-end metric against
the bounds in ``BENCHMARK.json`` — for the service also per operation
(``compile_p50_ms``, ``simulate_p50_ms``) — plus whether the simulated
outputs are identical, and exits 1 on a regression or changed simulated
outputs.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Untraced runs per workload when running them all; ``--compare``
#: judges their medians and spread.
UNTRACED_RUNS = 3

sys.path.insert(0, str(BENCH))

import ledger  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402


def isolate() -> None:
    """Run the program of this checkout and nothing else.

    ``src/`` goes first on the import path, also for every process the
    workloads start; the plan cache's disk tier and the tuning table
    are off because their environment variables are unset; temporary
    files go under ``bench/out/tmp``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for variable in ("RESCCL_CACHE_DIR", "RESCCL_TUNING_TABLE"):
        os.environ.pop(variable, None)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_probe(name: str) -> int:
    """Set ``name`` up once in this fresh interpreter and print the
    ``perf_counter`` reading at which it was ready."""
    isolate()
    import workloads

    workload = workloads.WORKLOADS[name](None)
    try:
        workload.setup()
        print(json.dumps({"ready": time.perf_counter()}))
    finally:
        workload.close()
    return 0


def measure_setup(name: str, trace, pinned: bool) -> list:
    """Reference-machine seconds from launching a fresh interpreter to a
    set-up ``name``, :data:`SETUP_PROBES` times.  A probe of a workload
    whose operations run on one CPU runs on the faster one."""
    values = []
    for _ in range(SETUP_PROBES):
        cpus = [trace.pin_fastest()] if pinned else trace.cpus
        try:
            began = time.perf_counter()
            probe = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--setup-probe", name],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            trace.unpin()
        ready = json.loads(probe.stdout.splitlines()[-1])["ready"]
        values.append((cpus, began, ready))
    scaler = trace.scaler()
    return [scaler.scale(cpus, began, ready) for cpus, began, ready in values]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    isolate()
    import workloads

    with speed.SpeedTrace(OUT / "tmp") as shadows:
        kind = workloads.WORKLOADS[name]
        probes = [] if trace else measure_setup(name, shadows, kind.pinned)
        workload = kind(shadows)
        try:
            workload.setup()
            workload.warm_up()
            # A traced run splits its seconds between an untraced and a
            # traced section; their difference is the tracing overhead.
            modes = (False, True) if trace else (False,)
            base, *rest = workload.sections(seconds / len(modes), random.Random(seed), modes)
            traced = rest[0] if rest else None
            workload.final_gates()
        finally:
            workload.close()

    # Host times are reported scaled to the reference machine (``speed``).
    if traced is None:
        units = ledger.END_TO_END
        values = {
            "setup_s": statistics.median(probes),
            "peak_rss_mb": peak_rss_mb(),
            "wall_s": base.wall_s,
            "item_geomean_ms": base.geomean_ms,
            "throughput_per_s": base.throughput_per_s,
        }
    else:
        units = ledger.per_layer_units()
        extras = workload.layer_extras()
        extras["obs.trace_overhead"] = traced.geomean_ms / base.geomean_ms - 1.0
        values = ledger.per_layer(traced.spans, traced.per, traced.requests, extras)
        for metric, unit in units.items():
            if unit in ledger.TIME_UNITS:
                values[metric] *= traced.factor
        (OUT / f"{name}.trace.json").write_text(json.dumps(traced.spans))
    for metric, value in values.items():
        if not math.isfinite(value):
            workload.failures.append(f"{name}: metric {metric} is {value!r}")
            values[metric] = 0.0

    attempted = base.ops + (traced.ops if traced else 0) + workload.checks
    result = {
        "correct": not workload.failures,
        "attempted": attempted,
        "failed": len(workload.failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": base.per,
        "setup_probes_s": probes,
        "speed_factor": base.factor,
        "latency": {kind: _summary(v) for kind, v in base.samples.items()},
        "latency_raw": {kind: _summary(v) for kind, v in base.raw.items()},
        "details": base.details,
        "sim": workload.sim,
        "failures": workload.failures,
        **{k: result[k] for k in ("correct", "attempted", "failed")},
        "metrics": values,
    }, indent=1, sort_keys=True))
    for failure in workload.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for metric, value in values.items():
        print(f"{name} {metric} {value!r} {units[metric]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _summary(values: list) -> dict:
    if not values:
        return {"n": 0}
    return {"n": len(values), "median_ms": statistics.median(values) * 1e3}


def launch(name: str, seed: int, seconds: float, trace: int):
    """One single-workload run in a fresh interpreter: ``(metrics,
    details, simulated outputs, correct)``, or ``None`` when it printed
    no result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    detail = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    return metrics, detail["details"], detail["sim"], result["correct"] and proc.returncode == 0


def run_all(seed: int, seconds: float) -> int:
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in ledger.WORKLOADS:
        # ``details`` holds each untraced run's details, in the order of
        # ``runs``: for the service, the p50 and tail of each operation.
        entry = {"runs": [], "details": [], "trace": {}, "sim": None, "correct": True}
        for trace in [0] * UNTRACED_RUNS + [1]:
            outcome = launch(name, seed, seconds, trace)
            if outcome is None:
                print(f"FAILED {name} trace={trace}: no result", file=sys.stderr)
                entry["correct"] = False
                continue
            metrics, details, sim, correct = outcome
            if trace:
                entry["trace"] = metrics
            else:
                entry["runs"].append(metrics)
                entry["details"].append(details)
            if entry["sim"] is None:
                entry["sim"] = sim
            elif sim != entry["sim"]:
                print(f"FAILED {name}: simulated outputs differ between runs", file=sys.stderr)
                correct = False
            entry["correct"] = entry["correct"] and correct
        summary["workloads"][name] = entry
        status |= not entry["correct"]
        for metric, unit in ledger.END_TO_END.items():
            values = [run[metric] for run in entry["runs"]]
            if values:
                print(f"{name} {metric} {statistics.median(values)!r} {unit}")
        for metric, values in op_p50s(entry).items():
            print(f"{name} {metric} {statistics.median(values)!r} ms")
        for metric, unit in ledger.per_layer_units().items():
            if metric in entry["trace"]:
                print(f"{name} {metric} {entry['trace'][metric]!r} {unit}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"run-{seed}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(f"wrote {path.relative_to(ROOT)}")
    return int(status)


def op_p50s(entry: dict) -> dict:
    """``{"<op>_p50_ms": [one value per untraced run]}`` of a workload
    entry of a run file: the service's warm median per operation, empty
    for a batch workload."""
    out: dict = {}
    for details in entry["details"]:
        for op, latency in details.get("warm", {}).items():
            out.setdefault(f"{op}_p50_ms", []).append(latency["p50_ms"])
    return out


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads(SPEC.read_text())
    before = json.loads(Path(path_a).read_text())["workloads"]
    after = json.loads(Path(path_b).read_text())["workloads"]
    # The service's item_geomean_ms mixes compile and simulate requests,
    # so a gain in one could hide a loss in the other: each operation's
    # p50 is also judged on its own, with the same bound.
    geomean = next(m for m in spec["end_to_end"] if m["name"] == "item_geomean_ms")
    status = 0
    print(f"{'workload':<9} {'metric':<17} {'verdict':<10} {'worse by':>8}  A -> B (medians)")
    for workload in spec["workloads"]:
        name = workload["name"]
        rows = [
            (metric,
             [run[metric["name"]] for run in before[name]["runs"]],
             [run[metric["name"]] for run in after[name]["runs"]])
            for metric in spec["end_to_end"]
        ]
        ops_a, ops_b = op_p50s(before[name]), op_p50s(after[name])
        if ops_a.keys() != ops_b.keys():
            raise SystemExit(f"error: {name}: the run files report different operations")
        rows += [({**geomean, "name": key}, ops_a[key], ops_b[key]) for key in ops_a]
        for metric, a, b in rows:
            key = metric["name"]
            verdict, change = stats.verdict(a, b, metric["bound"], metric["better"])
            status |= verdict == "regressed"
            print(f"{name:<9} {key:<17} {verdict:<10} {change:>+8.1%}  "
                  f"{statistics.median(a):.6g} -> {statistics.median(b):.6g} {metric['unit']}")
        same = before[name]["sim"] == after[name]["sim"]
        status |= not same
        print(f"{name:<9} {'sim_outputs':<17} {'identical' if same else 'changed'}")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The layer ledger benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=ledger.WORKLOADS,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders items and draws requests; outputs never depend on it")
    parser.add_argument("--seconds", type=float,
                        help="seconds a run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spend half the seconds traced and report per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two run-<seed>.json files")
    parser.add_argument("--setup-probe", choices=ledger.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    return run_all(args.seed, seconds)


if __name__ == "__main__":
    sys.exit(main())
