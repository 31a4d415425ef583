"""Command-line interface for the ResCCL reproduction.

Subcommands::

    resccl algos                         # list built-in algorithms
    resccl verify ALGO [options]         # parse/validate/verify a program
    resccl compile ALGO [--rank R]       # show phases + generated kernel
    resccl run ALGO [--backend B]        # simulate one collective call
    resccl compare ALGO [options]        # all three backends side by side
    resccl trace ALGO [options]          # ASCII Gantt / Chrome trace
    resccl profile ALGO [options]        # spans + critical-path breakdown
    resccl tune [options]                # autotune plans into a table

``ALGO`` is either a built-in algorithm name (see ``resccl algos``), a
synthesizer spec (``taccl:allreduce`` / ``teccl:allgather``), or a path
to a textual ResCCLang file.  The cluster defaults to the paper's
2-server x 8-GPU A100 testbed; override with ``--nodes/--gpus/--profile``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

import inspect

from .algorithms import available_algorithms, build_algorithm
from .analysis import format_table
from .baselines import MSCCLBackend, NCCLBackend
from .core import ResCCLBackend, ResCCLCompiler
from .core import plancache
from .experiments import available_experiments, run_experiment
from .faults import INJECT_SCENARIOS, POLICY_NAMES, run_with_faults
from .ir.task import parse_collective
from .lang import AlgoProgram, parse_program, validate_program
from .analysis import (
    ascii_gantt,
    attribute,
    to_chrome_trace,
    validate_chrome_trace,
    verify_delivery,
    write_chrome_trace,
)
from .obs import observe
from .runtime import MB, SimulationDeadlock, simulate, verify_collective
from .synth import (
    TACCLSynthesizer,
    TECCLSynthesizer,
    read_msccl_xml,
    write_msccl_xml,
)
from .topology import Cluster, profile_by_name


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=2, help="server count")
    parser.add_argument(
        "--gpus", type=int, default=8, help="GPUs per server"
    )
    parser.add_argument(
        "--profile", default="A100", help="GPU profile (A100 or V100)"
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject", default=None, metavar="SPEC",
        help="fault scenario to inject "
        f"({'/'.join(INJECT_SCENARIOS)}[:key=value,...])",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-schedule RNG seed")
    parser.add_argument(
        "--recovery", default="fallback",
        choices=list(POLICY_NAMES),
        help="recovery policy when faults are injected",
    )
    parser.add_argument(
        "--failover-factor", type=float, default=0.25,
        help="capacity retained by dead edges in a fallback/resume "
        "cluster; 0 means no failover path, so a partitioned topology "
        "makes recovery impossible (exit code 2)",
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", nargs="?", const="auto", default=None, metavar="DIR",
        help="persist compiled plans on disk; without a DIR argument uses "
        "$XDG_CACHE_HOME/resccl (~/.cache/resccl)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the compiled-plan cache entirely",
    )


def _configure_cache(args: argparse.Namespace) -> None:
    """Apply ``--cache-dir``/``--no-cache`` to the process-wide plan cache."""
    if getattr(args, "no_cache", False):
        plancache.configure(enabled=False)
    elif getattr(args, "cache_dir", None) is not None:
        plancache.configure(cache_dir=args.cache_dir)


def _add_tuning_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tuning-table", default=None, metavar="PATH",
        help="serve tuned plans from this 'resccl tune' table; cells it "
        "covers replace the requested plan source and knobs with the "
        "tuned winners (docs/performance.md#autotuning)",
    )


def _configure_tuning(args: argparse.Namespace) -> None:
    """Install ``--tuning-table`` as the process-wide tuning table."""
    path = getattr(args, "tuning_table", None)
    if path is None:
        return
    if not Path(path).is_file():
        raise SystemExit(f"error: tuning table not found: {path}")
    from .tuning.table import configure_tuning

    configure_tuning(path)


def _cluster_from(args: argparse.Namespace) -> Cluster:
    return Cluster(
        nodes=args.nodes,
        gpus_per_node=args.gpus,
        profile=profile_by_name(args.profile),
    )


_DEFAULT_SHAPE = (2, 8)  # the paper's testbed; see _add_cluster_args


def _fit_cluster(
    args: argparse.Namespace, cluster: Cluster, program: AlgoProgram
) -> Cluster:
    """Refit the *default* cluster to a program of a different world size.

    DSL files pin their rank count; when the user did not choose a
    cluster shape explicitly, size the testbed to the program instead of
    failing validation with a world-size mismatch.
    """
    if program.nranks == cluster.world_size:
        return cluster
    if (args.nodes, args.gpus) != _DEFAULT_SHAPE:
        return cluster  # explicit shape: let validation report the mismatch
    gpus_per_node = min(program.header.gpus_per_node, program.nranks)
    if gpus_per_node < 1 or program.nranks % gpus_per_node != 0:
        gpus_per_node = program.nranks
    return Cluster(
        nodes=program.nranks // gpus_per_node,
        gpus_per_node=gpus_per_node,
        profile=profile_by_name(args.profile),
    )


def _resolve_algorithm(spec: str, cluster: Cluster) -> AlgoProgram:
    """Name, synthesizer spec, or DSL file path -> elaborated program."""
    if spec in available_algorithms():
        return build_algorithm(spec, cluster)
    if ":" in spec:
        synth_name, _, coll_name = spec.partition(":")
        synthesizers = {"taccl": TACCLSynthesizer, "teccl": TECCLSynthesizer}
        if synth_name.lower() in synthesizers:
            collective = parse_collective(coll_name)
            return synthesizers[synth_name.lower()]().synthesize(
                cluster, collective
            )
    path = Path(spec)
    if path.exists():
        if path.suffix == ".xml":
            return read_msccl_xml(str(path))
        return parse_program(path.read_text())
    raise SystemExit(
        f"error: {spec!r} is not a built-in algorithm, a synthesizer spec "
        f"(taccl:/teccl:<collective>), or a readable file.\n"
        f"Built-ins: {', '.join(available_algorithms())}"
    )


def _make_backend(name: str, max_microbatches: int):
    name = name.lower()
    if name == "resccl":
        return ResCCLBackend(max_microbatches=max_microbatches)
    if name == "msccl":
        return MSCCLBackend(max_microbatches=max_microbatches)
    if name == "nccl":
        return NCCLBackend(max_microbatches=max_microbatches)
    raise SystemExit(f"error: unknown backend {name!r} (resccl/msccl/nccl)")


def _simulate(backend, cluster, program, buffer_bytes):
    if isinstance(backend, NCCLBackend):
        plan = backend.plan(cluster, program.collective, buffer_bytes)
    else:
        plan = backend.plan(cluster, program, buffer_bytes)
    return simulate(plan)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_algos(args: argparse.Namespace) -> int:
    del args
    for name in available_algorithms():
        print(name)
    print("taccl:<collective>  (synthesized)")
    print("teccl:<collective>  (synthesized)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    print(f"program: {program!r}")
    report = validate_program(program, cluster)
    if not report.ok:
        print("static validation FAILED:")
        for issue in report.issues[:20]:
            print(f"  - {issue}")
        return 1
    print("static validation: ok")
    result = verify_collective(program)
    if not result.ok:
        print("collective semantics FAILED:")
        for error in result.errors[:20]:
            print(f"  - {error}")
        return 1
    print(f"collective semantics: ok ({program.collective.value} "
          "postcondition established)")
    plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 4 * MB)
    delivery = verify_delivery(plan)
    if not delivery.ok:
        print("chunk-level delivery FAILED:")
        for error in delivery.errors[:20]:
            print(f"  - {error}")
        return 1
    print(f"chunk-level delivery: ok ({delivery.summary()})")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    compiled = ResCCLCompiler(
        scheduler=args.scheduler,
        indexed_schedule=not args.reference_schedule,
    ).compile(program, cluster)
    print(f"compiled {program.name!r} for {cluster}")
    for phase, micros in compiled.phase_times_us.items():
        print(f"  {phase:<11} {micros / 1000.0:9.2f} ms")
    print(
        f"pipeline: {compiled.pipeline.task_count} tasks in "
        f"{compiled.pipeline.depth} sub-pipelines; "
        f"{compiled.tb_count()} thread blocks"
    )
    if args.kernel:
        print()
        print(compiled.kernel_source(args.rank, n_microbatches=args.mbs))
    return 0


def _add_fidelity_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sim-fidelity", default="exact", choices=["exact", "fast"],
        help="simulation fidelity preset (see docs/performance.md): "
        "'exact' is bit-reproducible across every solver/queue "
        "configuration; 'fast' trades a bounded completion-time error "
        "(rate hysteresis + micro-batch collapse) for wall-clock speed",
    )


def _apply_fidelity(plan, args: argparse.Namespace):
    """The plan with ``--sim-fidelity`` applied to its sim config."""
    preset = getattr(args, "sim_fidelity", "exact")
    if preset == "exact":
        return plan
    return dataclasses.replace(plan, config=plan.config.with_fidelity(preset))


def _print_deadlock(exc: SimulationDeadlock) -> None:
    print("simulation deadlocked:", file=sys.stderr)
    print(str(exc), file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    _configure_cache(args)
    _configure_tuning(args)
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    cluster = _fit_cluster(args, cluster, program)
    backend = _make_backend(args.backend, args.mbs)
    if isinstance(backend, NCCLBackend):
        plan = backend.plan(cluster, program.collective, args.buffer_mb * MB)
    else:
        plan = backend.plan(cluster, program, args.buffer_mb * MB)
    plan = _apply_fidelity(plan, args)
    try:
        if args.inject:
            try:
                outcome = run_with_faults(
                    plan,
                    args.inject,
                    seed=args.seed,
                    intensity=args.fault_intensity,
                    recovery=args.recovery,
                    record_trace=True,
                    fallback_capacity_factor=args.failover_factor,
                )
            except ValueError as exc:
                raise SystemExit(f"error: {exc}") from None
            report = outcome.report
            print(report.summary())
            stats = report.fault_stats
            if stats is not None:
                print(stats.summary())
            print(
                f"goodput vs clean run: {outcome.goodput_ratio:.1%} "
                f"(clean {outcome.baseline.completion_time_us / 1e3:.2f} ms, "
                f"faulted {report.completion_time_us / 1e3:.2f} ms)"
            )
            recovery_events = [
                event for event in report.trace
                if event.kind.startswith(("fault:", "detect:", "recover:"))
            ]
            for event in recovery_events[:20]:
                print(
                    f"  {event.kind:<20} "
                    f"[{event.start_us / 1e3:.3f}, {event.end_us / 1e3:.3f}] ms"
                )
            if len(recovery_events) > 20:
                print(f"  ... and {len(recovery_events) - 20} more event(s)")
        else:
            report = simulate(plan)
            print(report.summary())
    except SimulationDeadlock as exc:
        _print_deadlock(exc)
        return 2
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    out = Path(args.output)
    if out.suffix == ".xml":
        write_msccl_xml(program, str(out))
        print(f"wrote MSCCL-XML: {out} ({len(program)} transfers)")
    else:
        out.write_text(program.to_source())
        print(f"wrote ResCCLang: {out} ({len(program)} transfers)")
    return 0


def _parse_ranks(args: argparse.Namespace) -> Optional[List[int]]:
    """The rank filter of ``trace``/``profile``: ``--ranks`` or ``--rank``.

    Returns ``None`` for "all ranks".  Both renderers (Gantt and Chrome
    export) receive the same list, so they always agree on the filter.
    """
    ranks_arg = getattr(args, "ranks", None)
    if ranks_arg:
        try:
            parsed = sorted(
                {int(tok) for tok in ranks_arg.split(",") if tok.strip()}
            )
        except ValueError:
            raise SystemExit(
                "error: --ranks wants a comma-separated list of rank "
                f"numbers, got {ranks_arg!r}"
            ) from None
        if any(r < 0 for r in parsed):
            return None  # an explicit -1 means "all"
        return parsed or None
    rank = getattr(args, "rank", None)
    if rank is None or rank < 0:
        return None
    return [rank]


def _traced_report(plan, args: argparse.Namespace):
    """Simulate with tracing on, under fault injection when requested."""
    if getattr(args, "inject", None):
        try:
            outcome = run_with_faults(
                plan,
                args.inject,
                seed=args.seed,
                recovery=args.recovery,
                record_trace=True,
                fallback_capacity_factor=getattr(
                    args, "failover_factor", 0.25
                ),
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        return outcome.report
    return simulate(plan, record_trace=True)


def cmd_trace(args: argparse.Namespace) -> int:
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    backend = _make_backend(args.backend, args.mbs)
    if isinstance(backend, NCCLBackend):
        plan = backend.plan(cluster, program.collective, args.buffer_mb * MB)
    else:
        plan = backend.plan(cluster, program, args.buffer_mb * MB)
    plan = _apply_fidelity(plan, args)
    try:
        report = _traced_report(plan, args)
    except SimulationDeadlock as exc:
        _print_deadlock(exc)
        return 2
    print(report.summary())
    print()
    ranks = _parse_ranks(args)
    print(ascii_gantt(report, width=args.width, ranks=ranks))
    if args.output:
        write_chrome_trace(report, args.output, ranks=ranks)
        print(f"\nChrome trace written to {args.output} "
              "(load in chrome://tracing or Perfetto)")
    return 0


def _link_table(report, limit: int) -> str:
    """Per-link busy time, bytes and utilization, busiest first.

    The registry carries per-tier sums only; this is where the per-link
    detail of ``report.link_stats`` is shown.
    """
    links = sorted(
        report.link_stats.values(), key=lambda ls: (-ls.busy_time, ls.link)
    )
    shown = links[:limit] if limit else links
    rows = [
        (
            ls.link,
            f"{ls.busy_time:.1f}",
            f"{ls.bytes_moved / MB:.2f}",
            f"{ls.utilization(report.completion_time_us):.1%}",
        )
        for ls in shown
    ]
    return (
        f"links ({len(shown)} of {len(links)}, busiest first):\n"
        + format_table(("link", "busy us", "MB", "util"), rows, indent="  ")
    )


def cmd_profile(args: argparse.Namespace) -> int:
    _configure_cache(args)
    _configure_tuning(args)
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    cluster = _fit_cluster(args, cluster, program)
    backend = _make_backend(args.backend, args.mbs)
    ranks = _parse_ranks(args)
    try:
        with observe() as obs:
            if isinstance(backend, NCCLBackend):
                plan = backend.plan(
                    cluster, program.collective, args.buffer_mb * MB
                )
            else:
                plan = backend.plan(cluster, program, args.buffer_mb * MB)
            plan = _apply_fidelity(plan, args)
            report = _traced_report(plan, args)
    except SimulationDeadlock as exc:
        _print_deadlock(exc)
        return 2
    print(report.summary())
    if report.fault_stats is not None:
        print(report.fault_stats.summary())
    print(report.counters.summary())
    print(plancache.get_cache().stats.summary())
    print()
    print("pipeline spans (wall clock):")
    print(obs.tracer.render())
    print()
    print(attribute(report, dag=plan.dag).render())
    print()
    print(_link_table(report, args.metrics_limit))
    print()
    print("metrics:")
    print(obs.registry.render(limit=args.metrics_limit))
    if args.output:
        trace = to_chrome_trace(
            report,
            ranks=ranks,
            spans=obs.tracer.to_chrome_events(),
            include_counters=True,
        )
        validate_chrome_trace(trace)
        Path(args.output).write_text(json.dumps(trace))
        print(f"\nunified trace written to {args.output} "
              "(load in Perfetto or chrome://tracing)")
    if args.metrics_out:
        out = Path(args.metrics_out)
        if out.suffix == ".prom":
            out.write_text(obs.registry.to_prometheus())
        else:
            out.write_text(json.dumps(obs.registry.to_json(), indent=2))
        print(f"metrics written to {out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.list:
        for name in available_experiments():
            print(name)
        return 0
    if not args.name:
        raise SystemExit(
            "error: give an experiment id or --list; known: "
            + ", ".join(available_experiments())
        )
    _configure_cache(args)
    from .experiments import REGISTRY

    params = {}
    runner = REGISTRY.get(args.name)
    if runner is not None:
        accepted = inspect.signature(runner).parameters
        if "seed" in accepted:
            params["seed"] = args.seed
        if args.recovery and "policies" in accepted:
            params["policies"] = tuple(args.recovery)
        if args.scenario and "scenario" in accepted:
            params["scenario"] = args.scenario
        if "jobs" in accepted:
            params["jobs"] = (
                args.jobs if args.jobs is not None else (os.cpu_count() or 1)
            )
    result = run_experiment(args.name, **params)
    print(result.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _configure_cache(args)
    cluster = _cluster_from(args)
    program = _resolve_algorithm(args.algorithm, cluster)
    cluster = _fit_cluster(args, cluster, program)
    rows = []
    baseline: Optional[float] = None
    for name in ("NCCL", "MSCCL", "ResCCL"):
        backend = _make_backend(name, args.mbs)
        try:
            report = _simulate(backend, cluster, program, args.buffer_mb * MB)
        except SimulationDeadlock as exc:
            print(f"backend {name}:", file=sys.stderr)
            _print_deadlock(exc)
            return 2
        if baseline is None:
            baseline = report.algo_bandwidth
        rows.append(
            [
                name,
                f"{report.algo_bandwidth_gbps:.1f}",
                f"{report.completion_time_us / 1000.0:.2f}",
                f"{report.algo_bandwidth / baseline:.2f}x",
                str(report.max_tbs_per_rank()),
                f"{report.avg_idle_fraction():.1%}",
            ]
        )
    print(f"{program.name} on {cluster}, {args.buffer_mb} MB:\n")
    print(
        format_table(
            ["backend", "algbw GB/s", "time ms", "vs NCCL", "TBs/rank",
             "TB idle"],
            rows,
        )
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, ServiceDaemon

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        hang_timeout_s=args.hang_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache_dir=args.cache_dir,
        trace_sample=args.trace_sample,
        journal_dir=args.journal_dir,
        drain_grace_ms=args.drain_grace_ms,
        prewarm_limit=args.prewarm_limit,
        tuning_table=args.tuning_table,
    )
    return ServiceDaemon(config).run_forever()


def cmd_tune(args: argparse.Namespace) -> int:
    from .tuning.tuner import Cell, tune

    _configure_cache(args)
    collectives = [c.strip() for c in args.collectives.split(",") if c.strip()]
    try:
        sizes = [float(s) for s in args.sizes_mb.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(
            f"error: --sizes-mb wants comma-separated numbers, "
            f"got {args.sizes_mb!r}"
        ) from None
    if not collectives or not sizes:
        raise SystemExit("error: need at least one collective and one size")
    schedulers = tuple(
        s.strip() for s in args.schedulers.split(",") if s.strip()
    )
    cells = [
        Cell(
            collective=collective,
            buffer_mb=size,
            nodes=args.nodes,
            gpus=args.gpus,
            profile=args.profile,
        )
        for collective in collectives
        for size in sizes
    ]
    table_path = Path(
        args.table
        if args.table
        else plancache.default_cache_dir() / "tuning_table.json"
    )
    report = tune(
        cells,
        table_path,
        jobs=args.jobs,
        schedulers=schedulers,
        screen_fidelity=args.screen,
        force=args.force,
    )
    rows = []
    failed = 0
    for result in report.results:
        if result.entry is not None:
            winner = result.entry["config"]["algorithm"]
            tuned_ms = f"{result.entry['tuned_us'] / 1e3:.2f}"
            default_ms = f"{result.entry['default_us'] / 1e3:.2f}"
            win = f"{result.improvement:+.1%}"
        else:
            failed += 1
            winner, tuned_ms, default_ms, win = "-", "-", "-", "-"
        rows.append([
            result.cell.label(), result.status, winner, tuned_ms,
            default_ms, win, str(result.candidates),
            f"{result.wall_s:.1f}",
        ])
    print(
        format_table(
            ["cell", "status", "winner", "tuned ms", "default ms",
             "vs default", "cands", "wall s"],
            rows,
        )
    )
    print(
        f"\ntable: {table_path} ({len(report.table)} cell(s); "
        f"{len(report.scored)} scored, {len(report.skipped)} skipped, "
        f"{failed} failed; search cost {report.search_cost_s:.1f}s)"
    )
    return 1 if failed else 0


def cmd_trace_request(args: argparse.Namespace) -> int:
    from .analysis import request_trace_to_chrome, validate_chrome_trace
    from .service import ServiceClient, ServiceError
    from .service.tracing import render_trace

    with ServiceClient(args.host, args.port) as client:
        try:
            trace = client.request_trace(args.trace_id)
        except ServiceError as exc:
            if exc.status == 404:
                print(
                    f"trace {args.trace_id!r} not retained: it was never "
                    "sampled, or the flight recorder evicted it "
                    "(see /debug/requests for what is retained)",
                    file=sys.stderr,
                )
            else:
                print(f"trace fetch failed: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"cannot reach daemon at {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 1
    print(render_trace(trace))
    if args.output:
        chrome = request_trace_to_chrome(trace)
        validate_chrome_trace(chrome)
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh, indent=1)
        print(f"\nPerfetto trace written to {args.output} "
              f"({len(chrome['traceEvents'])} events)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resccl",
        description="ResCCL reproduction: compile, verify, and simulate "
        "collective communication algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algos", help="list built-in algorithms")

    p_verify = sub.add_parser("verify", help="validate + verify a program")
    p_verify.add_argument("algorithm")
    _add_cluster_args(p_verify)

    p_compile = sub.add_parser("compile", help="compile and inspect")
    p_compile.add_argument("algorithm")
    p_compile.add_argument("--scheduler", default="hpds", choices=["hpds", "rr"])
    p_compile.add_argument(
        "--reference-schedule", action="store_true",
        help="use the reference (unindexed) compile path; outputs are "
        "bit-identical to the default indexed path, only slower")
    p_compile.add_argument("--kernel", action="store_true",
                           help="print the generated kernel listing")
    p_compile.add_argument("--rank", type=int, default=0)
    p_compile.add_argument("--mbs", type=int, default=8,
                           help="micro-batches in the kernel listing")
    _add_cluster_args(p_compile)

    p_run = sub.add_parser("run", help="simulate one collective call")
    p_run.add_argument("algorithm")
    p_run.add_argument("--backend", default="resccl")
    p_run.add_argument("--buffer-mb", type=int, default=256)
    p_run.add_argument("--mbs", type=int, default=16,
                       help="micro-batch cap")
    p_run.add_argument(
        "--inject", default=None, metavar="SPEC",
        help="fault scenario to inject "
        f"({'/'.join(INJECT_SCENARIOS)}[:key=value,...])",
    )
    p_run.add_argument("--seed", type=int, default=0,
                       help="fault-schedule RNG seed")
    p_run.add_argument("--fault-intensity", type=float, default=1.0,
                       help="fraction of the fault schedule to apply [0,1]")
    p_run.add_argument(
        "--recovery", default="fallback", choices=list(POLICY_NAMES),
        help="recovery policy when faults are injected",
    )
    p_run.add_argument(
        "--failover-factor", type=float, default=0.25,
        help="capacity retained by dead edges in a fallback/resume "
        "cluster; 0 means no failover path, so a partitioned topology "
        "makes recovery impossible (exit code 2)",
    )
    _add_fidelity_arg(p_run)
    _add_cache_args(p_run)
    _add_tuning_arg(p_run)
    _add_cluster_args(p_run)

    p_cmp = sub.add_parser("compare", help="all three backends side by side")
    p_cmp.add_argument("algorithm")
    p_cmp.add_argument("--buffer-mb", type=int, default=256)
    p_cmp.add_argument("--mbs", type=int, default=16)
    _add_cache_args(p_cmp)
    _add_cluster_args(p_cmp)

    p_export = sub.add_parser(
        "export",
        help="write an algorithm as ResCCLang text or MSCCL-XML",
    )
    p_export.add_argument("algorithm")
    p_export.add_argument("output",
                          help=".rescclang or .xml destination path")
    _add_cluster_args(p_export)

    p_trace = sub.add_parser(
        "trace", help="execution timeline (ASCII Gantt / Chrome trace)"
    )
    p_trace.add_argument("algorithm")
    p_trace.add_argument("--backend", default="resccl")
    p_trace.add_argument("--buffer-mb", type=int, default=64)
    p_trace.add_argument("--mbs", type=int, default=8)
    p_trace.add_argument("--rank", type=int, default=0,
                         help="rank whose TBs to chart (-1 for all)")
    p_trace.add_argument("--ranks", default=None, metavar="R1,R2,...",
                         help="comma-separated rank filter "
                         "(overrides --rank)")
    p_trace.add_argument("--width", type=int, default=100)
    p_trace.add_argument("--output", help="write Chrome trace JSON here")
    _add_fidelity_arg(p_trace)
    _add_fault_args(p_trace)
    _add_cluster_args(p_trace)

    p_prof = sub.add_parser(
        "profile",
        help="pipeline spans, critical-path attribution, unified trace",
    )
    p_prof.add_argument("algorithm")
    p_prof.add_argument("--backend", default="resccl")
    p_prof.add_argument("--buffer-mb", type=int, default=64)
    p_prof.add_argument("--mbs", type=int, default=8)
    p_prof.add_argument("--ranks", default=None, metavar="R1,R2,...",
                        help="rank filter for the exported trace lanes")
    p_prof.add_argument("--output",
                        help="write the unified Perfetto/Chrome trace here")
    p_prof.add_argument("--metrics-out",
                        help="write metrics here (.prom for Prometheus "
                        "text format, anything else for JSON)")
    p_prof.add_argument("--metrics-limit", type=int, default=12,
                        help="metric series and links shown inline "
                        "(0 = all)")
    _add_fidelity_arg(p_prof)
    _add_fault_args(p_prof)
    _add_cache_args(p_prof)
    _add_tuning_arg(p_prof)
    _add_cluster_args(p_prof)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile/simulate service daemon (see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="compile/simulate worker processes")
    p_serve.add_argument("--queue-depth", type=int, default=32,
                         help="admission queue bound; beyond it requests "
                         "are shed with HTTP 429")
    p_serve.add_argument("--default-deadline-ms", type=float, default=30000,
                         help="deadline budget for requests that send none")
    p_serve.add_argument("--hang-timeout", type=float, default=10.0,
                         help="seconds without a worker heartbeat before "
                         "it is killed and respawned")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive primary timeouts that trip the "
                         "degraded-mode circuit breaker")
    p_serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                         help="seconds the breaker stays open before "
                         "probing the primary path again")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared on-disk plan-cache tier for the "
                         "worker processes")
    p_serve.add_argument("--trace-sample", type=float, default=1.0,
                         metavar="RATE",
                         help="fraction of requests given full span traces "
                         "(1.0 = every request, 0.0625 = every 16th, "
                         "0 = correlation ids only)")
    p_serve.add_argument("--journal-dir", default=None, metavar="DIR",
                         help="arm the crash-only lifecycle: write-ahead "
                         "request journal (replayed on boot), cache-prewarm "
                         "manifest, and persisted flight-recorder errors")
    p_serve.add_argument("--drain-grace-ms", type=float, default=10000,
                         help="budget for draining in-flight requests on "
                         "SIGTERM before shutdown (a second signal aborts "
                         "the drain)")
    p_serve.add_argument("--prewarm-limit", type=int, default=32,
                         help="hot plan-cache keys persisted on drain and "
                         "compiled before /readyz flips green on the next "
                         "boot (0 disables prewarm)")
    p_serve.add_argument("--tuning-table", default=None, metavar="PATH",
                         help="serve tuned plans from this 'resccl tune' "
                         "table; its cells are prewarmed before /readyz "
                         "and a table whose topology fingerprints do not "
                         "match this build fails startup (exit 2)")

    p_tune = sub.add_parser(
        "tune",
        help="search plan-shaping knobs per (collective, size, topology) "
        "cell and persist the winners as a tuning table",
    )
    p_tune.add_argument(
        "--collectives", default="allreduce,allgather,reducescatter",
        metavar="C1,C2,...",
        help="collectives to tune (comma-separated)",
    )
    p_tune.add_argument(
        "--sizes-mb", default="32,64", metavar="S1,S2,...",
        help="buffer sizes in MB (comma-separated; one cell per "
        "collective x size)",
    )
    p_tune.add_argument(
        "--table", default=None, metavar="PATH",
        help="tuning-table file to create/extend (default: "
        "tuning_table.json in the plan-cache directory); already-tuned "
        "cells are skipped, so interrupted runs resume",
    )
    p_tune.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the candidate sweep "
        "(default: one per CPU core)",
    )
    p_tune.add_argument(
        "--schedulers", default="hpds,taccl,teccl", metavar="S1,S2,...",
        help="plan sources to search: 'hpds' sweeps the built-in "
        "HPDS-scheduled family, 'taccl'/'teccl' add synthesized plans",
    )
    p_tune.add_argument(
        "--screen", default="fast", choices=["fast", "exact"],
        help="first-stage fidelity: 'fast' screens the whole grid "
        "cheaply and re-scores survivors exactly (successive halving); "
        "'exact' scores everything exactly in one stage",
    )
    p_tune.add_argument(
        "--force", action="store_true",
        help="re-tune cells already present in the table",
    )
    _add_cache_args(p_tune)
    _add_cluster_args(p_tune)

    p_treq = sub.add_parser(
        "trace-request",
        help="fetch one stitched request trace from a running daemon",
    )
    p_treq.add_argument("trace_id",
                        help="trace id from a reply body, X-Trace-Id "
                        "header, /metrics exemplar, or /debug/requests")
    p_treq.add_argument("--host", default="127.0.0.1")
    p_treq.add_argument("--port", type=int, default=8642)
    p_treq.add_argument("--output", metavar="PATH",
                        help="also write the trace as Perfetto/Chrome "
                        "JSON here")

    p_exp = sub.add_parser(
        "experiment", help="reproduce one of the paper's tables/figures"
    )
    p_exp.add_argument("name", nargs="?", help="experiment id (see --list)")
    p_exp.add_argument("--list", action="store_true",
                       help="list available experiments")
    p_exp.add_argument("--seed", type=int, default=0,
                       help="RNG seed for seeded experiments")
    p_exp.add_argument(
        "--recovery", action="append", choices=list(POLICY_NAMES),
        metavar="POLICY", default=None,
        help="recovery policies to sweep (repeatable; experiments that "
        f"take none ignore it; one of {'/'.join(POLICY_NAMES)})",
    )
    p_exp.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="fault scenario for resilience experiments "
        f"({'/'.join(INJECT_SCENARIOS)})",
    )
    p_exp.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep experiments that support it "
        "(default: one per CPU core)",
    )
    _add_cache_args(p_exp)

    return parser


_COMMANDS = {
    "algos": cmd_algos,
    "verify": cmd_verify,
    "compile": cmd_compile,
    "run": cmd_run,
    "compare": cmd_compare,
    "export": cmd_export,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "experiment": cmd_experiment,
    "serve": cmd_serve,
    "trace-request": cmd_trace_request,
    "tune": cmd_tune,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
