"""Command-line interface for the ResCCL reproduction.

Subcommands::

    resccl algos                         # list built-in algorithms
    resccl verify ALGO [options]         # parse/validate/verify a program
    resccl compile ALGO [--rank R]       # show phases + lowered kernel
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
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import inspect

from .algorithms import available_algorithms
from .analysis import format_table, lower_bound
from .baselines import MSCCLBackend, NCCLBackend
from .core import ResCCLBackend, ResCCLCompiler, allocate_tbs, lower_to_programs
from .core import plancache, render_kernel_source
from .experiments import available_experiments, run_experiment
from .faults import INJECT_SCENARIOS, POLICY_NAMES, run_with_faults
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
from .request import (
    FIELDS,
    SPEC_FORM,
    SYNTHESIZERS,
    Field,
    RequestError,
    build_cluster,
    resolve_spec,
    split_spec,
)
from .runtime import MB, SimulationDeadlock, simulate, verify_collective
from .synth import read_msccl_xml, write_msccl_xml
from .topology import Cluster

#: Plan-request fields every cluster-building subcommand takes.
_CLUSTER_FIELDS = ("nodes", "gpus", "profile")

#: ``run`` and ``compare`` default to one large, training-sized call.
_LARGE_CALL = {"buffer_mb": 256.0, "mbs": 16}

#: ``--backend`` choices, lower case.
_BACKENDS = {"resccl": ResCCLBackend, "msccl": MSCCLBackend, "nccl": NCCLBackend}

#: The fault knobs in [0, 1], refused at parse time like the request
#: fields (they are not part of a service request).
_FAILOVER_FACTOR = Field(
    "failover_factor", float, 0.25,
    "capacity retained by dead edges in a fallback/resume cluster; 0 "
    "means no failover path, so a partitioned topology makes recovery "
    "impossible (exit code 2)",
    unit=True,
)
_FAULT_INTENSITY = Field(
    "fault_intensity", float, 1.0,
    "fraction of the fault schedule to apply", unit=True,
)


def _flag_type(field):
    """argparse type running the field's own check (the service's reason)."""

    def parse(text: str):
        try:
            return field.from_text(text)
        except RequestError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_flag(parser: argparse.ArgumentParser, field: Field, default) -> None:
    """Register one field as a ``--flag`` checked by the field itself."""
    shown = f"{default:g}" if isinstance(default, float) else default
    parser.add_argument(
        "--" + field.name.replace("_", "-"),
        type=_flag_type(field),
        default=default,
        metavar="{" + ",".join(field.choices) + "}" if field.choices else None,
        help=f"{field.help} ({field.bound}; default: {shown})",
    )


def _add_fields(parser: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Register plan-request fields as flags, with per-subcommand defaults."""
    for name in names:
        field = FIELDS[name]
        _add_flag(parser, field, defaults.get(name, field.default))


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _check_rank(rank: int, cluster: Cluster) -> None:
    """Exit 2 on a rank the cluster does not have."""
    if not 0 <= rank < cluster.world_size:
        raise RequestError(f"rank {rank} is outside [0, {cluster.world_size})")


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="resccl", type=str.lower,
                        choices=list(_BACKENDS), help="backend to plan with")


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
    _add_flag(parser, _FAILOVER_FACTOR, _FAILOVER_FACTOR.default)


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
        "tuned winners (docs/performance.md#autotuning). 'serve' prewarms "
        "its cells before /readyz and fails startup (exit 2) on a table "
        "whose topology fingerprints do not match this build",
    )


def _configure_tuning(args: argparse.Namespace) -> None:
    """Install ``--tuning-table`` as the process-wide tuning table."""
    path = getattr(args, "tuning_table", None)
    if path is None:
        return
    if not Path(path).is_file():
        raise RequestError(f"tuning table not found: {path}")
    from .tuning.table import configure_tuning

    configure_tuning(path)


_DEFAULT_SHAPE = (FIELDS["nodes"].default, FIELDS["gpus"].default)


def _program_and_cluster(args: argparse.Namespace) -> Tuple[AlgoProgram, Cluster]:
    """The program ``args.algorithm`` names and the cluster to run it on.

    DSL and XML files pin their rank count: without an explicit shape,
    the default testbed is refit to the file's world size.  An explicit
    shape is kept, so validation reports a mismatch.
    """
    cluster = build_cluster(args.nodes, args.gpus, args.profile)
    spec = args.algorithm
    path = Path(spec)
    builtin = spec in available_algorithms()
    if builtin or not path.exists():
        if builtin or split_spec(spec) is not None:
            return resolve_spec(spec, cluster), cluster
        raise RequestError(
            f"{spec!r} is not a built-in algorithm, a synthesizer spec "
            f"({SPEC_FORM}), or a readable file.\n"
            f"Built-ins: {', '.join(available_algorithms())}"
        )
    if path.suffix == ".xml":
        program = read_msccl_xml(str(path))
    else:
        program = parse_program(path.read_text())
    if (program.nranks == cluster.world_size
            or (args.nodes, args.gpus) != _DEFAULT_SHAPE):
        return program, cluster
    gpus_per_node = min(program.header.gpus_per_node, program.nranks)
    if gpus_per_node < 1 or program.nranks % gpus_per_node != 0:
        gpus_per_node = program.nranks
    return program, build_cluster(
        program.nranks // gpus_per_node, gpus_per_node, args.profile
    )


def _plan(backend, cluster, program, nbytes):
    """One call's plan; NCCL plans from the collective alone."""
    if isinstance(backend, NCCLBackend):
        return backend.plan(cluster, program.collective, nbytes)
    return backend.plan(cluster, program, nbytes)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_algos(args: argparse.Namespace) -> int:
    del args
    for name in available_algorithms():
        print(name)
    for name in SYNTHESIZERS:
        print(f"{name}:<collective>  (synthesized)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    program, cluster = _program_and_cluster(args)
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
    program, cluster = _program_and_cluster(args)
    if args.kernel:
        _check_rank(args.rank, cluster)
    compiled = ResCCLCompiler(scheduler=args.scheduler).compile(
        program, cluster
    )
    # Lower as ResCCLBackend.plan does for an --mbs call: report the plan that runs.
    assignments = allocate_tbs(compiled.dag, compiled.pipeline, pipelining_allowance=args.mbs)
    tb_programs = lower_to_programs(assignments, args.mbs, nwarps=16)
    print(f"compiled {program.name!r} for {cluster}")
    for phase, micros in compiled.phase_times_us.items():
        print(f"  {phase:<11} {micros / 1000.0:9.2f} ms")
    print(
        f"pipeline: {compiled.pipeline.task_count} tasks in "
        f"{compiled.pipeline.depth} sub-pipelines; "
        f"{len(tb_programs)} thread blocks at {args.mbs} micro-batch(es)"
    )
    if args.kernel:
        print()
        print(render_kernel_source(args.rank, tb_programs, compiled.dag, program.name))
    return 0


def _run_faults(plan, args: argparse.Namespace):
    """``run_with_faults`` under the fault flags (checked at parse time)."""
    return run_with_faults(
        plan,
        args.inject,
        seed=args.seed,
        intensity=getattr(args, "fault_intensity", 1.0),  # run only
        recovery=args.recovery,
        record_trace=True,
        fallback_capacity_factor=args.failover_factor,
    )


def _print_deadlock(exc: SimulationDeadlock) -> None:
    print("simulation deadlocked:", file=sys.stderr)
    print(str(exc), file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    _configure_cache(args)
    _configure_tuning(args)
    program, cluster = _program_and_cluster(args)
    backend = _BACKENDS[args.backend](max_microbatches=args.mbs)
    plan = _plan(backend, cluster, program, args.buffer_mb * MB)
    plan = plan.with_fidelity(args.sim_fidelity)
    try:
        if args.inject:
            outcome = _run_faults(plan, args)
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
    program, _ = _program_and_cluster(args)
    out = Path(args.output)
    if out.suffix == ".xml":
        write_msccl_xml(program, str(out))
        print(f"wrote MSCCL-XML: {out} ({len(program)} transfers)")
    else:
        out.write_text(program.to_source())
        print(f"wrote ResCCLang: {out} ({len(program)} transfers)")
    return 0


def _parse_ranks(args: argparse.Namespace, cluster: Cluster) -> Optional[List[int]]:
    """The rank filter of ``trace``/``profile``: ``--ranks`` or ``--rank``.

    Returns ``None`` for "all ranks".  Both renderers (Gantt and Chrome
    export) receive the same list, so they always agree on the filter.
    A rank the cluster does not have exits 2.
    """
    ranks_arg = getattr(args, "ranks", None)
    if ranks_arg:
        try:
            parsed = sorted(
                {int(tok) for tok in ranks_arg.split(",") if tok.strip()}
            )
        except ValueError:
            raise RequestError(
                "--ranks wants a comma-separated list of rank "
                f"numbers, got {ranks_arg!r}"
            ) from None
        if any(r < 0 for r in parsed):
            return None  # an explicit -1 means "all"
        for rank in parsed:
            _check_rank(rank, cluster)
        return parsed or None
    rank = getattr(args, "rank", None)
    if rank is None or rank < 0:
        return None
    _check_rank(rank, cluster)
    return [rank]


def _traced_report(plan, args: argparse.Namespace):
    """Simulate with tracing on, under fault injection when requested."""
    if args.inject:
        return _run_faults(plan, args).report
    return simulate(plan, record_trace=True)


def cmd_trace(args: argparse.Namespace) -> int:
    program, cluster = _program_and_cluster(args)
    ranks = _parse_ranks(args, cluster)
    backend = _BACKENDS[args.backend](max_microbatches=args.mbs)
    plan = _plan(backend, cluster, program, args.buffer_mb * MB)
    plan = plan.with_fidelity(args.sim_fidelity)
    try:
        report = _traced_report(plan, args)
    except SimulationDeadlock as exc:
        _print_deadlock(exc)
        return 2
    print(report.summary())
    print()
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
    program, cluster = _program_and_cluster(args)
    backend = _BACKENDS[args.backend](max_microbatches=args.mbs)
    ranks = _parse_ranks(args, cluster)
    try:
        with observe() as obs:
            plan = _plan(backend, cluster, program, args.buffer_mb * MB)
            plan = plan.with_fidelity(args.sim_fidelity)
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
    from .experiments import REGISTRY

    if args.name not in REGISTRY:
        given = f"unknown experiment {args.name!r}" if args.name else "no experiment id"
        raise RequestError(
            f"{given}; give an experiment id or --list; known: "
            + ", ".join(available_experiments())
        )
    _configure_cache(args)

    params = {}
    accepted = inspect.signature(REGISTRY[args.name]).parameters
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
    program, cluster = _program_and_cluster(args)
    rows = []
    baseline: Optional[float] = None
    for name in ("NCCL", "MSCCL", "ResCCL"):
        backend = _BACKENDS[name.lower()](max_microbatches=args.mbs)
        plan = _plan(backend, cluster, program, args.buffer_mb * MB)
        try:
            report = simulate(plan)
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
                f"{lower_bound(plan).percent(report.completion_time_us):.0f}%",
                str(report.max_tbs_per_rank()),
                f"{report.avg_idle_fraction():.1%}",
            ]
        )
    print(f"{program.name} on {cluster}, {args.buffer_mb:g} MB:\n")
    print(
        format_table(
            ["backend", "algbw GB/s", "time ms", "vs NCCL", "% of bound",
             "TBs/rank", "TB idle"],
            rows,
        )
    )
    print("\n% of bound: completion over the plan's lower bound (100 = optimal)")
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
    try:  # each size is a buffer_mb
        sizes = [FIELDS["buffer_mb"].from_text(s) for s in args.sizes_mb.split(",") if s.strip()]
    except RequestError as exc:
        raise RequestError(f"--sizes-mb: {exc}") from None
    if not collectives or not sizes:
        raise RequestError("need at least one collective and one size")
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
        # The bound is reported, not stored: skipped cells have none.
        bound_ms = f"{result.bound_us / 1e3:.2f}" if result.bound_us else "-"
        rows.append([
            result.cell.label(), result.status, winner, tuned_ms, bound_ms,
            default_ms, win, f"{result.exact_scored}/{result.candidates}",
            f"{result.wall_s:.1f}",
        ])
    print(
        format_table(
            ["cell", "status", "winner", "tuned ms", "bound ms",
             "default ms", "vs default", "simulated", "wall s"],
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
    _add_fields(p_verify, *_CLUSTER_FIELDS)

    p_compile = sub.add_parser("compile", help="compile and inspect")
    p_compile.add_argument("algorithm")
    p_compile.add_argument("--kernel", action="store_true",
                           help="print the generated kernel listing")
    p_compile.add_argument("--rank", type=int, default=0)
    _add_fields(p_compile, "scheduler", "mbs", *_CLUSTER_FIELDS)

    p_run = sub.add_parser("run", help="simulate one collective call")
    p_run.add_argument("algorithm")
    _add_backend_arg(p_run)
    _add_fields(p_run, "buffer_mb", "mbs", "sim_fidelity", *_CLUSTER_FIELDS,
                **_LARGE_CALL)
    _add_fault_args(p_run)
    _add_flag(p_run, _FAULT_INTENSITY, _FAULT_INTENSITY.default)
    _add_cache_args(p_run)
    _add_tuning_arg(p_run)

    p_cmp = sub.add_parser("compare", help="all three backends side by side")
    p_cmp.add_argument("algorithm")
    _add_fields(p_cmp, "buffer_mb", "mbs", *_CLUSTER_FIELDS, **_LARGE_CALL)
    _add_cache_args(p_cmp)

    p_export = sub.add_parser(
        "export",
        help="write an algorithm as ResCCLang text or MSCCL-XML",
    )
    p_export.add_argument("algorithm")
    p_export.add_argument("output",
                          help=".rescclang or .xml destination path")
    _add_fields(p_export, *_CLUSTER_FIELDS)

    p_trace = sub.add_parser(
        "trace", help="execution timeline (ASCII Gantt / Chrome trace)"
    )
    p_trace.add_argument("algorithm")
    _add_backend_arg(p_trace)
    _add_fields(p_trace, "buffer_mb", "mbs", "sim_fidelity", *_CLUSTER_FIELDS)
    p_trace.add_argument("--rank", type=int, default=0,
                         help="rank whose TBs to chart (-1 for all)")
    p_trace.add_argument("--ranks", default=None, metavar="R1,R2,...",
                         help="comma-separated rank filter "
                         "(overrides --rank)")
    p_trace.add_argument("--width", type=_int_at_least(1), default=100,
                         help="ASCII chart width in columns")
    p_trace.add_argument("--output", help="write Chrome trace JSON here")
    _add_fault_args(p_trace)

    p_prof = sub.add_parser(
        "profile",
        help="pipeline spans, critical-path attribution, unified trace",
    )
    p_prof.add_argument("algorithm")
    _add_backend_arg(p_prof)
    _add_fields(p_prof, "buffer_mb", "mbs", "sim_fidelity", *_CLUSTER_FIELDS)
    p_prof.add_argument("--ranks", default=None, metavar="R1,R2,...",
                        help="rank filter for the exported trace lanes")
    p_prof.add_argument("--output",
                        help="write the unified Perfetto/Chrome trace here")
    p_prof.add_argument("--metrics-out",
                        help="write metrics here (.prom for Prometheus "
                        "text format, anything else for JSON)")
    p_prof.add_argument("--metrics-limit", type=_int_at_least(0), default=12,
                        help="metric series and links shown inline "
                        "(0 = all)")
    _add_fault_args(p_prof)
    _add_cache_args(p_prof)
    _add_tuning_arg(p_prof)

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
    _add_tuning_arg(p_serve)

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
        "--force", action="store_true",
        help="re-tune cells already present in the table",
    )
    _add_cache_args(p_tune)
    _add_fields(p_tune, *_CLUSTER_FIELDS)

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
    try:
        return _COMMANDS[args.command](args)
    except RequestError as exc:  # e.g. a bad spec, rank or cluster size
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
