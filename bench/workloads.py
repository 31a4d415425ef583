"""The four workloads of the layer ledger.

Each workload has four phases:

* ``setup()`` — imports, cluster builds and input generation (for the
  service, also the daemon start until ``/readyz`` is true).
  ``setup_s`` times exactly this in fresh interpreters.
* ``warm_up()`` — untimed calls that let lazy imports settle and, where
  a user would have it warm, fill the plan cache.
* ``sections(seconds, rng, modes)`` — one timed section per mode,
  untraced (``False``) or traced (``True``).  Batch workloads time
  passes over their items, in an order drawn from ``rng``, until
  ``seconds`` per mode have passed and each mode has made one whole
  pass; the service workload sends its cold requests one by one, to
  three fresh daemons in turn, and then runs a closed loop for
  ``seconds``.
* ``close()`` — stops every process the workload started and removes
  its temporary directories.

The seed reaches a workload only through ``rng``, which orders items
and draws requests, so no output depends on it.  Correctness gates run
outside the timed operations and record failures in ``failures``.
Host times are scaled to the reference machine with the speed trace
recorded while they ran (:mod:`speed`); a batch operation, and a cold
service request with every thread serving it, runs pinned to the CPU
that was faster just before it.  In a traced section
:func:`repro.obs.tracing` is armed, and the benchmark's own ``bench.*``
spans wrap each public call with a ``scale`` attribute naming the
cluster shape (``2x8`` is 2 nodes of 8 GPUs); the program's own spans
nest under them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import repro.training.megatron as megatron_module
from repro import (
    Collective,
    MSCCLBackend,
    NCCLBackend,
    ResCCLBackend,
    ResCCLCompiler,
    multi_node,
    parse_program,
    simulate,
    verify_collective,
)
from repro.algorithms import build_algorithm
from repro.analysis import verify_delivery
from repro.core.compiler import compile_fingerprint
from repro.core.plancache import get_cache
from repro.obs import span, tracing
from repro.runtime import MB
from repro.service import ServiceClient, ServiceConfig, ServiceDaemon
from repro.service.protocol import execute, parse_request, result_digest
from repro.synth import TACCLSynthesizer
from repro.topology import single_node
from repro.training import (
    GPT3_MODELS,
    T5_MODELS,
    MegatronSimulator,
    ParallelConfig,
    expert_program,
    iteration_demands,
)

import stats
from ledger import OPS

BENCH = Path(__file__).resolve().parent
EXAMPLES = BENCH.parent / "examples" / "algorithms"
TMP = BENCH / "out" / "tmp"


def scale_of(cluster) -> str:
    """``<nodes>x<GPUs per node>``, the key of the per-scale metrics."""
    return f"{cluster.nodes}x{cluster.gpus_per_node}"


def digest(value) -> str:
    """Short content digest of a JSON-able value."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def header_shape(text: str):
    """``(nodes, GPUs per node)`` a ResCCLang header declares."""
    fields = dict(re.findall(r"\b(nRanks|GPUPerNode)=(\d+)", text))
    gpus = int(fields["GPUPerNode"])
    return int(fields["nRanks"]) // gpus, gpus


def spanned_simulate(run):
    """Wrap ``run`` (a ``simulate``) so every call opens ``bench.simulate``
    and records the run's event and flow counters on it."""

    def wrapper(plan, *args, **kwargs):
        with span("bench.simulate", scale=scale_of(plan.cluster)) as sp:
            report = run(plan, *args, **kwargs)
            counters = report.counters
            sp.set(
                events_popped=counters.events_popped,
                flows_admitted=counters.flows_admitted,
                stale_events_skipped=counters.stale_events_skipped,
                vectorized_passes=counters.vectorized_passes,
                scalar_passes=counters.scalar_passes,
                # Bucket activations: above 0 only on the calendar queue.
                queue_refills=counters.queue_refills,
            )
        return report

    return wrapper


def measure_key(program, cluster) -> None:
    """``bench.key``: derive the plan-cache key of ``program`` outside
    any timed operation, timing the source rendering and the hash apart."""
    with span("bench.key", scale=scale_of(cluster), timed="0") as sp:
        start = time.perf_counter()
        source = program.to_source()
        rendered = time.perf_counter()
        get_cache().compile_key(source, cluster, "hpds", True)
        sp.set(
            to_source_us=(rendered - start) * 1e6,
            key_us=(time.perf_counter() - rendered) * 1e6,
        )


@dataclass
class Item:
    """One timed unit of a batch workload."""

    name: str
    scale: str
    spec: Any = None
    #: Operations per timed sample: more than one for an operation too
    #: short to span a few rounds of the speed trace on its own.
    repeat: int = 1


@dataclass
class Section:
    """What one timed section measured."""

    #: Reference-machine seconds of each timed operation, per item (or
    #: request kind); ``raw`` holds the host seconds.
    samples: Dict[str, List[float]]
    raw: Dict[str, List[float]]
    #: Reference-machine seconds of one pass over the workload's inputs
    #: (for the service, of its cold phase).
    wall_s: float
    throughput_per_s: float
    ops: int
    #: Mean factor from host to reference-machine time.
    factor: float
    #: Divisor of the per-layer totals: passes, or requests.
    per: float = 1.0
    spans: List[dict] = field(default_factory=list)
    requests: List[dict] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def geomean_ms(self) -> float:
        return stats.geomean_of_medians(self.samples) * 1e3


class Workload:
    name = ""

    def __init__(self, trace) -> None:
        #: The :class:`speed.SpeedTrace` host times are scaled with.
        self.trace = trace
        self.failures: List[str] = []
        self.checks = 0
        #: Simulated (or compiled) output per item, which must be the
        #: same in every pass, traced or not, for every seed.
        self.sim: Dict[str, Any] = {}

    def gate(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(f"{self.name}: {message}")

    def expect_same(self, key: str, value) -> None:
        first = self.sim.setdefault(key, value)
        self.gate(first == value, f"{key}: output {value!r} differs from {first!r}")

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def sections(self, seconds: float, rng: random.Random, modes) -> List[Section]:
        """One timed section per mode in ``modes`` (``False`` untraced,
        ``True`` traced), each lasting about ``seconds``."""
        raise NotImplementedError

    def final_gates(self) -> None:
        pass

    def layer_extras(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Batch(Workload):
    """A fixed list of items, timed in passes."""

    #: Each operation runs on one CPU, the faster one just before it.
    pinned = True
    items: List[Item]

    def prepare(self, item: Item) -> None:
        """Untimed work before each operation."""

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, output, traced: bool) -> None:
        """Untimed gates (and traced-only extras) after each operation."""

    def instrumented(self):
        """Extra instrumentation around each traced pass."""
        return contextlib.nullcontext()

    def traced_extras(self) -> None:
        """Untimed calls made once, traced, after the traced passes."""

    def sections(self, seconds, rng, modes):
        """Time passes, cycling through ``modes`` so that drift in machine
        speed during the run hits every mode alike.  Once every mode has
        made one whole pass, a pass stops when ``seconds`` per mode are
        up, so items late in its (random) order have a sample fewer."""
        timed = {mode: {} for mode in modes}
        passes = dict.fromkeys(modes, 0)
        spans: List[dict] = []
        deadline = time.perf_counter() + seconds * len(modes)
        try:
            while not passes[modes[-1]] or time.perf_counter() < deadline:
                for traced in modes:
                    stop = deadline if passes[modes[-1]] else math.inf
                    if traced:
                        with tracing() as tracer, self.instrumented():
                            self.run_pass(rng, timed[traced], traced, stop)
                        spans += tracer.to_dict()
                    else:
                        self.run_pass(rng, timed[traced], traced, stop)
                    passes[traced] += 1
        finally:
            self.trace.unpin()
        if any(modes):
            with tracing() as tracer:
                self.traced_extras()
            spans += tracer.to_dict()
        scaler = self.trace.scaler()
        repeat = {item.name: item.repeat for item in self.items}
        out = []
        for traced in modes:
            rows = timed[traced]
            samples = {
                name: [scaler.scale([cpu], a, b) / repeat[name] for cpu, a, b in values]
                for name, values in rows.items()
            }
            wall_s = sum(statistics.median(v) for v in samples.values())
            ops = sum(len(values) * repeat[name] for name, values in rows.items())
            out.append(Section(
                samples=samples,
                raw={
                    name: [(b - a) / repeat[name] for _, a, b in values]
                    for name, values in rows.items()
                },
                wall_s=wall_s,
                throughput_per_s=len(samples) / wall_s if wall_s else 0.0,
                ops=ops,
                factor=statistics.mean(
                    scaler.factor([cpu], a, b) for values in rows.values() for cpu, a, b in values),
                per=sum(map(len, rows.values())) / len(self.items),
                spans=spans if traced else [],
            ))
        return out

    def run_pass(self, rng, timed, traced, stop) -> None:
        """One pass in ``rng`` order, ending early at ``stop``; appends
        ``(cpu, start, end)`` of each operation to ``timed[item]``."""
        order = list(self.items)
        rng.shuffle(order)
        for item in order:
            if time.perf_counter() >= stop:
                return
            self.prepare(item)
            # Each operation starts from a collected heap, as in a fresh
            # process, so collections that earlier items made necessary
            # do not land in its timing.
            gc.collect()
            cpu = self.trace.pin_fastest()
            began = time.perf_counter()
            try:
                for _ in range(item.repeat):
                    output = self.op(item)
            except Exception as exc:  # noqa: BLE001 - a failed op, counted
                self.failures.append(f"{self.name} {item.name}: {exc!r}")
                continue
            timed.setdefault(item.name, []).append((cpu, began, time.perf_counter()))
            self.check(item, output, traced)
            # Free the output before the next operation, so the peak
            # memory does not depend on which item ran before which.
            del output


class Cells(Batch):
    """The paper-figure cells, each cold: build the program, then
    ``ResCCLBackend().plan`` and ``simulate`` with the plan cache
    cleared, which is what ``resccl run`` does.  All four algorithms run
    at 2x8 and 4x8; at 8x8 the two whose simulation engages the
    vectorized re-rater (mesh and TACCL) run."""

    name = "cells"
    ALGORITHMS = ("ring-allreduce", "mesh-allreduce", "hm-allreduce", "taccl-allgather")
    CELLS = (
        [(algo, (2, 8)) for algo in ALGORITHMS]
        + [(algo, (4, 8)) for algo in ALGORITHMS]
        + [("mesh-allreduce", (8, 8)), ("taccl-allgather", (8, 8))]
    )
    BUFFER = 64 * MB

    def setup(self):
        self.clusters = {}
        self.items = []
        for algo, shape in self.CELLS:
            cluster = self.clusters.setdefault(shape, multi_node(*shape))
            scale = scale_of(cluster)
            self.items.append(Item(f"{algo}@{scale}", scale, (algo, cluster)))
        self.simulate = spanned_simulate(simulate)
        self.algbw: Dict[str, float] = {}
        self.verified = set()

    def warm_up(self):
        self.prepare(self.items[0])
        self.op(self.items[0])

    def prepare(self, item):
        get_cache().clear()

    def build(self, algo, cluster):
        if algo == "taccl-allgather":
            return TACCLSynthesizer().synthesize(cluster, Collective.ALLGATHER)
        return build_algorithm(algo, cluster)

    def op(self, item):
        algo, cluster = item.spec
        with span("bench.build", scale=item.scale):
            program = self.build(algo, cluster)
        with span("bench.plan", scale=item.scale):
            plan = ResCCLBackend().plan(cluster, program, self.BUFFER)
        return program, plan, self.simulate(plan)

    def check(self, item, output, traced):
        program, plan, report = output
        self.expect_same(item.name, report.completion_time_us)
        self.algbw[item.name] = report.algo_bandwidth_gbps
        if item.name not in self.verified:
            self.verified.add(item.name)
            delivery = verify_delivery(plan, order=report.completion_order)
            self.gate(delivery.ok, f"{item.name}: {delivery.summary()}")
        if traced:
            cluster = item.spec[1]
            measure_key(program, cluster)
            with span("bench.plan_warm", scale=item.scale, timed="0"):
                ResCCLBackend().plan(cluster, program, self.BUFFER)

    def layer_extras(self):
        return {"sim.algbw_gbps": stats.geomean(self.algbw.values())}


class Dsl(Batch):
    """Cold ``ResCCLCompiler().compile(text, cluster)`` over ResCCLang
    sources from 2 kB to 0.3 MB: the example corpus plus rendered
    built-ins.  A sample of a source under :data:`SAMPLE_KB` compiles it
    several times, so that it lasts at least as long as one of that
    size (about 50 ms)."""

    name = "dsl"
    SAMPLE_KB = 32
    RENDERED = (
        ("ring-allreduce", 4, 8),
        ("hm-allreduce", 4, 8),
        ("ring-allreduce", 8, 8),
        ("hm-allreduce", 8, 8),
    )

    def setup(self):
        self.items = []
        for path in sorted(EXAMPLES.glob("*.rescclang")):
            text = path.read_text(encoding="utf-8")
            cluster = multi_node(*header_shape(text))
            self.add(path.stem, text, cluster, None)
        for algo, nodes, gpus in self.RENDERED:
            cluster = multi_node(nodes, gpus)
            program = build_algorithm(algo, cluster)
            self.add(f"{algo}@{scale_of(cluster)}", program.to_source(), cluster, program)
        self.checked = set()

    def add(self, name, text, cluster, program) -> None:
        repeat = max(1, math.ceil(self.SAMPLE_KB * 1024 / len(text)))
        self.items.append(Item(name, scale_of(cluster), (text, cluster, program), repeat))

    def warm_up(self):
        self.op(self.items[0])

    def op(self, item):
        text, cluster, _ = item.spec
        with span("bench.compile", scale=item.scale) as sp:
            sp.set(source_kb=len(text) / 1024)
            return ResCCLCompiler().compile(text, cluster)

    def check(self, item, result, traced):
        _, cluster, program = item.spec
        fingerprint = compile_fingerprint(result)
        self.expect_same(item.name, digest(fingerprint))
        if item.name in self.checked:
            return
        self.checked.add(item.name)
        if program is None:
            verdict = verify_collective(result.program)
            self.gate(verdict.ok, f"{item.name}: postcondition fails: {verdict.errors[:3]}")
        else:
            reference = ResCCLCompiler().compile(program, cluster)
            self.gate(
                compile_fingerprint(reference) == fingerprint,
                f"{item.name}: text compile differs from the builder compile",
            )


class Megatron(Batch):
    """The 16-GPU jobs of the Figure 13 suite in
    ``examples/megatron_training.py`` (T5 with DP=16, GPT-3 6.7B and 13B
    with TP=8 DP=2), each under NCCL, MSCCL and ResCCL, with the plan
    cache warm."""

    name = "megatron"

    def setup(self):
        cluster = multi_node(2, 8)
        jobs = [(model, ParallelConfig(tp=1, dp=16, batch_size=16)) for model in T5_MODELS]
        jobs += [
            (model, ParallelConfig(tp=8, dp=2, batch_size=16, microbatch_size=4))
            for model in GPT3_MODELS[:2]
        ]
        self.backends = {
            "NCCL": NCCLBackend(max_microbatches=8),
            "MSCCL": MSCCLBackend(max_microbatches=8),
            "ResCCL": ResCCLBackend(max_microbatches=8),
        }
        self.items = [
            Item(f"{model.name}/{name}", scale_of(cluster), (cluster, model, parallel, name))
            for model, parallel in jobs
            for name in self.backends
        ]
        self.cache_hits = self.cache_lookups = 0

    def collectives(self):
        """``(cluster, bytes)`` of every AllReduce the ResCCL jobs run."""
        calls = []
        for item in self.items:
            cluster, model, parallel, name = item.spec
            if name != "ResCCL":
                continue
            for demand in iteration_demands(model, parallel):
                group = (
                    single_node(parallel.tp, profile=cluster.profile)
                    if demand.scope == "tp" else cluster
                )
                calls.append((group, demand.nbytes))
        return calls

    def warm_up(self):
        """Compile and lower every ResCCL plan once, as the iterations of
        a training job after its first do, then run one job per backend."""
        backend = self.backends["ResCCL"]
        for cluster, nbytes in self.collectives():
            backend.plan(cluster, expert_program(cluster, Collective.ALLREDUCE), nbytes)
        for item in self.items[: len(self.backends)]:
            self.op(item)

    def op(self, item):
        cluster, model, parallel, name = item.spec
        with span("bench.job", scale=item.scale):
            return MegatronSimulator(cluster, self.backends[name]).throughput(model, parallel)

    def check(self, item, throughput, traced):
        self.gate(math.isfinite(throughput) and throughput > 0,
                  f"{item.name}: throughput {throughput!r}")
        self.expect_same(item.name, throughput)

    @contextlib.contextmanager
    def instrumented(self):
        """Open ``bench.plan`` and ``bench.simulate`` around the calls
        ``MegatronSimulator`` makes, so the traced section keys them by
        the cluster they ran on, and measure the plan-cache hit rate."""
        original = megatron_module.simulate
        megatron_module.simulate = spanned_simulate(original)
        for backend in self.backends.values():
            backend.plan = _spanned_plan(backend.plan)
        cache = get_cache().stats
        hits, lookups = cache.hits, cache.lookups
        try:
            yield
            cache = get_cache().stats
            self.cache_hits += cache.hits - hits
            self.cache_lookups += cache.lookups - lookups
        finally:
            megatron_module.simulate = original
            for backend in self.backends.values():
                del backend.plan

    def traced_extras(self):
        for cluster in {scale_of(c): c for c, _ in self.collectives()}.values():
            measure_key(expert_program(cluster, Collective.ALLREDUCE), cluster)

    def layer_extras(self):
        speedups = [
            self.sim[item.name] / self.sim[f"{item.spec[1].name}/NCCL"]
            for item in self.items if item.spec[3] == "ResCCL"
        ]
        return {
            "training.speedup_vs_nccl": stats.geomean(speedups),
            "core.plancache.hit_rate": (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0),
        }


def _spanned_plan(plan):
    def wrapper(cluster, *args, **kwargs):
        with span("bench.plan", scale=scale_of(cluster)):
            return plan(cluster, *args, **kwargs)

    return wrapper


class Service(Workload):
    """An in-process ``ServiceDaemon`` with 2 workers, loaded from this
    process: 27 cold keys one after another on one connection (three
    times, each against a fresh daemon), then a closed loop on 2
    connections over 8 warm keys x {compile, simulate}.  Its host times
    are scaled with the speed of every CPU, since the daemon, its
    workers and the clients share them."""

    name = "service"
    pinned = False
    CONNECTIONS = 2
    REQUEST = {"buffer_mb": 16.0, "mbs": 4}
    BUILTINS = (
        "ring-allreduce", "ring-allgather", "ring-reducescatter",
        "mesh-allreduce", "mesh-allgather", "mesh-reducescatter",
        "tree-allreduce",
    )
    SHAPES = ((1, 8), (2, 4), (2, 8))
    HIERARCHICAL = ("hm-allreduce", "hm-allgather", "hm-reducescatter")
    SOURCES = ("ring_allreduce_8", "mesh_allreduce_8", "hm_allreduce_2x8")
    WARM = (
        "ring-allreduce@1x8", "tree-allreduce@2x4", "mesh-allreduce@2x8",
        "ring-allgather@2x8", "mesh-reducescatter@2x4", "hm-allreduce@2x8",
        "ring_allreduce_8@1x8", "hm_allreduce_2x8@2x8",
    )
    #: Cold phases per section, each against a fresh daemon; ``wall_s``
    #: is their median.
    COLD_ROUNDS = 3
    #: Warm requests per op the percentile rule needs for a median.
    MIN_PER_OP = 2 * stats.MIN_TAIL_SAMPLES
    #: Flight-recorder capacity: above any request count, so every
    #: traced request stays retrievable.
    RECORDER = 1 << 20

    def setup(self):
        self.bodies: Dict[str, dict] = {}
        for algo in self.BUILTINS:
            for nodes, gpus in self.SHAPES:
                self.bodies[f"{algo}@{nodes}x{gpus}"] = {
                    "algorithm": algo, "nodes": nodes, "gpus": gpus, **self.REQUEST}
        for algo in self.HIERARCHICAL:
            self.bodies[f"{algo}@2x8"] = {
                "algorithm": algo, "nodes": 2, "gpus": 8, **self.REQUEST}
        for stem in self.SOURCES:
            text = (EXAMPLES / f"{stem}.rescclang").read_text(encoding="utf-8")
            nodes, gpus = header_shape(text)
            self.bodies[f"{stem}@{nodes}x{gpus}"] = {
                "source": text, "nodes": nodes, "gpus": gpus, **self.REQUEST}
        self.kinds = [(op, label) for label in self.WARM for op in OPS]
        self.dirs: List[str] = []
        self.daemon = None
        self.start(traced=False)

    def start(self, traced: bool) -> None:
        """Replace the daemon with a fresh one: new ``cache_dir``, no
        request served yet, ready."""
        self.stop_daemon()
        TMP.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="plan-cache-", dir=TMP)
        self.dirs.append(cache_dir)
        daemon = ServiceDaemon(ServiceConfig(
            port=0,
            workers=2,
            cache_dir=cache_dir,
            trace_sample=1.0 if traced else 0.0,
            recorder_slow=self.RECORDER,
            default_deadline_ms=120_000.0,
        )).start()
        with ServiceClient("127.0.0.1", daemon.port) as client:
            ready = client.readyz().get("ready")
        if not ready:
            daemon.stop()
            raise RuntimeError("service daemon started but /readyz is not ready")
        self.daemon, self.daemon_traced, self.daemon_used = daemon, traced, False

    def fresh_port(self, traced: bool) -> int:
        """Port of a daemon no request has reached yet, traced as asked."""
        if self.daemon is None or self.daemon_used or self.daemon_traced != traced:
            self.start(traced)
        self.daemon_used = True
        return self.daemon.port

    def pin_service(self, cpus) -> None:
        """Let every thread of this process and of the daemon's workers
        run only on ``cpus``."""
        for pid in (os.getpid(), *self.daemon.pool.worker_pids()):
            # A worker or thread may end between the listing and the call;
            # the next request pins again.
            with contextlib.suppress(FileNotFoundError, ProcessLookupError):
                for tid in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(tid), cpus)

    def stop_daemon(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def close(self):
        self.stop_daemon()
        for path in self.dirs:
            shutil.rmtree(path, ignore_errors=True)

    def send(self, client, op: str, label: str) -> dict:
        record = {"op": op, "label": label, "start": time.perf_counter()}
        try:
            record["reply"] = client.request(op, **self.bodies[label])
        except Exception as exc:  # noqa: BLE001 - a failed request, counted
            record["error"] = repr(exc)
        record["end"] = time.perf_counter()
        return record

    def sections(self, seconds, rng, modes):
        out = []
        for traced in modes:
            try:
                out.append(self.drive(seconds, rng, traced))
            finally:
                self.stop_daemon()
        return out

    def drive(self, seconds, rng, traced):
        """:data:`COLD_ROUNDS` cold phases, each against a fresh daemon
        (the first may be the one ``setup`` started), then the warm
        phase for ``seconds`` against the last one."""
        cold_phases = []
        for _ in range(self.COLD_ROUNDS):
            port = self.fresh_port(traced)
            cold = list(self.bodies)
            rng.shuffle(cold)
            cold_records = []
            try:
                with ServiceClient("127.0.0.1", port, timeout_s=120.0) as client:
                    for label in cold:
                        # One request at a time runs on one CPU; which one
                        # must be known to scale its time.
                        cpu = self.trace.fastest()
                        self.pin_service({cpu})
                        cold_records.append({"cpu": cpu, **self.send(client, "simulate", label)})
            finally:
                self.pin_service(set(self.trace.cpus))
            cold_phases.append(cold_records)

        warm_records: List[dict] = []
        lock = threading.Lock()
        streams = [random.Random(rng.random()) for _ in range(self.CONNECTIONS)]
        began = time.perf_counter()
        deadline = began + seconds

        def closed_loop(stream):
            # Each connection deals the request kinds from shuffled full
            # decks, so every run sends the same mix.
            deck: List[tuple] = []
            with ServiceClient("127.0.0.1", port, timeout_s=120.0) as client:
                while time.perf_counter() < deadline:
                    if not deck:
                        deck = list(self.kinds)
                        stream.shuffle(deck)
                    record = self.send(client, *deck.pop())
                    with lock:
                        warm_records.append(record)

        threads = [
            threading.Thread(target=closed_loop, args=(stream,), name=f"bench-client-{i}")
            for i, stream in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 300)
            self.gate(not thread.is_alive(), f"{thread.name} did not finish")
        ended = time.perf_counter()

        all_cold = [r for records in cold_phases for r in records]
        for record in all_cold + warm_records:
            key = f"{record['op']} {record['label']}"
            reply = record.get("reply")
            if reply is None:
                self.failures.append(f"service {key}: {record['error']}")
                continue
            self.gate(not reply["degraded"], f"{key}: served degraded")
            self.expect_same(key, reply["result_digest"])

        cpus = self.trace.cpus
        scaler = self.trace.scaler()
        samples: Dict[str, List[float]] = {f"{op} {label}": [] for op, label in self.kinds}
        raw: Dict[str, List[float]] = {kind: [] for kind in samples}
        for record in warm_records:
            if "reply" in record:
                kind = f"{record['op']} {record['label']}"
                raw[kind].append(record["end"] - record["start"])
                samples[kind].append(scaler.scale(cpus, record["start"], record["end"]))
        by_op = {
            op: [t for kind, values in samples.items() if kind.startswith(op + " ")
                 for t in values]
            for op in OPS
        }
        for op, values in by_op.items():
            self.gate(len(values) >= self.MIN_PER_OP,
                      f"only {len(values)} warm {op} requests (need {self.MIN_PER_OP})")
        served = sum(len(v) for v in samples.values())
        def cold_s(record):
            return scaler.scale([record["cpu"]], record["start"], record["end"])

        section = Section(
            samples=samples,
            raw=raw,
            wall_s=statistics.median(sum(map(cold_s, records)) for records in cold_phases),
            throughput_per_s=served / scaler.scale(cpus, began, ended),
            ops=len(all_cold) + len(warm_records),
            factor=scaler.factor(cpus, began, ended),
            details={
                "cold_p50_ms": statistics.median(map(cold_s, all_cold)) * 1e3,
                "warm": {op: _latency(values) for op, values in by_op.items()},
            },
        )
        if traced:
            self.attach_traces(port, cold_records, warm_records, section)
        return section

    def attach_traces(self, port, cold_records, warm_records, section):
        """Fetch every request's stitched trace and hang it under a
        ``bench.request`` span lasting the client-observed latency."""
        records = [r for r in cold_records + warm_records if "reply" in r]
        with ServiceClient("127.0.0.1", port, timeout_s=120.0) as client:
            for record in records:
                record["trace"] = client.request_trace(record["reply"]["trace_id"])
        for record in records:
            body = self.bodies[record["label"]]
            section.spans.append({
                "name": "bench.request",
                "start_us": 0.0,
                "duration_us": (record["end"] - record["start"]) * 1e6,
                "attrs": {"scale": f"{body['nodes']}x{body['gpus']}", "op": record["op"]},
                "counters": {},
                "children": record["trace"]["spans"],
            })
        section.per = len(records)
        section.requests = [
            {
                "op": r["op"],
                "client_ms": (r["end"] - r["start"]) * 1e3,
                "trace": r["trace"],
                "cache_hit": r["reply"]["result"].get("cache_hit", False),
                "coalesced": r["reply"]["coalesced"],
            }
            for r in warm_records if "trace" in r
        ]
        with tracing() as tracer:
            for label in self.WARM:
                body = self.bodies[label]
                cluster = multi_node(body["nodes"], body["gpus"])
                program = (
                    parse_program(body["source"]) if "source" in body
                    else build_algorithm(body["algorithm"], cluster)
                )
                measure_key(program, cluster)
        section.spans += tracer.to_dict()

    def final_gates(self):
        """Every distinct request's digest equals that of an in-process
        run of ``repro.service.protocol.execute``."""
        for key, served in sorted(self.sim.items()):
            op, label = key.split(" ", 1)
            request = parse_request(op, dict(self.bodies[label]))
            expected = result_digest(execute(request.to_payload()))
            self.gate(expected == served, f"{key}: digest differs from in-process execute")


def _latency(values: List[float]) -> dict:
    """Sample count, median and the highest percentile the count supports."""
    report: Dict[str, Any] = {"n": len(values)}
    if values:
        report["p50_ms"] = statistics.median(values) * 1e3
    tail = stats.tail(values)
    if tail is not None:
        report["tail_quantile"], report["tail_ms"] = tail[0], tail[1] * 1e3
    return report


WORKLOADS = {"cells": Cells, "dsl": Dsl, "megatron": Megatron, "service": Service}
