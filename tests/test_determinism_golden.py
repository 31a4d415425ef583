"""Golden determinism: simulations and compiles are pinned by digest.

``data/sim_golden.json`` pins a SHA-256 of :func:`report_fingerprint`
for every simulation below, and ``data/compile_golden.json`` pins a
SHA-256 of ``compile_fingerprint(kernel_ranks=[0, last])`` for every
compile below.  The fingerprints keep physical fields only: completion
times, TB and link stats, the dynamic completion order, traces, fault
stats, and every counter except the work counters in
``SimCounters.WORK_COUNTER_FIELDS`` (how the answer was computed, not
the answer).  A change to the simulator or the compiler that is meant
to be an optimization must leave every digest unchanged.  Regenerate the
fixtures (only when results are meant to change) with::

    PYTHONPATH=src python tests/test_determinism_golden.py

``tests/test_golden_oracles.py`` replays the same corpus through the
reference solvers of ``tests/oracles/`` and checks the same digests.
"""

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms import build_algorithm
from repro.baselines import MSCCLBackend, NCCLBackend
from repro.core import ResCCLBackend
from repro.core.compiler import ResCCLCompiler, compile_fingerprint
from repro.faults import run_with_faults
from repro.ir.task import Collective
from repro.lang import parse_program
from repro.runtime import MB, SimConfig, simulate
from repro.runtime.metrics import SimCounters
from repro.synth import TACCLSynthesizer
from repro.topology import Cluster

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
SIM_GOLDEN = DATA / "sim_golden.json"
COMPILE_GOLDEN = DATA / "compile_golden.json"
CORPUS = sorted((ROOT / "examples" / "algorithms").glob("*.rescclang"))

#: Built-in collectives simulated at 2x4 with traces recorded.
TRACED_BUILTINS = (
    "ring-allreduce",
    "ring-allgather",
    "mesh-allreduce",
    "hm-allreduce",
)
#: Built-in collectives compiled at 2x8.
COMPILED_BUILTINS = ("ring-allreduce", "mesh-allreduce", "hm-allreduce")


def cluster_for(program):
    gpus = program.header.gpus_per_node
    if program.nranks % gpus:
        return Cluster(nodes=1, gpus_per_node=program.nranks)
    return Cluster(nodes=program.nranks // gpus, gpus_per_node=gpus)


def report_fingerprint(report):
    """Everything physical about a run, with exact float identity.

    ``dataclasses.asdict`` recurses through TB stats, link stats, trace
    events, fault stats, and counters; the declared work counters
    (``SimCounters.WORK_COUNTER_FIELDS``) are masked out.
    """
    data = dataclasses.asdict(report)
    for field in SimCounters.WORK_COUNTER_FIELDS:
        data["counters"].pop(field)
    data["mode"] = report.mode.value
    return data


def _canonical(value):
    """JSON-ready form: dicts become key-sorted pairs, enums their value.

    Dict order is not part of a fingerprint (two runs that fill a dict in
    a different order are the same run); list order is.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        pairs = [[_canonical(k), _canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0]))
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=json.dumps)
    return value


def digest(fingerprint) -> str:
    """SHA-256 of a fingerprint; floats serialize by exact ``repr``."""
    text = json.dumps(_canonical(fingerprint), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_for(algo, nodes, gpus, megabytes):
    cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
    program = build_algorithm(algo, cluster)
    return ResCCLBackend(max_microbatches=4).plan(
        cluster, program, megabytes * MB
    )


def _corpus_plan(path):
    program = parse_program(path.read_text())
    cluster = cluster_for(program)
    return ResCCLBackend(max_microbatches=4).plan(cluster, program, 4 * MB)


def golden_sim_runs():
    """``name -> thunk`` returning the reports each fixture entry pins."""
    runs = {}
    for algo in TRACED_BUILTINS:
        runs[f"{algo}@2x4/traced"] = (
            lambda algo=algo: [simulate(plan_for(algo, 2, 4, 8), record_trace=True)]
        )

    def background():
        plan = plan_for("mesh-allreduce", 2, 8, 8)
        edge = next(iter(plan.cluster.edges))
        return [simulate(plan, background_traffic=[((edge,), 500.0)])]

    runs["mesh-allreduce@2x8/background"] = background

    def nccl_ring():
        cluster = Cluster(nodes=2, gpus_per_node=8)
        backend = NCCLBackend(max_microbatches=4)
        return [simulate(backend.plan(cluster, Collective.ALLREDUCE, 8 * MB))]

    def msccl_interpreter():
        cluster = Cluster(nodes=2, gpus_per_node=8)
        program = build_algorithm("hm-allreduce", cluster)
        backend = MSCCLBackend(max_microbatches=4)
        return [simulate(backend.plan(cluster, program, 8 * MB))]

    runs["nccl/ring-allreduce@2x8"] = nccl_ring
    runs["msccl/hm-allreduce@2x8/interpreter"] = msccl_interpreter
    for path in CORPUS:
        runs[f"examples/{path.name}"] = (
            lambda path=path: [simulate(_corpus_plan(path))]
        )

    def link_flap():
        outcome = run_with_faults(
            plan_for("ring-allreduce", 2, 4, 8),
            "link-flap",
            seed=1,
            recovery="fallback",
            record_trace=True,
        )
        return [outcome.report, outcome.baseline]

    runs["ring-allreduce@2x4/link-flap-fallback"] = link_flap
    return runs


def golden_compiles():
    """``name -> thunk`` returning the compile each fixture entry pins."""
    cluster = Cluster(nodes=2, gpus_per_node=8)
    compiles = {}
    for algo in COMPILED_BUILTINS:
        compiles[f"{algo}@2x8"] = lambda algo=algo: ResCCLCompiler().compile(
            build_algorithm(algo, cluster), cluster
        )
    compiles["taccl-allgather@2x8"] = lambda: ResCCLCompiler().compile(
        TACCLSynthesizer().synthesize(cluster, Collective.ALLGATHER), cluster
    )
    for path in CORPUS:

        def corpus(path=path):
            program = parse_program(path.read_text())
            return ResCCLCompiler().compile(program, cluster_for(program))

        compiles[f"examples/{path.name}"] = corpus
    return compiles


def sim_digest(name) -> str:
    reports = SIM_RUNS[name]()
    return digest([report_fingerprint(r) for r in reports])


def compile_digest(name) -> str:
    result = COMPILES[name]()
    last = result.cluster.world_size - 1
    return digest(compile_fingerprint(result, kernel_ranks=[0, last]))


SIM_RUNS = golden_sim_runs()
COMPILES = golden_compiles()
#: Absent fixtures leave the coverage tests failing.
SIM_DIGESTS = json.loads(SIM_GOLDEN.read_text()) if SIM_GOLDEN.exists() else {}
COMPILE_DIGESTS = (
    json.loads(COMPILE_GOLDEN.read_text()) if COMPILE_GOLDEN.exists() else {}
)


def test_sim_golden_covers_every_run():
    assert sorted(SIM_DIGESTS) == sorted(SIM_RUNS)


def test_compile_golden_covers_every_compile():
    assert sorted(COMPILE_DIGESTS) == sorted(COMPILES)


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_sim_matches_golden(name):
    assert sim_digest(name) == SIM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(COMPILES))
def test_compile_matches_golden(name):
    assert compile_digest(name) == COMPILE_DIGESTS[name]


def test_epsilon_zero_is_default():
    config = SimConfig()
    assert config.rate_rel_epsilon == 0.0
    assert config.collapse_microbatches is False


if __name__ == "__main__":
    sims = {name: sim_digest(name) for name in sorted(SIM_RUNS)}
    SIM_GOLDEN.write_text(json.dumps(sims, indent=2, sort_keys=True) + "\n")
    compiles = {name: compile_digest(name) for name in sorted(COMPILES)}
    COMPILE_GOLDEN.write_text(
        json.dumps(compiles, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {len(sims)} digests to {SIM_GOLDEN} and "
        f"{len(compiles)} to {COMPILE_GOLDEN}"
    )
