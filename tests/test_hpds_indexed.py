"""Golden equivalence: the indexed cold-compile path is bit-identical.

The indexed implementations of dependency analysis (fused
``build_dag``), HPDS scheduling, and state-based TB allocation are
*optimizations*, not approximations: for every input, the production
compile must produce the exact same global pipeline, the exact same TB
assignments, and the exact same rendered kernels as the literal
reference implementations in ``tests/oracles/compile.py``.
:func:`repro.core.compiler.compile_fingerprint` captures all of that.

Coverage: every built-in algorithm over single- and multi-node
clusters, the DSL example corpus, both synthesizer stand-ins, the
round-robin ablation scheduler, and a degraded-cluster replan through
``build_resume_plan``.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.algorithms import available_algorithms, build_algorithm
from repro.core import ResCCLBackend
from repro.core.compiler import ResCCLCompiler, compile_fingerprint
from repro.core.kernelgen import lower_to_programs
from repro.faults import CollectiveCheckpoint, build_resume_plan
from repro.ir.task import Collective
from repro.lang import parse_program
from repro.runtime import MB, Simulator, simulate
from repro.synth import TACCLSynthesizer, TECCLSynthesizer
from repro.topology import Cluster
from tests.oracles import compile as oracle

CORPUS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "algorithms").glob(
        "*.rescclang"
    )
)


def cluster_for(program):
    gpus = program.header.gpus_per_node
    if program.nranks % gpus:
        return Cluster(nodes=1, gpus_per_node=program.nranks)
    return Cluster(nodes=program.nranks // gpus, gpus_per_node=gpus)


def assert_identical_compile(program, cluster, scheduler="hpds"):
    """Compile both ways (no cache) and compare full fingerprints."""
    indexed = ResCCLCompiler(scheduler=scheduler).compile(program, cluster)
    reference = oracle.compile_program(program, cluster, scheduler=scheduler)
    ranks = list(range(cluster.world_size))
    assert compile_fingerprint(indexed, kernel_ranks=ranks) == (
        compile_fingerprint(
            reference,
            kernel_ranks=ranks,
            assignments=oracle.allocate_tbs(reference.dag, reference.pipeline),
        )
    )
    return indexed


class TestBuiltins:
    @pytest.mark.parametrize("algo", available_algorithms())
    def test_multi_node(self, algo):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        assert_identical_compile(build_algorithm(algo, cluster), cluster)

    @pytest.mark.parametrize(
        "algo", ["ring-allreduce", "mesh-allreduce", "tree-allreduce"]
    )
    def test_single_node(self, algo):
        cluster = Cluster(nodes=1, gpus_per_node=8)
        assert_identical_compile(build_algorithm(algo, cluster), cluster)

    def test_wider_fabric(self):
        cluster = Cluster(nodes=4, gpus_per_node=4)
        assert_identical_compile(
            build_algorithm("hm-allreduce", cluster), cluster
        )

    def test_rr_ablation_scheduler(self):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        assert_identical_compile(
            build_algorithm("ring-allreduce", cluster),
            cluster,
            scheduler="rr",
        )


class TestDslCorpus:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_corpus_program(self, path):
        program = parse_program(path.read_text())
        assert_identical_compile(program, cluster_for(program))


class TestSynthesized:
    def test_taccl_allgather(self):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = TACCLSynthesizer().synthesize(cluster, Collective.ALLGATHER)
        assert_identical_compile(program, cluster)

    def test_teccl_allreduce(self):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = TECCLSynthesizer().synthesize(cluster, Collective.ALLREDUCE)
        assert_identical_compile(program, cluster)


class TestDegradedReplan:
    def test_resume_plan_identical(self):
        """A degraded-cluster residual compile is bit-identical too.

        The replan path schedules, allocates and lowers a DAG built
        straight from residual transfers on the degraded cluster — no
        DSL source, relay detours included — so it
        exercises fused analysis + indexed scheduling + indexed TB
        allocation on inputs no full compile produces.  The reference
        stages rebuild the resume plan's DAG and TB programs from its
        residual transfers.
        """
        from repro.faults import FaultInjector, FaultPlan, make_policy
        from repro.faults.recovery import ReplanRequested

        cluster = Cluster(nodes=2, gpus_per_node=4)
        backend = ResCCLBackend(max_microbatches=4)
        plan = backend.plan(
            cluster, build_algorithm("ring-allreduce", cluster), 16 * MB
        )
        clean = simulate(plan)
        fault_plan = FaultPlan().kill(
            "nv:out:0", at_us=0.5 * clean.completion_time_us
        )
        sim = Simulator(
            plan,
            injector=FaultInjector(fault_plan),
            recovery=make_policy("replan"),
        )
        with pytest.raises(ReplanRequested) as info:
            sim.run()
        request = info.value
        ckpt = CollectiveCheckpoint.capture(request.sim, request.dead_edges)

        resume = build_resume_plan(plan, ckpt, request.dead_edges)
        resume_plan = resume.plan
        dag = oracle.build_dag(
            resume_plan.program.transfers, resume_plan.cluster
        )
        assert dag.preds == resume_plan.dag.preds
        assert dag.succs == resume_plan.dag.succs
        assignments = oracle.allocate_tbs(
            dag, oracle.hpds_schedule(dag), pipelining_allowance=1
        )
        tb_programs = lower_to_programs(assignments, 1, nwarps=16)
        assert [dataclasses.asdict(tb) for tb in resume_plan.tb_programs] == [
            dataclasses.asdict(tb) for tb in tb_programs
        ]
