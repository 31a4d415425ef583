"""The plan cache's report tier: each keyed plan is simulated once.

Backends stamp every plan they build with a provenance key
(``ExecutionPlan.cache_key``); ``simulate()`` answers a repeat of a
keyed, fault-free, untraced run from a compact snapshot of the first.
These tests pin that a hit is indistinguishable from a run, that the
key covers every input of a plan, and that every bypass reaches the
simulator.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.algorithms import build_algorithm
from repro.baselines import MSCCLBackend, NCCLBackend
from repro.core import ResCCLBackend
from repro.core import plancache
from repro.core.plancache import PlanCache, get_cache
from repro.faults import FaultInjector, FaultPlan, RetryBackoffPolicy
from repro.ir.task import Collective
from repro.lang.builder import AlgoProgram
from repro.obs import collecting, observe
from repro.runtime import MB, ExecMode, ExecutionPlan, SimConfig, Simulator, simulate
from repro.runtime import simulator as simulator_module
from repro.runtime.plan import Invocation, Side
from repro.topology import Cluster
from tests.test_determinism_golden import (
    SIM_DIGESTS,
    SIM_RUNS,
    plan_for,
    report_fingerprint,
    sim_digest,
)

#: Golden entries whose runs the tier must never answer.
NEVER_CACHED = ("/traced", "/background", "/link-flap")


@pytest.fixture(scope="module")
def cluster():
    return Cluster(nodes=2, gpus_per_node=4)


@pytest.fixture(scope="module")
def program(cluster):
    return build_algorithm("hm-allreduce", cluster)


def _plans(cluster, program, nbytes=8 * MB):
    """One plan per backend for the same call."""
    return {
        "resccl": ResCCLBackend(max_microbatches=4).plan(cluster, program, nbytes),
        "nccl": NCCLBackend(max_microbatches=4).plan(
            cluster, Collective.ALLREDUCE, nbytes
        ),
        "msccl": MSCCLBackend(max_microbatches=4).plan(cluster, program, nbytes),
    }


@pytest.fixture
def runs(monkeypatch):
    """Count the simulator runs (``Simulator.run`` calls)."""
    calls = []
    original = Simulator.run

    def counting(self):
        calls.append(self.plan.name)
        return original(self)

    monkeypatch.setattr(Simulator, "run", counting)
    return calls


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", sorted(SIM_RUNS))
    def test_second_run_has_the_golden_digest(self, name):
        stats = get_cache().stats
        assert sim_digest(name) == SIM_DIGESTS[name]
        assert stats.report_hits == 0
        first_misses = stats.report_misses
        assert sim_digest(name) == SIM_DIGESTS[name]
        if any(tag in name for tag in NEVER_CACHED):
            assert stats.report_hits == 0
            assert stats.report_misses == 0
        else:
            assert first_misses > 0
            assert stats.report_hits == first_misses
            assert stats.report_misses == first_misses


class TestHitIsARun:
    def test_hit_fingerprint_equals_uncached_run(self, cluster, program):
        for plan in _plans(cluster, program).values():
            assert plan.cache_key
            simulate(plan)
            hit = simulate(plan)
            assert report_fingerprint(hit) == report_fingerprint(
                Simulator(plan).run()
            )
        assert get_cache().stats.report_hits == 3

    def test_mutating_a_report_does_not_change_the_next_hit(self, cluster, program):
        for plan in _plans(cluster, program).values():
            expected = dataclasses.asdict(simulate(plan))
            report = simulate(plan)
            report.tb_stats[0].busy = -1.0
            report.tb_stats.pop()
            next(iter(report.link_stats.values())).bytes_moved = -1.0
            report.link_stats.clear()
            report.completion_order.reverse()
            report.completion_order.append((-1, -1))
            report.counters.events_popped = -1
            assert dataclasses.asdict(simulate(plan)) == expected

    def test_hit_publishes_the_series_of_a_run(self, cluster, program):
        plan = _plans(cluster, program)["nccl"]
        with observe() as miss:
            simulate(plan)
        with observe() as hit:
            simulate(plan)

        def series(registry):
            return {
                name: registry.to_json()[name]["samples"]
                for name in registry.names()
                if name.startswith(("sim_", "net_"))
                and name != "sim_report_cache_hits_total"
            }

        assert series(hit.registry) == series(miss.registry)
        assert "sim_report_cache_hits_total" not in miss.registry.names()
        assert hit.registry.counter("sim_report_cache_hits_total").value() == 1
        (miss_span,) = miss.tracer.roots
        (hit_span,) = hit.tracer.roots
        assert (miss_span.name, hit_span.name) == ("simulate", "simulate")
        assert miss_span.attrs["cached"] == "false"
        assert hit_span.attrs["cached"] == "true"
        assert hit_span.counters == miss_span.counters

    def test_summary_shows_the_tier(self, cluster, program):
        plan = _plans(cluster, program)["resccl"]
        simulate(plan)
        simulate(plan)
        simulate(plan)
        assert "report tier: 2 hit(s), 1 miss(es)" in get_cache().stats.summary()

    def test_lru_bound_and_clear(self, cluster, program, monkeypatch):
        cache = PlanCache(capacity=2)
        monkeypatch.setattr(plancache, "_default_cache", cache)
        plans = list(_plans(cluster, program).values())
        for plan in plans:
            simulate(plan)
        assert len(cache._reports) == 2
        simulate(plans[0])  # evicted first
        assert cache.stats.report_hits == 0
        simulate(plans[0])
        assert cache.stats.report_hits == 1
        cache.clear()
        assert not cache._reports and not cache._validated
        assert cache.stats.report_hits == 0


class TestBypasses:
    @pytest.fixture
    def plan(self):
        return plan_for("ring-allreduce", 2, 4, 8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            lambda plan: {"injector": FaultInjector(FaultPlan())},
            lambda plan: {"recovery": RetryBackoffPolicy()},
            lambda plan: {
                "background_traffic": [((next(iter(plan.cluster.edges)),), 500.0)]
            },
            lambda plan: {"record_trace": True},
        ],
        ids=["injector", "recovery", "background", "record_trace"],
    )
    def test_run_options_always_simulate(self, plan, kwargs, runs):
        simulate(plan)
        assert runs == [plan.name]
        for _ in range(2):
            simulate(plan, **kwargs(plan))
        assert len(runs) == 3
        assert get_cache().stats.report_hits == 0

    def test_replaced_and_hand_built_plans_never_hit(self, plan, runs):
        replaced = dataclasses.replace(plan)
        fast = plan.with_fidelity("fast")
        hand_built = ExecutionPlan(
            name=plan.name,
            cluster=plan.cluster,
            program=plan.program,
            dag=plan.dag,
            n_microbatches=plan.n_microbatches,
            chunk_bytes=plan.chunk_bytes,
            tb_programs=plan.tb_programs,
        )
        for unkeyed in (replaced, fast, hand_built):
            assert unkeyed.cache_key == ""
            simulate(unkeyed)
            simulate(unkeyed)
        assert len(runs) == 6
        stats = get_cache().stats
        assert stats.report_hits == stats.report_misses == 0

    def test_deep_copy_edited_in_place_is_simulated(self, plan, runs):
        simulate(plan)
        clone = copy.deepcopy(plan)
        assert plan.cache_key and clone.cache_key == ""
        clone.config.fifo_depth = 1
        edited = simulate(clone)
        assert len(runs) == 2
        assert get_cache().stats.report_hits == 0
        assert report_fingerprint(edited) == report_fingerprint(
            Simulator(clone).run()
        )

    def test_disabled_cache_always_simulates(self, plan, runs, monkeypatch):
        monkeypatch.setattr(plancache, "_default_cache", None)
        plancache.configure(enabled=False)
        simulate(plan)
        simulate(plan)
        assert len(runs) == 2
        stats = get_cache().stats
        assert stats.report_hits == stats.report_misses == 0

    def test_deadlocked_run_is_not_stored(self, plan, runs, monkeypatch):
        def stuck(self):
            raise simulator_module.SimulationDeadlock("stuck")

        monkeypatch.setattr(Simulator, "_event_loop", stuck)
        for _ in range(2):
            with pytest.raises(simulator_module.SimulationDeadlock):
                simulate(plan)
        assert len(runs) == 2
        assert not get_cache()._reports


class TestKey:
    def test_equal_calls_share_a_key_and_a_plan(self, cluster, program):
        first = _plans(cluster, program)
        get_cache().clear()  # rebuild the ResCCL lowering from scratch
        second = _plans(cluster, program)
        keys = set()
        for name, plan in first.items():
            again = second[name]
            assert plan.cache_key == again.cache_key
            assert plan.tb_programs == again.tb_programs
            assert plan.tb_programs is not again.tb_programs
            assert plan.chunk_bytes == again.chunk_bytes
            assert plan.n_microbatches == again.n_microbatches
            keys.add(plan.cache_key)
        assert len(keys) == 3

    @pytest.mark.parametrize(
        "backend_class, knobs",
        [
            (ResCCLBackend, {"scheduler": "rr"}),
            (ResCCLBackend, {"nwarps": 8}),
            (ResCCLBackend, {"mode": ExecMode.INTERPRETER}),
            (ResCCLBackend, {"max_microbatches": 2}),
            (ResCCLBackend, {"config": SimConfig(fifo_depth=3)}),
            (ResCCLBackend, {"target_chunk_kb": 256}),
            (ResCCLBackend, {"tb_allowance": 1}),
            (NCCLBackend, {"nchannels": 2}),
            (NCCLBackend, {"nwarps": 8}),
            (NCCLBackend, {"algorithm": "tree"}),
            (NCCLBackend, {"max_microbatches": 2}),
            (NCCLBackend, {"config": SimConfig(fifo_depth=2)}),
            (MSCCLBackend, {"instances": 2}),
            (MSCCLBackend, {"nwarps": 4}),
            (MSCCLBackend, {"max_microbatches": 2}),
            (MSCCLBackend, {"config": SimConfig(fifo_depth=2)}),
        ],
        ids=lambda value: getattr(value, "name", None) or "-".join(value),
    )
    def test_backend_knobs_change_the_key(self, cluster, program, backend_class, knobs):
        # 32 MB plans four micro-batches of 1 MB chunks under the default
        # knobs, so each ResCCL knob changes what the plan is built from.
        def key(backend):
            if isinstance(backend, NCCLBackend):
                return backend.plan(cluster, Collective.ALLREDUCE, 32 * MB).cache_key
            return backend.plan(cluster, program, 32 * MB).cache_key

        assert key(backend_class(**knobs)) != key(backend_class())

    def test_nccl_collective_changes_the_key(self, cluster):
        backend = NCCLBackend()
        assert backend.plan(cluster, Collective.ALLREDUCE, 8 * MB).cache_key != (
            backend.plan(cluster, Collective.ALLGATHER, 8 * MB).cache_key
        )

    def test_msccl_stage_starts_change_the_key(self, cluster, program):
        flat = copy.deepcopy(program)
        flat.stage_starts = [0]
        assert flat.to_source() == program.to_source()
        assert program.stage_starts != flat.stage_starts
        backend = MSCCLBackend()
        staged = backend.plan(cluster, program, 8 * MB)
        unstaged = backend.plan(cluster, flat, 8 * MB)
        assert staged.cache_key != unstaged.cache_key
        assert staged.tb_programs != unstaged.tb_programs

    def test_buffer_and_degraded_cluster_change_the_key(self, cluster, program):
        edge = next(iter(cluster.edges))
        degraded = cluster.degraded([edge], 0.5)
        base = _plans(cluster, program)
        bigger = _plans(cluster, program, nbytes=16 * MB)
        slower = _plans(degraded, program)
        for name, plan in base.items():
            assert len({
                plan.cache_key, bigger[name].cache_key, slower[name].cache_key
            }) == 3, name


def _nccl(cluster, nbytes=32 * MB, **knobs):
    return NCCLBackend(**knobs).plan(cluster, Collective.ALLREDUCE, nbytes)


def _msccl(cluster, program, nbytes=32 * MB, **knobs):
    return MSCCLBackend(**knobs).plan(cluster, program, nbytes)


def _degraded(cluster):
    return cluster.degraded([next(iter(cluster.edges))], 0.5)


def _unstaged(program):
    flat = copy.deepcopy(program)
    flat.stage_starts = [0]
    return flat


class TestBaselinesCompileOnce:
    """NCCL and MSCCL build a call shape's structure (program, DAG, TB
    groups) once and its TB programs once per micro-batch count."""

    def test_equal_calls_share_dag_and_tb_programs(self, cluster, program):
        for make in (
            lambda: _nccl(cluster),
            lambda: _msccl(cluster, build_algorithm("hm-allreduce", cluster)),
        ):
            first, second = make(), make()
            assert first is not second
            assert first.dag is second.dag
            assert first.tb_programs is second.tb_programs
            assert first.cache_key == second.cache_key

    def test_buffer_sizes_with_one_microbatch_count_share_tb_programs(
        self, cluster, program
    ):
        for make in (
            lambda nbytes: _nccl(cluster, nbytes),
            lambda nbytes: _msccl(cluster, program, nbytes),
        ):
            small, large = make(8 * MB), make(9 * MB)
            assert small.n_microbatches == large.n_microbatches
            assert small.chunk_bytes < large.chunk_bytes
            assert small.cache_key != large.cache_key
            assert small.tb_programs is large.tb_programs

    def test_new_microbatch_count_shares_only_the_structure(self, cluster, program):
        for make in (
            lambda nbytes: _nccl(cluster, nbytes),
            lambda nbytes: _msccl(cluster, program, nbytes),
        ):
            one, more = make(8 * MB), make(128 * MB)
            assert one.n_microbatches < more.n_microbatches
            assert one.dag is more.dag
            assert one.tb_programs is not more.tb_programs

    @pytest.mark.parametrize(
        "variant, new_structure",
        [
            (lambda c, p: _nccl(c, nchannels=2), True),
            (lambda c, p: _nccl(c, algorithm="tree"), True),
            (lambda c, p: _nccl(c, nwarps=8), False),
            (lambda c, p: _nccl(_degraded(c)), True),
            (lambda c, p: _msccl(c, p, instances=2), False),
            (lambda c, p: _msccl(c, p, nwarps=4), False),
            (lambda c, p: _msccl(c, _unstaged(p)), True),
            (lambda c, p: _msccl(_degraded(c), p), True),
        ],
        ids=[
            "nccl-nchannels", "nccl-algorithm", "nccl-nwarps", "nccl-degraded",
            "msccl-instances", "msccl-nwarps", "msccl-stage_starts",
            "msccl-degraded",
        ],
    )
    def test_shape_knobs_get_their_own_entries(
        self, cluster, program, variant, new_structure
    ):
        # A degraded fabric lowers to equal programs, but never to the
        # healthy fabric's objects.
        other = variant(cluster, program)
        if other.name.startswith("NCCL"):
            base = _nccl(cluster)
        else:
            base = _msccl(cluster, program)
        assert other.tb_programs is not base.tb_programs
        assert (other.dag is not base.dag) == new_structure

    def test_disabled_cache_builds_every_call(self, cluster, program, monkeypatch):
        calls = []
        for backend in (NCCLBackend, MSCCLBackend):
            for name in ("_build", "_lower"):
                original = getattr(backend, name)

                def spy(self, *args, _original=original, _name=name):
                    calls.append((type(self).name, _name))
                    return _original(self, *args)

                monkeypatch.setattr(backend, name, spy)
        monkeypatch.setattr(plancache, "_default_cache", None)
        plancache.configure(enabled=False)
        plans = [_nccl(cluster), _nccl(cluster)]
        plans += [_msccl(cluster, program), _msccl(cluster, program)]
        assert plans[0].dag is not plans[1].dag
        assert plans[2].tb_programs is not plans[3].tb_programs
        assert plans[0].tb_programs == plans[1].tb_programs
        assert sorted(calls) == sorted(
            [(name, step) for name in ("NCCL", "MSCCL")
             for step in ("_build", "_lower")] * 2
        )

    def test_msccl_renders_the_source_once_per_plan(
        self, cluster, program, monkeypatch
    ):
        rendered = []
        original = AlgoProgram.to_source

        def counting(self):
            rendered.append(self.name)
            return original(self)

        monkeypatch.setattr(AlgoProgram, "to_source", counting)
        for _ in range(3):
            _msccl(cluster, program)
        assert rendered == [program.name] * 3

    @pytest.mark.parametrize(
        "name", ["nccl/ring-allreduce@2x8", "msccl/hm-allreduce@2x8/interpreter"]
    )
    def test_reused_plans_keep_their_golden_digest(self, name):
        cache = get_cache()
        assert sim_digest(name) == SIM_DIGESTS[name]
        cache._reports.clear()
        hits = cache.stats.lowered_hits
        assert sim_digest(name) == SIM_DIGESTS[name]
        assert cache.stats.lowered_hits == hits + 2
        assert cache.stats.report_hits == 0


class TestCopies:
    def test_invocation_is_compact_and_round_trips(self):
        inv = Invocation(task_id=7, side=Side.RECV, mb=3)
        assert not hasattr(inv, "__dict__")
        for clone in (pickle.loads(pickle.dumps(inv)), copy.deepcopy(inv)):
            assert clone == inv
            assert hash(clone) == hash(inv)
            assert clone.side is Side.RECV
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone.mb = 0

    def test_nccl_plan_round_trips(self, cluster):
        plan = _nccl(cluster, 32 * MB)
        pickled = pickle.loads(pickle.dumps(plan))
        deep = copy.deepcopy(plan)
        for clone in (pickled, deep):
            assert clone.tb_programs == plan.tb_programs
            assert clone.tb_programs is not plan.tb_programs
            assert [t.__dict__ for t in clone.dag.tasks] == [
                t.__dict__ for t in plan.dag.tasks
            ]
            assert clone.cluster.fingerprint() == plan.cluster.fingerprint()
            for field in ("name", "n_microbatches", "chunk_bytes", "mode",
                          "config", "chunks_per_microbatch"):
                assert getattr(clone, field) == getattr(plan, field)
        assert pickled.cache_key == plan.cache_key
        assert deep.cache_key == ""


class TestValidateOnce:
    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        original = ExecutionPlan.validate

        def counting(self):
            calls.append(self.name)
            original(self)

        monkeypatch.setattr(ExecutionPlan, "validate", counting)
        return calls

    def test_keyed_plan_validates_once(self, validations):
        plan = plan_for("ring-allreduce", 2, 4, 8)
        simulate(plan)
        simulate(plan)
        Simulator(plan).run()
        Simulator(plan, injector=FaultInjector(FaultPlan())).run()
        assert validations == [plan.name]

    def test_unkeyed_plan_validates_every_call(self, validations):
        plan = dataclasses.replace(plan_for("ring-allreduce", 2, 4, 8))
        simulate(plan)
        simulate(plan)
        Simulator(plan).run()
        assert validations == [plan.name] * 3

    def test_disabled_cache_validates_every_call(self, validations, monkeypatch):
        monkeypatch.setattr(plancache, "_default_cache", None)
        plancache.configure(enabled=False)
        plan = plan_for("ring-allreduce", 2, 4, 8)
        simulate(plan)
        simulate(plan)
        assert validations == [plan.name] * 2


def test_armed_run_publishes_no_hit_counter(cluster, program):
    with collecting() as registry:
        simulate(_plans(cluster, program)["msccl"])
    assert "sim_report_cache_hits_total" not in registry.names()


def test_service_result_digest_is_the_same_with_the_tier_on_and_off(monkeypatch):
    from repro.service.protocol import execute, parse_request, result_digest

    payload = parse_request(
        "simulate",
        {"algorithm": "ring-allreduce", "nodes": 1, "gpus": 4,
         "buffer_mb": 8.0, "mbs": 2},
    ).to_payload()
    on = [result_digest(execute(payload)) for _ in range(2)]
    assert get_cache().stats.report_hits == 1
    monkeypatch.setattr(plancache, "_default_cache", None)
    plancache.configure(enabled=False)
    off = result_digest(execute(payload))
    assert get_cache().stats.report_hits == 0
    assert on == [off, off]
