"""The plan autotuner: tables, search, tuned serving (repro.tuning).

Layered like the subsystem: the persistent table's quarantine discipline
mirrors the plan-cache tests; the tuner's branch-and-bound search is
checked against the exhaustive oracle on tiny cells; tuned serving is
checked at the backend, the protocol executor, and the live daemon
(including the fingerprint-mismatch startup rejection).
"""

import dataclasses
import json

import pytest

from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.obs.metrics import collecting
from repro.runtime import MB, simulate
from repro.tuning.table import (
    TUNING_FORMAT_VERSION,
    TunedConfig,
    TuningTable,
    cell_key,
    configure_tuning,
    get_table,
    make_entry,
    spec_collective,
)
from repro.tuning.tuner import Cell, candidate_space, default_config, tune
from tests.oracles.tuning import exhaustive_tune

#: A cell small enough to tune in well under a second.
SMALL = Cell(collective="allgather", buffer_mb=8, nodes=1, gpus=4)

#: Grids kept tiny so a full tune() is a handful of simulations.
FAST_GRID = dict(
    schedulers=("hpds",),
    mbs_grid=(2, 4),
    chunk_kb_grid=(1024,),
    tb_allowance_grid=(None,),
)


def tune_small(path, **overrides):
    kwargs = dict(FAST_GRID, jobs=1)
    kwargs.update(overrides)
    return tune([SMALL], path, **kwargs)


@pytest.fixture
def table_path(tmp_path):
    return tmp_path / "table.json"


# ----------------------------------------------------------------------
# Table: keys, round trip, quarantine
# ----------------------------------------------------------------------


class TestCellKey:
    def test_case_insensitive_collective(self):
        # Collective.ALLGATHER.value is "Allgather"; the CLI says
        # "allgather" — both must address the same cell.
        assert cell_key("Allgather", 1 << 20, "t") == cell_key(
            "allgather", 1 << 20, "t"
        )

    def test_covers_size_and_topology(self):
        base = cell_key("allreduce", 1 << 20, "t")
        assert cell_key("allreduce", 2 << 20, "t") != base
        assert cell_key("allreduce", 1 << 20, "u") != base

    def test_spec_collective(self):
        assert spec_collective("hm-allreduce") == "allreduce"
        assert spec_collective("taccl:allgather") == "allgather"
        assert spec_collective("/tmp/foo.rescclang") is None
        assert spec_collective("") is None


def small_entry(tuned_us=50.0, default_us=100.0):
    cluster = SMALL.cluster()
    return make_entry(
        SMALL.collective,
        SMALL.buffer_bytes,
        cluster,
        TunedConfig(algorithm="mesh-allgather", max_microbatches=2),
        tuned_us=tuned_us,
        default_us=default_us,
        default_algorithm="ring-allgather",
    )


class TestTableRoundTrip:
    def test_save_load_lookup(self, table_path):
        table = TuningTable(table_path)
        table.put(small_entry())
        table.save()
        loaded = TuningTable.load(table_path)
        assert len(loaded) == 1
        config = loaded.lookup(
            "allgather", SMALL.buffer_bytes, SMALL.cluster()
        )
        assert config == TunedConfig(
            algorithm="mesh-allgather", max_microbatches=2
        )
        assert loaded.stats.hits == 1

    def test_miss_on_other_cell(self, table_path):
        table = TuningTable(table_path)
        table.put(small_entry())
        assert table.lookup("allreduce", SMALL.buffer_bytes,
                            SMALL.cluster()) is None
        assert table.stats.misses == 1

    def test_lookup_metrics_published(self, table_path):
        table = TuningTable(table_path)
        table.put(small_entry())
        with collecting() as registry:
            table.lookup("allgather", SMALL.buffer_bytes, SMALL.cluster())
            table.lookup("allreduce", SMALL.buffer_bytes, SMALL.cluster())
        assert registry.counter("tuning_table_hits_total").value() == 1
        assert registry.counter("tuning_table_misses_total").value() == 1

    def test_lookup_key_counts_nothing(self, table_path):
        table = TuningTable(table_path)
        table.put(small_entry())
        key = table.lookup_key("allgather", SMALL.buffer_bytes,
                               SMALL.cluster())
        assert key in table.entries
        assert table.stats.hits == 0 and table.stats.misses == 0

    def test_missing_file_is_empty_not_quarantined(self, tmp_path):
        table = TuningTable.load(tmp_path / "nope.json")
        assert len(table) == 0
        assert table.stats.corrupt == 0
        assert not (tmp_path / "nope.json.corrupt").exists()


class TestQuarantine:
    """Damage degrades to silent misses, mirroring tests/test_plancache.py."""

    def test_garbage_file_is_quarantined(self, table_path):
        table_path.write_text("not json{", encoding="utf-8")
        with collecting() as registry:
            table = TuningTable.load(table_path)
        assert len(table) == 0
        assert table.stats.corrupt == 1
        assert not table_path.exists()
        assert table_path.with_suffix(".json.corrupt").exists()
        assert registry.counter("tuning_table_corrupt_total").value() == 1

    def test_version_mismatch_is_quarantined(self, table_path):
        table = TuningTable(table_path)
        table.put(small_entry())
        table.save()
        payload = json.loads(table_path.read_text(encoding="utf-8"))
        payload["version"] = TUNING_FORMAT_VERSION + 1
        table_path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = TuningTable.load(table_path)
        assert len(loaded) == 0
        assert loaded.stats.corrupt == 1
        assert table_path.with_suffix(".json.corrupt").exists()

    def test_tampered_entry_is_dropped(self, table_path):
        table = TuningTable(table_path)
        table.put(small_entry())
        table.save()
        payload = json.loads(table_path.read_text(encoding="utf-8"))
        (key, entry), = payload["entries"].items()
        entry["buffer_bytes"] += 1  # key self-check no longer reproduces
        table_path.write_text(json.dumps(payload), encoding="utf-8")
        with collecting() as registry:
            loaded = TuningTable.load(table_path)
        assert len(loaded) == 0
        assert loaded.stats.dropped_entries == 1
        # The file itself is fine — only the entry is dropped.
        assert table_path.exists()
        assert registry.counter("tuning_table_corrupt_total").value() == 1

    def test_mismatched_entries_detect_fingerprint_drift(self, table_path):
        table = TuningTable(table_path)
        good = small_entry()
        table.put(good)
        assert table.mismatched_entries() == []
        # An entry recorded under a topology fingerprint its own cluster
        # shape no longer reproduces (e.g. tuned under different
        # hardware constants) — self-consistent key, stale topology.
        bad = dict(good, topology="0" * 64)
        bad["key"] = cell_key(bad["collective"], bad["buffer_bytes"],
                              bad["topology"])
        table.put(bad)
        assert table.mismatched_entries() == [bad]


# ----------------------------------------------------------------------
# Tuner: search, resume, determinism
# ----------------------------------------------------------------------


class TestCandidateSpace:
    def test_default_is_first_and_pruned_space_is_deduped(self):
        candidates = candidate_space(SMALL, **FAST_GRID)
        assert candidates[0] == default_config(SMALL.collective)
        # mbs 2 vs 4 both cap an 8 MB / 4-chunk plan at 2 micro-batches
        # for some algorithms; whatever survives must be unique shapes.
        assert len(candidates) == len(set(candidates))

    def test_multi_node_adds_hierarchical_arm(self):
        cell = Cell(collective="allreduce", buffer_mb=8, nodes=2, gpus=4)
        names = {c.algorithm for c in candidate_space(cell, **FAST_GRID)}
        assert "hm-allreduce" in names
        single = Cell(collective="allreduce", buffer_mb=8, nodes=1, gpus=4)
        names = {c.algorithm for c in candidate_space(single, **FAST_GRID)}
        assert "hm-allreduce" not in names  # needs >= 2 nodes


class TestTune:
    def test_winner_never_loses_to_default(self, table_path):
        report = tune_small(table_path)
        (result,) = report.results
        assert result.status == "scored"
        assert result.entry["tuned_us"] <= result.entry["default_us"]
        assert 0 < result.exact_scored <= result.candidates
        assert 0 < result.bound_us <= result.entry["tuned_us"]
        assert result.search_cost_s > 0

    def test_resume_skips_tuned_cells_and_keeps_bytes(self, table_path):
        tune_small(table_path)
        before = table_path.read_bytes()
        report = tune_small(table_path)
        assert report.results[0].status == "skipped"
        assert table_path.read_bytes() == before

    def test_force_rescores(self, table_path):
        tune_small(table_path)
        report = tune_small(table_path, force=True)
        assert report.results[0].status == "scored"

    def test_tables_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        tune_small(a)
        tune_small(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "cell, grid, jobs",
        [
            (SMALL, FAST_GRID, 1),
            (SMALL, {}, 2),
            (Cell(collective="allreduce", buffer_mb=8, nodes=2, gpus=4), {}, 1),
        ],
        ids=["small-grid", "full-grid-waves-of-2", "2x4-allreduce"],
    )
    def test_branch_and_bound_table_matches_exhaustive_oracle(
        self, tmp_path, cell, grid, jobs
    ):
        tuned, reference = tmp_path / "t.json", tmp_path / "e.json"
        report = tune([cell], tuned, jobs=jobs, **grid)
        exhaustive_tune([cell], reference, jobs=jobs, **grid)
        assert tuned.read_bytes() == reference.read_bytes()
        (result,) = report.results
        assert result.status == "scored"
        assert result.bound_us <= result.entry["tuned_us"]

    def test_bound_skips_candidates_that_cannot_win(self, tmp_path):
        cell = Cell(collective="allreduce", buffer_mb=8, nodes=2, gpus=4)
        (result,) = tune([cell], tmp_path / "t.json", jobs=1).results
        assert result.exact_scored < result.candidates

    def test_tuner_metrics_published(self, table_path):
        with collecting() as registry:
            tune_small(table_path)
        assert registry.counter("tuning_cells_scored_total").value() == 1
        assert registry.counter(
            "tuning_candidates_exact_total").value() > 0


# ----------------------------------------------------------------------
# Tuned serving: backend + module-level install
# ----------------------------------------------------------------------


class TestBackendServing:
    def test_plan_substitutes_tuned_winner(self, table_path):
        tune_small(table_path)
        configure_tuning(table_path)
        cluster = SMALL.cluster()
        program = build_algorithm("ring-allgather", cluster)
        with collecting() as registry:
            plan = ResCCLBackend().plan(cluster, program, SMALL.buffer_mb * MB)
        winner = get_table().entries
        (entry,) = winner.values()
        assert plan.name == f"ResCCL/{entry['config']['algorithm']}"
        assert registry.counter("tuning_table_hits_total").value() == 1
        # The tuned plan really is the faster one the tuner measured.
        assert simulate(plan).completion_time_us == entry["tuned_us"]

    def test_use_tuning_false_ignores_table(self, table_path):
        tune_small(table_path)
        configure_tuning(table_path)
        cluster = SMALL.cluster()
        program = build_algorithm("ring-allgather", cluster)
        plan = ResCCLBackend(use_tuning=False).plan(
            cluster, program, SMALL.buffer_mb * MB
        )
        assert plan.name == "ResCCL/ring-allgather"

    def test_no_table_is_bit_identical_to_untuned(self):
        # configure_tuning(None) is the ambient state (conftest); the
        # tuned-aware plan path must reproduce the untuned plan exactly.
        cluster = SMALL.cluster()
        program = build_algorithm("ring-allgather", cluster)
        plan = ResCCLBackend().plan(cluster, program, SMALL.buffer_mb * MB)
        untuned = ResCCLBackend(use_tuning=False).plan(
            cluster, program, SMALL.buffer_mb * MB
        )
        assert plan.name == untuned.name
        assert plan.dag is untuned.dag  # same cached CompileResult
        assert plan.program is untuned.program
        assert plan.n_microbatches == untuned.n_microbatches
        assert plan.chunk_bytes == untuned.chunk_bytes
        assert plan.tb_programs == untuned.tb_programs
        assert simulate(plan).completion_time_us == \
            simulate(untuned).completion_time_us

    def test_untuned_cells_pass_through(self, table_path):
        tune_small(table_path)
        configure_tuning(table_path)
        cluster = SMALL.cluster()
        program = build_algorithm("ring-reducescatter", cluster)
        plan = ResCCLBackend().plan(cluster, program, SMALL.buffer_mb * MB)
        assert plan.name == "ResCCL/ring-reducescatter"
        assert get_table().stats.misses == 1


# ----------------------------------------------------------------------
# Tuned serving: the service layer
# ----------------------------------------------------------------------


class TestServiceExecute:
    def test_compile_op_warms_the_tuned_plan(self, table_path):
        from repro.service.protocol import execute

        tune_small(table_path)
        configure_tuning(table_path)
        result = execute({
            "op": "compile", "algorithm": "ring-allgather",
            "nodes": SMALL.nodes, "gpus": SMALL.gpus,
            "buffer_mb": SMALL.buffer_mb, "mbs": 8,
        })
        (entry,) = get_table().entries.values()
        assert result["tuned"] is True
        assert result["algorithm"] == entry["config"]["algorithm"]

    def test_simulate_op_reports_tuned_plan(self, table_path):
        from repro.service.protocol import execute

        tune_small(table_path)
        configure_tuning(table_path)
        result = execute({
            "op": "simulate", "algorithm": "ring-allgather",
            "nodes": SMALL.nodes, "gpus": SMALL.gpus,
            "buffer_mb": SMALL.buffer_mb, "mbs": 8,
        })
        (entry,) = get_table().entries.values()
        assert result["tuned"] is True
        assert result["plan"] == f"ResCCL/{entry['config']['algorithm']}"
        assert result["completion_time_us"] == entry["tuned_us"]

    def test_degraded_requests_are_never_tuned(self, table_path):
        from repro.service.protocol import execute

        tune_small(table_path)
        configure_tuning(table_path)
        result = execute({
            "op": "simulate", "algorithm": "ring-allgather",
            "nodes": SMALL.nodes, "gpus": SMALL.gpus,
            "buffer_mb": SMALL.buffer_mb, "mbs": 8, "degraded": True,
        })
        assert result["tuned"] is False

    def test_tuned_requests_coalesce_under_cell_key(self, table_path):
        from repro.service.protocol import (
            parse_request,
            request_fingerprint,
        )

        tune_small(table_path)
        table = TuningTable.load(table_path)
        cluster = SMALL.cluster()
        a = parse_request("simulate", {
            "algorithm": "ring-allgather", "nodes": SMALL.nodes,
            "gpus": SMALL.gpus, "buffer_mb": SMALL.buffer_mb, "mbs": 4,
        })
        b = parse_request("simulate", {
            "algorithm": "mesh-allgather", "nodes": SMALL.nodes,
            "gpus": SMALL.gpus, "buffer_mb": SMALL.buffer_mb, "mbs": 16,
        })
        # Different plan source + knobs, same tuned cell: one compile.
        assert request_fingerprint(a, cluster, tuning_table=table) == \
            request_fingerprint(b, cluster, tuning_table=table)
        assert request_fingerprint(a, cluster) != \
            request_fingerprint(b, cluster)
        # Ops still shape the key.
        c = dataclasses.replace(a, op="profile")
        assert request_fingerprint(a, cluster, tuning_table=table) != \
            request_fingerprint(c, cluster, tuning_table=table)


@pytest.mark.slow
class TestServiceDaemon:
    def test_mismatched_table_fails_startup_with_exit_2(
        self, tmp_path, table_path
    ):
        from repro.service import ServiceConfig, ServiceDaemon
        from repro.tuning.table import TuningTableError

        table = TuningTable(table_path)
        bad = small_entry()
        bad["topology"] = "0" * 64
        bad["key"] = cell_key(bad["collective"], bad["buffer_bytes"],
                              bad["topology"])
        table.put(bad)
        table.save()
        config = ServiceConfig(port=0, workers=1,
                               tuning_table=str(table_path))
        with pytest.raises(TuningTableError):
            ServiceDaemon(config).start()
        assert ServiceDaemon(config).run_forever() == 2

    def test_missing_table_fails_startup_with_exit_2(self, tmp_path):
        from repro.service import ServiceConfig, ServiceDaemon

        config = ServiceConfig(
            port=0, workers=1, tuning_table=str(tmp_path / "nope.json")
        )
        assert ServiceDaemon(config).run_forever() == 2

    def test_daemon_serves_tuned_plans_and_prewarms_cells(self, table_path):
        from repro.service import ServiceClient, ServiceConfig, ServiceDaemon

        tune_small(table_path)
        (entry,) = TuningTable.load(table_path).entries.values()
        daemon = ServiceDaemon(ServiceConfig(
            port=0, workers=1, tuning_table=str(table_path),
            default_deadline_ms=60_000.0,
        ))
        daemon.start()
        try:
            # Boot prewarm compiled every tuned cell before readiness.
            assert daemon.lifecycle.prewarmed == 1
            with ServiceClient("127.0.0.1", daemon.port) as client:
                reply = client.simulate(
                    "ring-allgather", nodes=SMALL.nodes, gpus=SMALL.gpus,
                    buffer_mb=SMALL.buffer_mb,
                )
                assert reply["ok"]
                result = reply["result"]
                assert result["tuned"] is True
                assert result["plan"] == \
                    f"ResCCL/{entry['config']['algorithm']}"
            assert "tuning_table_hits_total" in daemon.registry.to_json()
        finally:
            daemon.stop()
