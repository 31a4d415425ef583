"""The exact/fast fidelity contract end to end.

``exact`` is the bit-reproducible default; ``fast``
(``SimConfig.with_fidelity("fast")``) buys wall clock with two
documented approximations — rate-change hysteresis and temporal
micro-batch collapse — whose completion-time error the scale benchmark
bounds.  These tests pin the plumbing around that contract:

* ``SimConfig`` rejects malformed numeric fields on construction;
* the ``fast`` preset is approximate but *bounded*, and does strictly
  less rate-solver work;
* temporal collapse is refused — visibly, via
  ``counters.agg_collapse_disabled`` — whenever sibling timing is
  observable (background traffic, fault injection, checkpoint/resume),
  so recovery machinery never sees an aggregated trajectory;
* the CLI (``--sim-fidelity``) and the service protocol
  (``sim_fidelity``) both reach the same preset.
"""

import dataclasses

import pytest

from repro.algorithms import build_algorithm, ring_allreduce
from repro.cli import main
from repro.core import ResCCLBackend
from repro.faults import run_with_faults
from repro.obs.metrics import collecting
from repro.runtime import MB, SimConfig, simulate
from repro.service.protocol import (
    RequestError,
    execute,
    parse_request,
    request_fingerprint,
)
from repro.topology import Cluster


@pytest.fixture(scope="module")
def plan():
    cluster = Cluster(nodes=2, gpus_per_node=4)
    program = build_algorithm("mesh-allreduce", cluster)
    # 32 MB over the 8-chunk mesh plans 4 micro-batches — collapse has
    # real work to do (8 MB would plan a single micro-batch, making the
    # fast preset a near no-op).
    return ResCCLBackend(max_microbatches=4).plan(cluster, program, 32 * MB)


def fast_plan(plan):
    return dataclasses.replace(plan, config=plan.config.with_fidelity("fast"))


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("gamma", -0.1),
            ("fifo_depth", 0),
            ("fifo_depth", 2.5),
            ("interp_cost_us", -1.0),
            ("kernel_load_us", -1.0),
            ("watchdog_window_us", -1.0),
            ("rate_rel_epsilon", -1e-9),
            ("fault_trace_cap", -1),
        ],
    )
    def test_bad_field_rejected_on_construction(self, field, bad):
        with pytest.raises(ValueError):
            SimConfig(**{field: bad})

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SimConfig(), gamma=-1.0)

    def test_fidelity_presets(self):
        config = SimConfig()
        fast = config.with_fidelity("fast")
        assert fast.rate_rel_epsilon > 0
        assert fast.collapse_microbatches is True
        exact = fast.with_fidelity("exact")
        assert exact.rate_rel_epsilon == 0.0
        assert exact.collapse_microbatches is False
        with pytest.raises(ValueError, match="unknown fidelity preset"):
            config.with_fidelity("turbo")


class TestFastFidelity:
    def test_bounded_error_and_less_work(self, plan):
        exact = simulate(plan)
        fast = simulate(fast_plan(plan))
        rel = abs(
            fast.completion_time_us - exact.completion_time_us
        ) / exact.completion_time_us
        assert rel <= 0.15
        assert fast.counters.rate_updates < exact.counters.rate_updates
        assert fast.counters.agg_runs_collapsed > 0
        assert fast.counters.agg_instances_expanded > 0
        # The fan-out reconstructs the full expanded report shape.
        assert len(fast.tb_stats) == len(exact.tb_stats)
        assert fast.total_bytes == exact.total_bytes

    def test_collapse_refused_under_background_traffic(self, plan):
        edge = next(iter(plan.cluster.edges))
        report = simulate(
            fast_plan(plan), background_traffic=[((edge,), 500.0)]
        )
        assert report.counters.agg_collapse_disabled == 1
        assert report.counters.agg_runs_collapsed == 0


class TestCollapseNoop:
    @pytest.fixture()
    def single_mb_plan(self):
        # 8 MB over the 8-chunk mesh plans exactly one micro-batch, so
        # temporal collapse is permitted but has nothing to merge.
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm("mesh-allreduce", cluster)
        return ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)

    def test_single_microbatch_folds_nothing(self, single_mb_plan):
        report = simulate(fast_plan(single_mb_plan))
        assert report.counters.agg_runs_collapsed == 0
        assert report.counters.agg_collapse_disabled == 0
        # No collapse clause: the summary itself says nothing was folded.
        assert "collapse" not in report.counters.summary()
        assert report.completion_time_us == simulate(
            single_mb_plan
        ).completion_time_us

    def test_noop_publishes_no_collapsed_runs(self, single_mb_plan):
        with collecting() as registry:
            simulate(fast_plan(single_mb_plan))
        assert registry.counter("sim_agg_runs_collapsed_total").value() == 0

    def test_real_collapse_is_not_a_noop(self, plan):
        report = simulate(fast_plan(plan))
        assert report.counters.agg_runs_collapsed > 0
        assert "collapse:" in report.counters.summary()

    def test_exact_run_never_noops(self, single_mb_plan):
        report = simulate(single_mb_plan)
        assert report.counters.agg_runs_collapsed == 0


class TestCollapseDisabledUnderFaults:
    def test_fault_run_marks_collapse_disabled(self, plan):
        outcome = run_with_faults(
            fast_plan(plan), "link-flap", seed=1, recovery="fallback"
        )
        assert outcome.report.counters.agg_collapse_disabled == 1
        assert outcome.report.counters.agg_runs_collapsed == 0
        assert outcome.baseline.counters.agg_collapse_disabled == 1
        # The run still recovers and completes under the fast preset.
        assert outcome.report.completion_time_us > 0
        assert outcome.report.fault_stats.unrecovered == 0

    def test_checkpoint_replan_resume_with_fast_fidelity(self):
        """Replan-and-resume (checkpoint capture + residual stitching)
        operates on the expanded trajectory even when fast fidelity
        requested collapse — every micro-batch instance is individually
        accounted across the resume boundary."""
        cluster = Cluster(nodes=2, gpus_per_node=4)
        plan = ResCCLBackend(max_microbatches=4).plan(
            cluster, ring_allreduce(8), 16 * MB
        )
        outcome = run_with_faults(
            fast_plan(plan), "link-kill", seed=1, recovery="replan"
        )
        report = outcome.report
        assert report.counters.agg_collapse_disabled == 1
        assert report.fault_stats.replans >= 1
        assert report.fault_stats.unrecovered == 0
        # Same physical work as the exact faulted run (the two presets
        # may time it differently, but nothing is lost or duplicated).
        exact = run_with_faults(plan, "link-kill", seed=1, recovery="replan")
        assert sorted(report.completion_order) == sorted(
            exact.report.completion_order
        )


class TestCliFidelity:
    def test_run_accepts_fast(self, capsys):
        assert main([
            "run", "ring-allreduce", "--nodes", "2", "--gpus", "4",
            "--buffer-mb", "8", "--mbs", "4", "--sim-fidelity", "fast",
        ]) == 0
        assert "GB/s algbw" in capsys.readouterr().out

    def test_profile_surfaces_queue_and_agg_counters(self, capsys):
        # 32 MB over 8 ring chunks plans 4 micro-batches, so the fast
        # preset's collapse line appears in the counter digest.
        assert main([
            "profile", "ring-allreduce", "--nodes", "2", "--gpus", "4",
            "--buffer-mb", "32", "--mbs", "4", "--sim-fidelity", "fast",
        ]) == 0
        out = capsys.readouterr().out
        assert "queue depth <=" in out
        assert "collapse:" in out

    def test_rejects_unknown_preset(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "ring-allreduce", "--sim-fidelity", "turbo",
            ])


class TestServiceFidelity:
    def test_parse_and_execute(self):
        request = parse_request(
            "simulate",
            {
                "algorithm": "ring-allreduce",
                "nodes": 2,
                "gpus": 4,
                "buffer_mb": 8,
                "mbs": 4,
                "sim_fidelity": "fast",
            },
        )
        assert request.sim_fidelity == "fast"
        result = execute(request.to_payload())
        assert result["sim_fidelity"] == "fast"
        assert result["completion_time_us"] > 0

    def test_default_is_exact(self):
        request = parse_request(
            "simulate", {"algorithm": "ring-allreduce", "nodes": 2, "gpus": 4}
        )
        assert request.sim_fidelity == "exact"

    def test_bad_fidelity_rejected(self):
        with pytest.raises(RequestError, match="sim_fidelity"):
            parse_request(
                "simulate",
                {"algorithm": "ring-allreduce", "sim_fidelity": "turbo"},
            )

    def test_fidelity_splits_coalescing_key(self):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        base = {"algorithm": "ring-allreduce", "nodes": 2, "gpus": 4}
        exact = parse_request("simulate", dict(base))
        fast = parse_request("simulate", dict(base, sim_fidelity="fast"))
        assert request_fingerprint(exact, cluster) != request_fingerprint(
            fast, cluster
        )
