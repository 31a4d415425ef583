"""Profile baseline: offline pipeline cost and simulated completion time.

Runs the same collective through all three backends under the
observability layer and writes ``BENCH_profile.json`` at the repo root:
per-phase compile wall times (Parsing/Analysis/Scheduling/Lowering for
ResCCL, whole-plan wall time for the baselines) plus each backend's
simulated completion time and bandwidth.  CI and future sessions diff
this file to catch offline-pipeline cost regressions.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import once

from repro import MB
from repro.algorithms import hm_allreduce
from repro.baselines import MSCCLBackend, NCCLBackend
from repro.core import ResCCLBackend, ResCCLCompiler
from repro.ir.task import Collective
from repro.obs import observe
from repro.runtime.simulator import Simulator
from repro.topology import Cluster

OUT = Path(__file__).resolve().parent.parent / "BENCH_profile.json"

NODES, GPUS = 2, 4
BUFFER_BYTES = 64 * MB


def _profile_backends() -> dict:
    cluster = Cluster(nodes=NODES, gpus_per_node=GPUS)
    program = hm_allreduce(NODES, GPUS)
    out = {
        "cluster": f"{NODES}x{GPUS}",
        "algorithm": program.name,
        "buffer_mb": int(BUFFER_BYTES // MB),
        "backends": {},
    }
    backends = [
        NCCLBackend(max_microbatches=4),
        MSCCLBackend(max_microbatches=4),
        ResCCLBackend(max_microbatches=4),
    ]
    for backend in backends:
        with observe() as obs:
            if isinstance(backend, NCCLBackend):
                plan = backend.plan(cluster, Collective.ALLREDUCE, BUFFER_BYTES)
            else:
                plan = backend.plan(cluster, program, BUFFER_BYTES)
            report = Simulator(plan).run()  # never a report-tier hit
        (plan_span,) = [s for s in obs.tracer.roots if s.name == "plan"]
        out["backends"][backend.name] = {
            "plan_wall_us": plan_span.duration_us,
            "completion_time_us": report.completion_time_us,
            "algbw_gbps": report.algo_bandwidth_gbps,
            "tbs": report.tb_count(),
            "max_tbs_per_rank": report.max_tbs_per_rank(),
        }
    # ResCCL's compiler additionally reports its three serial phases
    # (it stops at the pipeline; lowering runs in plan()).
    compiled = ResCCLCompiler().compile(program, cluster)
    out["backends"]["ResCCL"]["phase_times_us"] = dict(
        compiled.phase_times_us
    )
    return out


def test_profile_baseline(once):
    result = once(_profile_backends)
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {OUT}")
    for name, entry in result["backends"].items():
        print(
            f"  {name:<7} plan {entry['plan_wall_us'] / 1e3:8.2f} ms  "
            f"sim {entry['completion_time_us'] / 1e3:8.2f} ms  "
            f"{entry['algbw_gbps']:6.1f} GB/s  {entry['tbs']} TBs"
        )

    assert set(result["backends"]) == {"NCCL", "MSCCL", "ResCCL"}
    for entry in result["backends"].values():
        assert entry["plan_wall_us"] > 0
        assert entry["completion_time_us"] > 0
    phases = result["backends"]["ResCCL"]["phase_times_us"]
    assert set(phases) == {"parsing", "analysis", "scheduling"}
    assert all(t >= 0 for t in phases.values())
    # The paper's resource story: ResCCL needs no more TBs per rank than
    # the channel/stage-heavy baselines.
    tbs = {k: v["max_tbs_per_rank"] for k, v in result["backends"].items()}
    assert tbs["ResCCL"] <= min(tbs["NCCL"], tbs["MSCCL"])
