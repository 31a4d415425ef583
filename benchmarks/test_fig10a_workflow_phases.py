"""Figure 10(a): offline workflow phase times vs cluster scale.

The paper measures the four serial compiler phases — Parsing, Analysis,
Scheduling, Lowering — up to 1,024 host-emulated GPUs (~11 minutes,
once, offline).  This measures the *actual* wall-clock of this
implementation at 16-256 ranks; growth trends extrapolate.  Lowering is
TB allocation plus kernel generation for a one-micro-batch call, timed
beside the compile, which stops at the pipeline.
"""

from conftest import once

from repro.experiments import fig10


def test_fig10a_workflow_phases(once):
    result = once(fig10.run_phases)
    print("\n" + result.render())

    results = result.data
    totals = [sum(phases.values()) for _, _, phases in results]
    # Cost grows with scale...
    assert totals[-1] > totals[0]
    # ...but remains a once-off cost measured in seconds at 256 GPUs
    # (vs multi-hour training runs).
    assert totals[-1] < 600e6  # < 10 minutes
    # Each phase reports a positive measured time at the largest scale.
    assert all(t > 0 for t in results[-1][2].values())
