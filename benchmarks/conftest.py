"""Shared machinery for the evaluation benchmarks.

Every benchmark regenerates one table or figure of the paper by calling
its experiment runner from :mod:`repro.experiments`, printing the same
rows or series the paper reports, and asserting the *shape* of the
result — who wins, by roughly what factor, where crossovers fall.
Absolute numbers are not expected to match the authors' testbed
(see DESIGN.md).

Each experiment runs exactly once inside ``benchmark.pedantic`` so
pytest-benchmark records the wall-clock of the full experiment.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The reference implementations the speedup benchmarks time as their
# baselines live in ``tests/oracles/``; make the repo root importable.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
