"""Pure helpers of the layer ledger: percentiles, geomeans, span self
time and the ``--compare`` verdict rule.

Nothing here imports :mod:`repro`, so the unit tests in ``bench/tests``
exercise these rules without building a cluster.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q < 1``).

    Returns ``None`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the chosen rank, so a p95 needs at least 200 samples and a
    median at least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))  # 1-based nearest rank
    if rank < 1 or len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` of the highest percentile with exactly
    :data:`MIN_TAIL_SAMPLES` samples beyond it, or ``None`` when there
    are too few samples for any."""
    ordered = sorted(values)
    rank = len(ordered) - MIN_TAIL_SAMPLES  # 1-based
    if rank < 1:
        return None
    return rank / len(ordered), ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs a non-empty list of positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(samples: Mapping[str, Sequence[float]]) -> float:
    """Geomean over items of each item's median sample."""
    return geomean(statistics.median(v) for v in samples.values() if v)


# ----------------------------------------------------------------------
# Span trees (the dict shape of ``repro.obs.spans.Span.to_dict``)
# ----------------------------------------------------------------------


def self_time_us(span: dict) -> float:
    """Duration of ``span`` not covered by its children.

    Children are clipped to the parent and their overlaps merged, so
    threads or clock skew never make self time negative.
    """
    start = span["start_us"]
    end = start + span["duration_us"]
    covered = 0.0
    cursor = start
    for child in sorted(span.get("children", ()), key=lambda c: c["start_us"]):
        lo = max(child["start_us"], cursor)
        hi = min(child["start_us"] + child["duration_us"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["duration_us"] - covered


def flatten(roots: Iterable[dict]):
    """Yield ``(span, attrs, self_us)`` for every span of a forest.

    ``attrs`` merges the attributes of the span's ancestors with its
    own, the nearest winning, so a ``scale`` set on a ``bench.*`` span
    reaches every program span nested under it.
    """
    stack = [(root, {}) for root in reversed(list(roots))]
    while stack:
        span, inherited = stack.pop()
        attrs = {**inherited, **span.get("attrs", {})}
        yield span, attrs, self_time_us(span)
        for child in reversed(span.get("children", ())):
            stack.append((child, attrs))


def walk(roots: Iterable[dict]):
    """Every span of a forest, parents before children."""
    for span, _, _ in flatten(roots):
        yield span


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median.

    The distance between the first and third quartile
    (``statistics.quantiles(n=4)``) with four or more runs, the full
    range with two or three, and 0 for a single run.
    """
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else math.inf
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(
    before: Sequence[float],
    after: Sequence[float],
    bound: float,
    better: str,
) -> Tuple[str, float]:
    """Classify the runs ``after`` against the runs ``before``.

    Returns ``(verdict, change)``; ``change`` is the signed share by
    which the median of ``after`` is *worse* than that of ``before``
    (negative is better).  It is ``regressed`` when worse by more than
    ``bound``, ``improved`` when better by more than ``bound``, and
    ``unchanged`` in between — except that when either side's spread
    exceeds ``bound`` it is ``unresolved``, unless every run of one side
    beats every run of the other.  Such a win settles the direction, and
    the medians then decide as for quiet sides, alike for either winner.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    new = statistics.median(after)
    change = sign * (new - base) / abs(base) if base else 0.0
    # "Badness" of each run: higher is worse whichever way ``better`` points.
    bad_before = [sign * v for v in before]
    bad_after = [sign * v for v in after]
    separated = max(bad_after) < min(bad_before) or max(bad_before) < min(bad_after)
    if (spread(before) > bound or spread(after) > bound) and not separated:
        return "unresolved", change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "unchanged", change
