"""Small statistics helpers shared by the runner and the steadiness report."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be steady."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q``-th percentile.

    The percentile is taken as the sample at (0-based) rank
    ``ceil(q / 100 * n) - 1`` (nearest rank), so the samples beyond it are
    those of higher rank.
    """
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile; refuses a percentile with fewer
    than ``min_beyond`` samples beyond it."""
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {min_beyond}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance check
    computes them (``statistics.quantiles(n=4)``)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / median if median else math.inf
    return median, q1, q3, rel


def aliased_pairs(runs: List[Dict[str, float]]) -> List[Tuple[str, str]]:
    """Metric pairs whose values are equal in every run."""
    if not runs:
        return []
    names = sorted(set.intersection(*(set(r) for r in runs)))
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if all(r[a] == r[b] for r in runs):
                pairs.append((a, b))
    return pairs

