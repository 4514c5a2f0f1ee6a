"""Shared measurement helpers for the experiment benchmarks.

Every ``bench_*`` module and the gates share these, so the measurement
discipline stays uniform:

* :func:`best_of` — best (minimum) wall clock over N runs, which is
  robust to scheduler noise on shared CI runners; the paired result is
  the *last* run's, so callers can both time and use the output.
* :func:`geomean` — the geometric mean used for suite-level speedups.

Latency percentiles live in :mod:`repro.service.latency`, next to the
daemon's stats endpoint that reports them.
"""

from __future__ import annotations

import math
import time

#: Default timing repetitions for :func:`best_of`.
DEFAULT_REPEATS = 3


def best_of(fn, repeats: int = DEFAULT_REPEATS):
    """(best_seconds, last_result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def geomean(values) -> float:
    """Geometric mean of positive values (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
