"""Detection wall-clock gates: two same-machine ratios over the suite.

Both gates time all 21 NAS + Parboil workloads in one process, so each
ratio compares two timings taken on the same machine::

    PYTHONPATH=src python -m repro.experiments.gates

* **detect** — the plan forest (:class:`~repro.idioms.IdiomDetector`,
  what every user path runs) must take at most 1.05x the per-idiom plan
  executor (the :class:`~repro.idioms.oracle.PerIdiomDetector` oracle).
  Each round times every workload with both detectors, the order
  alternating between rounds; a side's time is the sum over workloads of
  its best round. The two must find identical match sets, or the ratio
  would compare different work.
* **cache** — a fully warm suite (every function served from an
  :class:`~repro.cache.ArtifactStore`) must take at most 1.0x a cold
  one. The warm runs must be all hits and fingerprint-identical to the
  cold ones.

The module takes no options, reads no baseline and writes no file. It
prints one line per gate and exits non-zero naming every failure. The
invariants behind the gates (exact solver ticks, match sets, warm ==
cold, per-function invalidation) are tier-1 tests:
``tests/test_search_effort.py`` and ``tests/test_cache.py``.
"""

from __future__ import annotations

import sys
import tempfile

from ..cache import ArtifactStore
from ..idioms import DetectionSession, IdiomDetector, report_fingerprint
from ..idioms.oracle import PerIdiomDetector
from .suites import compile_suite
from .timing import best_of

#: Forest seconds over oracle seconds.
DETECT_MAX_RATIO = 1.05
#: Fully warm seconds over cold seconds.
CACHE_MAX_RATIO = 1.0
#: Timing rounds per gate; each side keeps its best round per workload.
ROUNDS = 7


def _best_sums(sides: dict, modules) -> dict:
    """Suite seconds per side: per workload, the best of ``ROUNDS``
    runs, with the sides' order alternating between rounds."""
    names = list(sides)
    best = {name: [float("inf")] * len(modules) for name in names}
    for round_no in range(ROUNDS):
        order = names if round_no % 2 == 0 else names[::-1]
        for i, (_, module) in enumerate(modules):
            for name in order:
                seconds, _ = best_of(lambda: sides[name](module), 1)
                best[name][i] = min(best[name][i], seconds)
    return {name: sum(times) for name, times in best.items()}


def _ratio_failure(gate: str, num: str, den: str, seconds: dict,
                   bound: float) -> list[str]:
    ratio = seconds[num] / max(seconds[den], 1e-12)
    print(f"{gate}: {num} {seconds[num]:.4f}s / {den} {seconds[den]:.4f}s "
          f"= {ratio:.3f}x (bound {bound:.2f}x)")
    if ratio > bound:
        return [f"{gate}: {num} is {ratio:.3f}x {den} (> {bound:.2f}x)"]
    return []


def detect_gate(modules) -> list[str]:
    """Failures of the forest-vs-oracle gate over ``modules``
    (``[(workload, module)]``)."""
    forest = IdiomDetector().warmup()
    oracle = PerIdiomDetector().warmup()
    failures = [f"detect: {workload.name}: forest and oracle match sets "
                f"diverge"
                for workload, module in modules
                if report_fingerprint(forest.detect(module))
                != report_fingerprint(oracle.detect(module))]
    seconds = _best_sums({"forest": forest.detect, "oracle": oracle.detect},
                         modules)
    return failures + _ratio_failure("detect", "forest", "oracle", seconds,
                                     DETECT_MAX_RATIO)


def cache_gate(modules) -> list[str]:
    """Failures of the warm-vs-cold gate over ``modules``."""
    cold = IdiomDetector().warmup()
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as root:
        warm = IdiomDetector(cache=ArtifactStore(root)).warmup()
        for workload, module in modules:
            warm.detect(module)  # populate
            session = DetectionSession(warm)
            report = session.detect(module)
            if session.cache_misses:
                failures.append(f"cache: {workload.name}: warm run "
                                f"re-solved {session.cache_misses} "
                                f"functions")
            if report_fingerprint(report, by_identity=False) != \
                    report_fingerprint(cold.detect(module),
                                       by_identity=False):
                failures.append(f"cache: {workload.name}: cold and warm "
                                f"match sets diverge")
        seconds = _best_sums(
            {"warm": lambda module: DetectionSession(warm).detect(module),
             "cold": cold.detect}, modules)
    return failures + _ratio_failure("cache", "warm", "cold", seconds,
                                     CACHE_MAX_RATIO)


GATES = (detect_gate, cache_gate)


def main() -> int:
    modules = compile_suite(None)
    failures = [failure for gate in GATES for failure in gate(modules)]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
