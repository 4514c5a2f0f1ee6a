"""Solver-stats benchmark: seed-style dynamic solving vs compiled plans.

Runs idiom detection over the NAS + Parboil suite twice through the
:class:`~repro.idioms.oracle.PerIdiomDetector` oracle — once in the seed
configuration (dynamic conjunct ordering, no memoized building blocks,
unindexed generators) and once with the compiled per-idiom execution
plans — and records :class:`~repro.idl.solver.SolverStats` tick totals
plus wall clock per workload::

    PYTHONPATH=src python -m repro.experiments.bench_solver \
        --output BENCH_solver.json

CI runs the smoke variant, which re-measures the plan configuration only
and fails when any workload's step count regresses more than ``--max-ratio``
(default 2x) against the committed baseline::

    PYTHONPATH=src python -m repro.experiments.bench_solver --check \
        --baseline BENCH_solver.json --workloads CG IS histo sgemm stencil

The benchmark sanity-checks that both configurations agree on per-idiom
match counts as it goes; full solution-set equivalence is asserted by
``tests/test_plan_scheduler.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..idioms.oracle import PerIdiomDetector
from .suites import compile_suite
from .timing import timed


def _detect(detector: PerIdiomDetector, module) -> tuple:
    seconds, report = timed(lambda: detector.detect(module))
    return report, seconds


def run_benchmark(workload_names: list[str] | None = None,
                  legacy: bool = True) -> dict:
    """Measure per-workload solver stats; optionally skip the legacy pass."""
    # This benchmark tracks the *per-idiom* plan executor (detection
    # runs the cross-idiom forest; bench_detect covers it).
    plan_detector = PerIdiomDetector()
    legacy_detector = PerIdiomDetector.seed()
    rows: dict[str, dict] = {}
    for workload, module in compile_suite(workload_names):
        plan_report, plan_s = _detect(plan_detector, module)
        row = {
            "plan_ticks": plan_report.stats.ticks,
            "plan_seconds": round(plan_s, 4),
            "matches": plan_report.total(),
        }
        if legacy:
            legacy_report, legacy_s = _detect(legacy_detector, module)
            if legacy_report.by_idiom() != plan_report.by_idiom():
                raise AssertionError(
                    f"{workload.name}: plan and dynamic solving disagree: "
                    f"{plan_report.by_idiom()} vs {legacy_report.by_idiom()}")
            row["legacy_ticks"] = legacy_report.stats.ticks
            row["legacy_seconds"] = round(legacy_s, 4)
            row["reduction"] = round(
                legacy_report.stats.ticks / max(1, plan_report.stats.ticks),
                2)
        rows[workload.name] = row
    result = {"workloads": rows}
    plan_total = sum(r["plan_ticks"] for r in rows.values())
    summary = {"plan_ticks": plan_total}
    if legacy and rows:
        legacy_total = sum(r["legacy_ticks"] for r in rows.values())
        summary["legacy_ticks"] = legacy_total
        summary["reduction"] = round(legacy_total / max(1, plan_total), 2)
    result["suite"] = summary
    return result


def check_regression(baseline: dict, current: dict,
                     max_ratio: float) -> list[str]:
    """Workloads whose plan-mode step count regressed beyond ``max_ratio``."""
    failures = []
    for name, row in current["workloads"].items():
        base_row = baseline["workloads"].get(name)
        if base_row is None:
            continue
        base = base_row["plan_ticks"]
        now = row["plan_ticks"]
        if base > 0 and now > max_ratio * base:
            failures.append(
                f"{name}: plan ticks {now} vs baseline {base} "
                f"(> {max_ratio:.1f}x)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-solver",
        description="Benchmark dynamic vs plan-driven constraint solving")
    parser.add_argument("--output", default=None,
                        help="write full results JSON here")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these benchmarks (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="regression-check plan ticks against --baseline "
                             "instead of running the legacy pass")
    parser.add_argument("--baseline", default="BENCH_solver.json")
    parser.add_argument("--max-ratio", type=float, default=2.0)
    args = parser.parse_args(argv)

    result = run_benchmark(args.workloads, legacy=not args.check)

    for name, row in result["workloads"].items():
        if "legacy_ticks" in row:
            print(f"{name:8s} legacy={row['legacy_ticks']:>8d} "
                  f"plan={row['plan_ticks']:>8d} "
                  f"({row['reduction']:.2f}x, {row['legacy_seconds']:.2f}s "
                  f"-> {row['plan_seconds']:.2f}s)")
        else:
            print(f"{name:8s} plan={row['plan_ticks']:>8d} "
                  f"({row['plan_seconds']:.2f}s)")
    suite = result["suite"]
    if "reduction" in suite:
        print(f"suite    legacy={suite['legacy_ticks']} "
              f"plan={suite['plan_ticks']} ({suite['reduction']:.2f}x)")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            print(f"baseline {args.baseline!r} not found — generate it "
                  f"with --output first", file=sys.stderr)
            return 2
        failures = check_regression(baseline, result, args.max_ratio)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"step counts within {args.max_ratio:.1f}x of baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
