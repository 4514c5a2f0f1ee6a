"""Execution-tier benchmark: reference tree-walker vs register VM vs JIT.

Runs every NAS + Parboil workload through all three execution tiers on
identical inputs, checks output and dynamic-count equivalence as it goes
(vm↔jit bit-identically), and records seconds plus dynamic-instruction
throughput per workload and tier::

    PYTHONPATH=src python -m repro.experiments.bench_interp \
        --repeat 3 --output BENCH_interp.json

``--repeat`` matters for the jit tier: the first run pays compilation,
later runs hit the process-wide code cache, so best-of-N reports warm
steady-state (the tier a long-running session actually sees).

CI runs the smoke variant, which re-measures a representative subset and
fails when any workload's VM-over-reference speedup degrades more than
``--max-ratio`` (default 2x) against the committed baseline, or when the
jit tier's geomean over the VM drops below ``--min-jit-ratio`` (default
1.0: jit must never be slower than the VM it sits on). Comparing speedup
*ratios* — all tiers timed on the same machine in the same process —
keeps the gate meaningful on arbitrarily slow CI hardware::

    PYTHONPATH=src python -m repro.experiments.bench_interp --check \
        --repeat 3 --baseline BENCH_interp.json \
        --workloads BT CG IS LU SP UA histo sgemm stencil

Per-block profile identity (stronger than the total/opcode checks here) is
asserted by ``tests/test_vm.py`` and ``tests/test_jit.py`` on every
workload.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..runtime.runner import (
    compile_workload,
    outputs_identical,
    outputs_match,
    run_original,
)
from .suites import select_workloads
from .timing import best_of, geomean

TIERS = ("reference", "vm", "jit")


def _timed_run(compiled, workload, scale: int, engine: str, repeat: int):
    best, result = best_of(
        lambda: run_original(compiled, workload.entry,
                             workload.make_inputs(scale), engine=engine),
        repeat)
    return result, best


def run_benchmark(workload_names: list[str] | None = None, scale: int = 1,
                  repeat: int = 1) -> dict:
    """Measure all three tiers per workload, verifying equivalence."""
    rows: dict[str, dict] = {}
    for workload in select_workloads(workload_names):
        compiled = compile_workload(workload.name, workload.source,
                                    verify=False)
        vm_result, vm_s = _timed_run(compiled, workload, scale, "vm", repeat)
        jit_result, jit_s = _timed_run(compiled, workload, scale, "jit",
                                       repeat)
        ref_result, ref_s = _timed_run(compiled, workload, scale,
                                       "reference", repeat)
        if not outputs_match(ref_result, vm_result):
            raise AssertionError(f"{workload.name}: engine outputs diverge")
        if not outputs_identical(vm_result, jit_result):
            raise AssertionError(
                f"{workload.name}: jit outputs not bit-identical to vm")
        for other, tier in ((ref_result, "reference"), (jit_result, "jit")):
            if (other.total_instructions != vm_result.total_instructions
                    or other.opcode_counts != vm_result.opcode_counts):
                raise AssertionError(
                    f"{workload.name}: {tier} dynamic counts diverge "
                    f"from vm")
        dyn = vm_result.total_instructions
        rows[workload.name] = {
            "dynamic_instructions": dyn,
            "reference_seconds": round(ref_s, 4),
            "vm_seconds": round(vm_s, 4),
            "jit_seconds": round(jit_s, 4),
            "reference_minst_per_s": round(dyn / ref_s / 1e6, 3),
            "vm_minst_per_s": round(dyn / vm_s / 1e6, 3),
            "jit_minst_per_s": round(dyn / jit_s / 1e6, 3),
            "speedup": round(ref_s / vm_s, 2),
            "jit_speedup": round(ref_s / jit_s, 2),
            "jit_over_vm": round(vm_s / jit_s, 2),
        }
    result = {"workloads": rows}
    if rows:
        result["suite"] = {
            "geomean_speedup": round(
                geomean(r["speedup"] for r in rows.values()), 2),
            "geomean_jit_speedup": round(
                geomean(r["jit_speedup"] for r in rows.values()), 2),
            "geomean_jit_over_vm": round(
                geomean(r["jit_over_vm"] for r in rows.values()), 2),
            "reference_seconds": round(
                sum(r["reference_seconds"] for r in rows.values()), 4),
            "vm_seconds": round(
                sum(r["vm_seconds"] for r in rows.values()), 4),
            "jit_seconds": round(
                sum(r["jit_seconds"] for r in rows.values()), 4),
            "dynamic_instructions": sum(
                r["dynamic_instructions"] for r in rows.values()),
        }
    return result


def check_regression(baseline: dict, current: dict, max_ratio: float,
                     min_jit_ratio: float = 1.0) -> list[str]:
    """Failures: VM speedups that degraded beyond ``max_ratio`` against
    the baseline, or a jit tier slower than the VM overall."""
    failures = []
    for name, row in current["workloads"].items():
        base_row = baseline["workloads"].get(name)
        if base_row is None:
            continue
        base = base_row["speedup"]
        now = row["speedup"]
        if base > 0 and now < base / max_ratio:
            failures.append(
                f"{name}: vm speedup {now:.2f}x vs baseline {base:.2f}x "
                f"(> {max_ratio:.1f}x throughput regression)")
    rows = current["workloads"].values()
    if rows:
        jit_geomean = geomean(r["jit_over_vm"] for r in rows)
        if jit_geomean < min_jit_ratio:
            failures.append(
                f"jit geomean over vm {jit_geomean:.2f}x < "
                f"{min_jit_ratio:.2f}x on measured subset")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-interp",
        description="Benchmark the three execution tiers "
                    "(reference / vm / jit)")
    parser.add_argument("--output", default=None,
                        help="write full results JSON here")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these benchmarks (default: all)")
    parser.add_argument("--scale", type=int, default=1,
                        help="problem-size multiplier (default 1)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timing repetitions, best-of (default 1; "
                             "use >=2 so the jit tier is timed warm)")
    parser.add_argument("--check", action="store_true",
                        help="regression-check tier speedups against "
                             "--baseline")
    parser.add_argument("--baseline", default="BENCH_interp.json")
    parser.add_argument("--max-ratio", type=float, default=2.0)
    parser.add_argument("--min-jit-ratio", type=float, default=1.0,
                        help="fail --check when geomean(vm/jit seconds) "
                             "drops below this (default 1.0)")
    args = parser.parse_args(argv)

    result = run_benchmark(args.workloads, scale=args.scale,
                           repeat=args.repeat)

    for name, row in result["workloads"].items():
        print(f"{name:8s} ref={row['reference_seconds']:>8.3f}s "
              f"vm={row['vm_seconds']:>7.3f}s "
              f"jit={row['jit_seconds']:>7.3f}s "
              f"(vm {row['speedup']:.2f}x, jit {row['jit_speedup']:.2f}x, "
              f"jit/vm {row['jit_over_vm']:.2f}x, "
              f"{row['jit_minst_per_s']:.2f} Minst/s)")
    suite = result.get("suite")
    if suite:
        print(f"suite    ref={suite['reference_seconds']:.2f}s "
              f"vm={suite['vm_seconds']:.2f}s "
              f"jit={suite['jit_seconds']:.2f}s "
              f"(geomean vm {suite['geomean_speedup']:.2f}x, "
              f"jit {suite['geomean_jit_speedup']:.2f}x, "
              f"jit/vm {suite['geomean_jit_over_vm']:.2f}x)")

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
        failures = check_regression(baseline, result, args.max_ratio,
                                    args.min_jit_ratio)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"vm speedups within {args.max_ratio:.1f}x of baseline; "
              f"jit geomean over vm >= {args.min_jit_ratio:.1f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
