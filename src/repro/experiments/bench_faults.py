"""Fault-injection benchmark: reliability under deterministic faults,
and the cost of having the seams compiled in.

Drives the :mod:`repro.reliability` layer end to end over the NAS +
Parboil suite::

    PYTHONPATH=src python -m repro.experiments.bench_faults \
        --output BENCH_faults.json

Three stanzas:

* **matrix** — one detection run per meaningful (seam, kind) pair from
  :mod:`repro.reliability.faults` (store read/write faults against the
  artifact cache, torn writes that must read back as corrupt misses,
  solve exceptions retried in a thread pool, and solve hangs). Every run
  must complete with no unhandled
  exception, produce a match set bit-identical to the fault-free
  baseline, and record the handled fault in the session outcomes.
* **execution** — a guarded transformed workload executed while every
  dispatch of one backend call site fails, and a JIT-tier run where
  every specialization attempt fails. Both must fall back (original
  loop / register VM) and reproduce the fault-free outputs.
* **overhead** — full-suite detection with no plan installed vs an
  installed-but-empty plan, measuring what the seams cost when armed.
  The acceptance gate: active-empty within ``--max-ratio`` (default
  1.03) of inactive.

CI runs the smoke variant and fails on any divergence or an overhead
ratio above the gate::

    PYTHONPATH=src python -m repro.experiments.bench_faults --check
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from ..idioms import DetectionSession, IdiomDetector, report_fingerprint
from ..reliability import faults
from ..runtime.runner import (
    compile_workload,
    outputs_match,
    run_original,
    run_transformed,
)
from ..transform.replace import Transformer
from ..backends.api import ApiRuntime
from ..workloads import all_workloads
from .suites import compile_suite
from .timing import best_of

#: Timing repetitions for the overhead stanza; best-of, as everywhere in
#: the benchmarks (--check raises it).
REPEATS = 5

#: The (seam, kind) matrix. ``cache`` scenarios run against a fresh
#: artifact store (the store seams never fire otherwise); ``warm``
#: populates it first so read faults hit real entries.
SCENARIOS = (
    {"name": "store.write/exception", "cache": True,
     "specs": [{"site": "store.write", "kind": "exception", "at": [0]}]},
    {"name": "store.write/torn", "cache": True,
     "specs": [{"site": "store.write", "kind": "torn", "at": [0]}]},
    {"name": "store.read/exception", "cache": True, "warm": True,
     "specs": [{"site": "store.read", "kind": "exception", "at": [0]}]},
    {"name": "worker.solve/exception", "workers": 2,
     "specs": [{"site": "worker.solve", "kind": "exception", "at": [0],
                "epochs": [0]}]},
    {"name": "worker.solve/hang",
     "specs": [{"site": "worker.solve", "kind": "hang", "at": [0],
                "seconds": 0.05}]},
)


def _fingerprints(modules, detector) -> dict:
    out = {}
    for name, module in modules:
        report = DetectionSession(detector).detect(module)
        out[name] = report_fingerprint(report, by_identity=False)
    return out


def _run_scenario(scenario: dict, modules, baseline: dict) -> dict:
    """One faulted detection sweep; raises on any identity violation."""
    if scenario.get("cache"):
        cache_dir = tempfile.mkdtemp(prefix="repro-faults-")
        detector = IdiomDetector(cache=cache_dir)
        if scenario.get("warm"):
            for name, module in modules:
                DetectionSession(detector).detect(module)
    else:
        detector = IdiomDetector()
    plan = faults.install_plan({"specs": scenario["specs"]})
    counts: dict[str, int] = {}
    notes = 0
    try:
        for name, module in modules:
            session = DetectionSession(
                detector, workers=scenario.get("workers", 1))
            report = session.detect(module)
            fp = report_fingerprint(report, by_identity=False)
            if fp != baseline[name]:
                raise AssertionError(
                    f"{scenario['name']}: match set for {name} diverges "
                    f"from the fault-free baseline")
            for status, n in session.outcomes.counts().items():
                counts[status] = counts.get(status, 0) + n
            notes += len(session.outcomes.session_faults)
        injected = len(plan.fired)
    finally:
        faults.install_plan(None)
    if injected == 0:
        raise AssertionError(f"{scenario['name']}: plan never fired")
    if scenario.get("cache"):
        # Whatever the fault did to the store, a subsequent warm pass
        # over it must still be bit-identical (torn entries read back as
        # corrupt misses and are re-solved, never served).
        for name, module in modules:
            report = DetectionSession(detector).detect(module)
            if report_fingerprint(report, by_identity=False) != \
                    baseline[name]:
                raise AssertionError(
                    f"{scenario['name']}: post-fault warm pass diverges "
                    f"on {name}")
    row = {"injected": injected, "fault_notes": notes,
           "outcomes": counts, "identical": True}
    if scenario.get("cache"):
        row["store"] = detector.cache.store.stats.as_dict()
    return row


def _guarded_workload():
    """The first suite workload whose transform yields a guarded site,
    compiled and transformed, plus its fault-free original run."""
    for workload in all_workloads():
        compiled = compile_workload(workload.name, workload.source,
                                    verify=False)
        if not compiled.report.matches:
            continue
        original = run_original(compiled, workload.entry,
                                workload.make_inputs(1))
        runtime = ApiRuntime()
        Transformer(compiled.module, runtime).apply(
            list(compiled.report.matches))
        guarded = [s for s in runtime.all_sites() if s.guarded]
        if guarded:
            return workload, compiled, runtime, guarded[0], original
    raise AssertionError("no suite workload produced a guarded site")


def run_execution_checks() -> dict:
    """Guarded-dispatch fallback and JIT-tier fallback under faults."""
    workload, compiled, runtime, site, original = _guarded_workload()
    plan = faults.install_plan({"specs": [
        {"site": "backend.dispatch", "kind": "exception", "at": [],
         "rate": 1.0, "key": site.callee}]})
    try:
        faulted = run_transformed(compiled, workload.entry,
                                  workload.make_inputs(1), runtime)
    finally:
        faults.install_plan(None)
    if not runtime.dispatch_failures:
        raise AssertionError(
            f"execution: no dispatch failure recorded at {site.callee}")
    if not outputs_match(original, faulted):
        raise AssertionError(
            "execution: guarded fallback diverged from the original run")
    dispatch = {
        "workload": workload.name,
        "site": site.callee,
        "backend": site.backend,
        "failures_contained": len(runtime.dispatch_failures),
        "quarantined": runtime.quarantine.quarantined(),
        "quarantine_skips": site.stats.get("quarantine_skips", 0),
        "outputs_match": True,
        "injected": len(plan.fired),
    }

    # JIT tier: every specialization attempt fails; execution must fall
    # back to the register VM with identical outputs.
    vm_compiled = compile_workload(workload.name, workload.source,
                                   verify=False)
    vm_run = run_original(vm_compiled, workload.entry,
                          workload.make_inputs(1), engine="vm")
    jit_compiled = compile_workload(workload.name, workload.source,
                                    verify=False)
    plan = faults.install_plan({"specs": [
        {"site": "jit.compile", "kind": "exception", "at": [],
         "rate": 1.0}]})
    try:
        jit_run = run_original(jit_compiled, workload.entry,
                               workload.make_inputs(1), engine="jit")
    finally:
        faults.install_plan(None)
    if len(plan.fired) == 0:
        raise AssertionError("execution: jit.compile fault never fired")
    if not outputs_match(vm_run, jit_run):
        raise AssertionError(
            "execution: jit-tier fallback diverged from the vm run")
    jit = {"workload": workload.name,
           "compile_faults": len(plan.fired),
           "outputs_match": True}
    return {"guarded_dispatch": dispatch, "jit_fallback": jit}


def run_overhead(modules) -> dict:
    """Suite detection, no plan vs installed-but-empty plan.

    The two modes are measured interleaved (an inactive sweep then an
    active one, REPEATS times, best-of each) so clock drift or a noisy
    neighbour biases both sides equally."""
    detector = IdiomDetector()
    detector.compiler.prepare(detector.idioms, forest=True)

    def sweep():
        for name, module in modules:
            DetectionSession(detector).detect(module)
        return True

    inactive_s = active_s = float("inf")
    try:
        for _ in range(REPEATS):
            faults.install_plan(None)
            seconds, _ = best_of(sweep, 1)
            inactive_s = min(inactive_s, seconds)
            faults.install_plan({"specs": []})
            seconds, _ = best_of(sweep, 1)
            active_s = min(active_s, seconds)
    finally:
        faults.install_plan(None)
    return {
        "inactive_seconds": round(inactive_s, 4),
        "active_empty_seconds": round(active_s, 4),
        "ratio": round(active_s / max(inactive_s, 1e-9), 4),
    }


def run_benchmark(workload_names: list[str] | None = None) -> dict:
    modules = [(w.name, module)
               for w, module in compile_suite(workload_names)]
    faults.install_plan(None)  # a leftover $REPRO_FAULT_PLAN would skew
    baseline = _fingerprints(modules, IdiomDetector())
    matrix = {s["name"]: _run_scenario(s, modules, baseline)
              for s in SCENARIOS}
    execution = run_execution_checks()
    overhead = run_overhead(modules)
    return {"matrix": matrix, "execution": execution, "overhead": overhead,
            "suite": {"workloads": len(modules),
                      "functions": sum(
                          1 for _, m in modules
                          for f in m.functions.values()
                          if not f.is_declaration())}}


def check_regression(current: dict, max_ratio: float) -> list[str]:
    """Failures if the armed-but-idle seams cost more than the gate
    (identity violations raise inside run_benchmark itself, with the
    scenario and workload named)."""
    failures = []
    overhead = current["overhead"]
    if overhead["ratio"] > max_ratio:
        failures.append(
            f"overhead: empty-plan detection at {overhead['ratio']:.4f}x "
            f"of inactive (> {max_ratio:.2f}x)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-faults",
        description="Exercise the reliability layer under deterministic "
                    "fault injection and measure the seams' idle cost")
    parser.add_argument("--output", default=None,
                        help="write full results JSON here")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these benchmarks (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="smoke mode: fail if any faulted run "
                             "diverges from the fault-free baseline or "
                             "the idle-seam overhead exceeds the gate")
    parser.add_argument("--max-ratio", type=float, default=1.03,
                        help="--check fails if empty-plan detection "
                             "exceeds no-plan detection by this factor "
                             "(default 1.03)")
    args = parser.parse_args(argv)

    if args.check:
        global REPEATS
        REPEATS = 7
    result = run_benchmark(args.workloads)

    for name, row in result["matrix"].items():
        outcomes = ", ".join(f"{k}={v}"
                             for k, v in sorted(row["outcomes"].items()))
        print(f"matrix {name:24s} injected={row['injected']} "
              f"notes={row['fault_notes']} identical={row['identical']} "
              f"[{outcomes}]")
    dispatch = result["execution"]["guarded_dispatch"]
    print(f"exec   {dispatch['workload']}: {dispatch['site']} "
          f"({dispatch['backend']}) contained "
          f"{dispatch['failures_contained']} failures, "
          f"quarantined={dispatch['quarantined']}, "
          f"skips={dispatch['quarantine_skips']}, outputs match")
    jit = result["execution"]["jit_fallback"]
    print(f"exec   {jit['workload']}: jit fell back to the vm after "
          f"{jit['compile_faults']} compile faults, outputs match")
    overhead = result["overhead"]
    print(f"idle   inactive={overhead['inactive_seconds']:.4f}s "
          f"empty-plan={overhead['active_empty_seconds']:.4f}s "
          f"({overhead['ratio']:.4f}x)")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        failures = check_regression(result, args.max_ratio)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"all faulted runs bit-identical to fault-free baselines; "
              f"idle seams within {args.max_ratio:.2f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
