"""``suite-eval``: the paper's whole evaluation, one fresh process per pass.

The parent computes the reference interpreter's outputs once per version
of the code (outside every timed region; cached), then starts pass processes until ``--seconds`` have
elapsed. Each pass process imports the pipeline, warms the detector
(its set-up), and runs all 21 programs in the order its seed gives, each
through the whole flow of :mod:`flow`. Checks run after the pass is
timed. A fresh process per pass keeps every process-wide cache (the
JIT's code cache, the detector's compiled plans) from carrying work
between passes.

Run a single pass by hand with::

    python3 perfbench/suite_eval.py --order CG,IS --reference R.npz --out P.json
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR,
    LAYERS,
    OUT_DIR,
    ROOT,
    SRC,
    geomean,
    mean,
    median,
    pass_percentile,
    metric,
    peak_rss_mb,
    probe_s,
    run_child,
    speed,
    write_json,
)
from layers import layer_metrics  # noqa: E402
from spans import Tracer, check_well_formed, merge  # noqa: E402

SCALE = 1
#: Upper bound on one pass process's wall time.
PASS_TIMEOUT_S = 150.0


def pass_order(names: list[str], seed: int, index: int) -> list[str]:
    order = list(names)
    random.Random(seed * 100_003 + index).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# One pass (child process)
# ---------------------------------------------------------------------------

def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--order", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    tracer = Tracer(bool(args.trace))

    with tracer.span("bench", "setup"):
        from repro.idioms import IdiomDetector
        from repro.workloads import get_workload

        import flow

        with tracer.span("idioms", "warmup"):
            detector = IdiomDetector().warmup()
        with tracer.span("platform", "profile"):
            profile = flow.load_profile()
    setup_s = time.perf_counter() - _T0

    workloads = [get_workload(name) for name in args.order.split(",")]
    inputs = {w.name: w.make_inputs(SCALE) for w in workloads}
    counts = flow.new_counts()
    runs, failures, probes = [], [], []
    t0 = time.perf_counter()
    with tracer.span("bench", "pass"):
        for workload in workloads:
            if not tracer.enabled:
                probes.append(probe_s())
            try:
                runs.append(flow.run_program(workload, inputs[workload.name],
                                             detector, profile, tracer,
                                             counts))
            except Exception as exc:  # counted, never aborts the pass
                failures.append(f"{workload.name}: {type(exc).__name__}: "
                                f"{exc}")
    pass_s = time.perf_counter() - t0 - sum(probes)
    rss = peak_rss_mb()

    reference = flow.load_outputs(args.reference)
    for run in runs:
        found = [flow.census_failure(run)] + flow.output_failures(
            run, reference.get(run.workload.name))
        failures.extend(f for f in found if f)

    if tracer.enabled:
        flow.separate_calls(workloads, tracer)
    write_json(args.out, {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "probes": probes,
        "peak_rss_mb": rss,
        "programs": [[r.workload.name, r.compile_s, r.run_s, r.latency_s]
                     for r in runs],
        "speedups": {r.workload.name: r.sim_speedup
                     for r in runs if r.workload.dominant},
        "attempted": len(workloads),
        "failures": failures,
        "counts": counts,
        "spans": tracer.spans,
    })
    return 0


# ---------------------------------------------------------------------------
# The run (parent process)
# ---------------------------------------------------------------------------

def _reference_file(scale: int):
    """The reference interpreter's outputs for every program, cached
    under ``OUT_DIR`` by a digest of the source tree and this benchmark's
    code, so each version of the program computes them once."""
    from repro.workloads import all_workloads

    import flow

    digest = hashlib.sha256(str(scale).encode())
    for root in (SRC / "repro", BENCH_DIR):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    path = OUT_DIR / f"reference-{digest.hexdigest()[:24]}.npz"
    if not path.exists():
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.npz")
        flow.save_outputs(partial, {w.name: flow.reference_outputs(w, scale)
                                    for w in all_workloads()})
        os.replace(partial, path)
    return path


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.workloads import all_workloads

    names = [w.name for w in all_workloads()]
    dominant = {w.name for w in all_workloads() if w.dominant}
    reference = _reference_file(SCALE)
    passes = []
    start = time.perf_counter()
    index = 0
    # In a traced run every other pass is traced, so the same run also
    # yields the untraced pass time the tracing overhead is taken against.
    while index < (2 if trace else 1) \
            or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 0
        result = run_child("suite_eval.py", [
            "--order", ",".join(pass_order(names, seed, index)),
            "--reference", reference, "--trace", int(traced)],
            timeout=PASS_TIMEOUT_S)
        result["traced"] = traced
        passes.append(result)
        index += 1

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    speedups = passes[0]["speedups"]
    for p in passes[1:]:
        if p["speedups"] != speedups:
            failures.append("sim_speedup differs between passes")
            break
    if set(speedups) != dominant:
        failures.append(f"plans missing for "
                        f"{sorted(dominant - set(speedups))}")
    untraced = [p for p in passes if not p["traced"]]
    # Every time at the reference machine's speed (see common.probe_s).
    factor = speed([x for p in untraced for x in p["probes"]])
    latencies = [[prog[3] * factor for prog in p["programs"]]
                 for p in untraced]
    pass_s = mean(p["pass_s"] for p in untraced) * factor
    metrics = {
        "setup_s": metric(median(p["setup_s"] for p in passes) * factor,
                          "s"),
        "pass_s": metric(pass_s, "s"),
        "compile_s": metric(mean(sum(prog[1] for prog in p["programs"])
                                 for p in untraced) * factor, "s"),
        "run_s": metric(mean(sum(prog[2] for prog in p["programs"])
                             for p in untraced) * factor, "s"),
        "sim_speedup": metric(geomean(speedups.values()) if speedups
                              else 1.0, "x"),
        "req_per_s": metric(len(names) / pass_s, "req/s"),
        "p50_ms": metric(pass_percentile(latencies, 50) * 1e3, "ms"),
        "p95_ms": metric(pass_percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": metric(median(p["peak_rss_mb"] for p in passes),
                              "MB"),
    }
    extra = {"pass_s": [p["pass_s"] for p in passes], "speed": factor}
    if trace:
        traced = [p for p in passes if p["traced"]]
        spans = merge([p["spans"] for p in traced])
        problems = check_well_formed(
            spans, required=tuple(l for l in LAYERS if l != "service"))
        failures.extend(f"trace: {p}" for p in problems)
        counts = {k: sum(p["counts"][k] for p in traced) / len(traced)
                  for k in traced[0]["counts"]}
        overhead = median(p["pass_s"] for p in traced) \
            / median(p["pass_s"] for p in untraced)
        extra["spans"] = spans
        extra["layer_metrics"] = layer_metrics(spans, counts, overhead)
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "scale": SCALE, "extra": extra}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
