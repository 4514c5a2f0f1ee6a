"""``accel-replay``: steady-state execution of the accelerated programs.

Set-up compiles, detects, transforms and places the 10 dominant
programs at their default scale, checks the accelerated outputs against
the original ones, and installs each plan's locations on its runtime
(``ApiRuntime.set_placement``). Each measured pass then replays every
transformed module (``run_transformed``) at :data:`SCALE`, in the order
its seed gives, on a fresh copy of the inputs. Every replay must be
bit-identical to the first replay of the same program.

Set-up is measured three times: twice in set-up-only processes
(``python3 perfbench/accel_replay.py --out S.json``) and once in the
process that goes on to replay.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    geomean,
    mean,
    median,
    metric,
    pass_percentile,
    peak_rss_mb,
    probe_s,
    run_child,
    speed,
    write_json,
)
from layers import layer_metrics  # noqa: E402
from spans import Tracer, check_well_formed  # noqa: E402

#: Replay scale: a pass takes about a second and API handlers take about
#: a quarter of it. Larger scales make the replays memory-bound, and their
#: timing then swings by a third with the neighbours' load on a shared
#: machine.
SCALE = 16
SETUP_ROUNDS = 3
SETUP_TIMEOUT_S = 120.0


def setup(tracer, counts: dict, t0: float) -> dict:
    """Everything before the first timed replay; returns the prepared
    programs, their default-scale checks and the set-up timings."""
    with tracer.span("bench", "setup"):
        from repro.idioms import IdiomDetector
        from repro.workloads import dominant_workloads

        import flow

        with tracer.span("idioms", "warmup"):
            detector = IdiomDetector().warmup()
        with tracer.span("platform", "profile"):
            profile = flow.load_profile()
        runs = []
        for workload in dominant_workloads():
            inputs = workload.make_inputs(workload.default_scale)
            run = flow.run_program(workload, inputs, detector, profile,
                                   tracer, counts)
            run.runtime.set_placement(run.plan.locations())
            runs.append(run)
    setup_s = time.perf_counter() - t0
    failures = []
    for run in runs:
        found = [flow.census_failure(run)] + flow.output_failures(run, None)
        failures.extend(f for f in found if f)
    return {
        "runs": runs,
        "detector": detector,
        "setup_s": setup_s,
        "compile_s": {r.workload.name: r.compile_s for r in runs},
        "sim_speedup": geomean(r.sim_speedup for r in runs),
        "failures": failures,
    }


def compile_round(detector, runs) -> dict:
    """Compile, detect and transform each program again (untraced, into
    a throwaway runtime): more samples for ``compile_s``, spread over the
    measured window instead of bunched in set-up."""
    import flow
    from repro.backends import ApiRuntime

    tracer, counts, times = Tracer(False), flow.new_counts(), {}
    for run in runs:
        t0 = time.perf_counter()
        compiled = flow.compile_program(run.workload, detector, tracer,
                                        counts)
        again = flow.ProgramRun(run.workload, compiled, ApiRuntime())
        flow.transform_program(again, tracer, counts)
        times[run.workload.name] = time.perf_counter() - t0
    return times


def child_main(argv: list[str]) -> int:
    """A set-up-only round in a fresh process."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import flow

    prepared = setup(Tracer(False), flow.new_counts(), _T0)
    write_json(args.out, {k: prepared[k] for k in
                          ("setup_s", "compile_s", "sim_speedup",
                           "failures")})
    return 0


def run(seed: int, seconds: float, trace: bool) -> dict:
    rounds = [run_child("accel_replay.py", [], timeout=SETUP_TIMEOUT_S)
              for _ in range(SETUP_ROUNDS - 1)]
    tracer = Tracer(trace)
    import flow
    from repro.runtime import outputs_identical, run_transformed

    counts = flow.new_counts()
    prepared = setup(tracer, counts, time.perf_counter())
    setup_counts = dict(counts)
    rounds.append(prepared)
    failures = list(prepared["failures"])
    for other in rounds[:-1]:
        failures.extend(other["failures"])
        if other["sim_speedup"] != prepared["sim_speedup"]:
            failures.append("sim_speedup differs between set-up rounds")
    runs = prepared["runs"]
    detector = prepared["detector"]
    inputs = {r.workload.name: r.workload.make_inputs(SCALE) for r in runs}

    first: dict = {}
    probes, passes = [], []
    compiles = [r["compile_s"] for r in rounds]
    attempted = len(runs) * SETUP_ROUNDS
    rng = random.Random(seed)
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) \
            or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 0
        tracer.enabled = traced
        order = list(runs)
        rng.shuffle(order)
        results, latencies, probed = [], {}, 0.0
        t0 = time.perf_counter()
        with tracer.span("bench", "pass"):
            for run in order:
                name = run.workload.name
                if not traced:
                    probes.append(probe_s())
                    probed += probes[-1]
                t1 = time.perf_counter()
                try:
                    with tracer.span("runtime", "accel", item=name):
                        result = run_transformed(
                            run.compiled, run.workload.entry, inputs[name],
                            run.runtime)
                except Exception as exc:  # counted, never aborts the run
                    failures.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    latencies[name] = time.perf_counter() - t1
                results.append((name, result))
        passes.append({"traced": traced,
                       "pass_s": time.perf_counter() - t0 - probed,
                       "latencies": latencies})
        attempted += len(order)
        compiles.append(compile_round(detector, order))
        for name, result in results:
            if traced:
                counts["runtime.steps"] += result.total_instructions
            if name not in first:
                first[name] = result
            elif not outputs_identical(first[name], result):
                failures.append(f"{name}: replay outputs differ from the "
                                f"first replay")
    tracer.enabled = trace

    untraced = [p for p in passes if not p["traced"]]
    # Every time at the reference machine's speed (see common.probe_s).
    factor = speed(probes)
    latencies = [[s * factor for s in p["latencies"].values()]
                 for p in untraced]
    pass_s = mean(p["pass_s"] for p in untraced) * factor
    metrics = {
        "setup_s": metric(median(r["setup_s"] for r in rounds) * factor,
                          "s"),
        "pass_s": metric(pass_s, "s"),
        "compile_s": metric(mean(sum(c.values()) for c in compiles)
                            * factor, "s"),
        "run_s": metric(mean(sum(p) for p in latencies), "s"),
        "sim_speedup": metric(prepared["sim_speedup"], "x"),
        "req_per_s": metric(len(runs) / pass_s, "req/s"),
        "p50_ms": metric(pass_percentile(latencies, 50) * 1e3, "ms"),
        "p95_ms": metric(pass_percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    extra = {"pass_s": [p["pass_s"] for p in passes],
             "setup_s": [r["setup_s"] for r in rounds], "speed": factor}
    if trace:
        from repro.workloads import dominant_workloads

        flow.separate_calls(dominant_workloads(), tracer)
        spans = tracer.spans
        failures.extend(f"trace: {p}" for p in check_well_formed(spans))
        traced_passes = [p["pass_s"] for p in passes if p["traced"]]
        overhead = median(traced_passes) / median(p["pass_s"]
                                                  for p in untraced)
        # Set-up once plus the mean traced pass, like the span times.
        counts = {k: setup_counts[k]
                  + (v - setup_counts[k]) / len(traced_passes)
                  for k, v in counts.items()}
        extra["spans"] = spans
        extra["layer_metrics"] = layer_metrics(
            spans, counts, overhead)
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "scale": SCALE, "extra": extra}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
