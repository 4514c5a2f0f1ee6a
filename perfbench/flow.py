"""One program through the pipeline, with a span around each layer call.

C source → ``compile_c`` → ``optimize`` → ``IdiomDetector.detect`` →
original run → ``Transformer.apply`` → accelerated run → ``plan_module``.
Only the layers' public APIs and ``repro.workloads`` are used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.analysis import FunctionAnalyses
from repro.backends import ApiRuntime
from repro.frontend import compile_c
from repro.idioms import DetectionReport
from repro.passes import optimize
from repro.platform import plan_module, read_profile_json
from repro.runtime import (
    GLOBAL_CODE_CACHE,
    CompiledWorkload,
    compile_function,
    outputs_match,
    run_original,
    run_transformed,
)
from repro.transform import Transformer

from common import DEFAULT_PROFILE


def load_profile():
    """The checked-in calibration profile every plan is costed under."""
    return read_profile_json(str(DEFAULT_PROFILE), strict=True)


def ir_insts(module) -> int:
    return sum(1 for _ in module.instructions())


def new_counts() -> dict:
    return {"frontend.ir_insts": 0, "passes.ir_insts": 0,
            "idioms.solver_ticks": 0, "idioms.matches": 0,
            "transform.applied": 0, "transform.rejected": 0,
            "runtime.steps": 0, "runtime.jit_compiles": 0,
            "backends.dispatches": 0}


@dataclass
class ProgramRun:
    """Everything one program produced on its way through the pipeline."""

    workload: object
    compiled: CompiledWorkload
    runtime: ApiRuntime
    original: object = None
    accelerated: object = None
    plan: object = None
    sequential_s: float = 0.0
    compile_s: float = 0.0
    run_s: float = 0.0
    latency_s: float = 0.0

    @property
    def sim_speedup(self) -> float:
        return self.sequential_s / self.plan.total_s


def compile_program(workload, detector, tracer, counts: dict):
    """Frontend, passes and detection; returns the compiled workload."""
    item = workload.name
    with tracer.span("frontend", item=item):
        module = compile_c(workload.source, workload.name)
    if tracer.enabled:
        counts["frontend.ir_insts"] += ir_insts(module)
    with tracer.span("passes", item=item):
        optimize(module)
    if tracer.enabled:
        counts["passes.ir_insts"] += ir_insts(module)
    with tracer.span("idioms", item=item):
        report = detector.detect(module)
    counts["idioms.solver_ticks"] += report.stats.ticks
    counts["idioms.matches"] += len(report.matches)
    return CompiledWorkload(workload.name, module, report)


def trace_backends(runtime: ApiRuntime, tracer, counts: dict,
                   item: str) -> None:
    """Wrap every call site's handler on ``runtime`` in a ``backends``
    span that also counts dispatches (while the tracer is enabled)."""
    for site in runtime.sites.values():
        if site.kind != "call":
            continue

        def handler(args, engine, _inner=site.handler):
            if not tracer.enabled:
                return _inner(args, engine)
            counts["backends.dispatches"] += 1
            with tracer.span("backends", item=item):
                return _inner(args, engine)

        site.handler = handler


def transform_program(run: ProgramRun, tracer, counts: dict) -> None:
    with tracer.span("transform", item=run.workload.name):
        transformer = Transformer(run.compiled.module, run.runtime)
        applied = transformer.apply(list(run.compiled.report.matches))
    counts["transform.applied"] += len(applied)
    counts["transform.rejected"] += len(transformer.rejected)
    if tracer.enabled:
        trace_backends(run.runtime, tracer, counts, run.workload.name)


def execute(run: ProgramRun, inputs: dict, tracer, counts: dict,
            accelerated: bool):
    workload = run.workload
    if accelerated:
        with tracer.span("runtime", "accel", item=workload.name):
            result = run_transformed(run.compiled, workload.entry, inputs,
                                     run.runtime)
    else:
        with tracer.span("runtime", "original", item=workload.name):
            result = run_original(run.compiled, workload.entry, inputs)
    counts["runtime.steps"] += result.total_instructions
    return result


def place(run: ProgramRun, profile, tracer) -> None:
    """Plan the accelerated program's sites; records the paper-scale
    sequential time the plan is compared against."""
    workload, original = run.workload, run.original
    run.sequential_s = profile.sequential_seconds(original.opcode_counts) \
        * workload.paper_scale
    with tracer.span("platform", item=workload.name):
        run.plan = plan_module(
            run.runtime.all_sites(), run.runtime.events,
            host_seconds=run.sequential_s * (1.0 - original.coverage),
            scale=workload.paper_scale,
            events_overflowed=run.runtime.events_overflowed,
            profile=profile)


def run_program(workload, inputs: dict, detector, profile, tracer,
                counts: dict) -> ProgramRun:
    """The whole flow for one program, timed by step."""
    t0 = time.perf_counter()
    compiled = compile_program(workload, detector, tracer, counts)
    run = ProgramRun(workload, compiled, ApiRuntime())
    run.compile_s = time.perf_counter() - t0
    finish_program(run, inputs, profile, tracer, counts)
    run.latency_s = time.perf_counter() - t0
    return run


def finish_program(run: ProgramRun, inputs: dict, profile, tracer,
                   counts: dict) -> None:
    """Original run, transform, accelerated run and placement of an
    already compiled program; adds to its compile and run times."""
    jit_before = GLOBAL_CODE_CACHE.compiles
    t1 = time.perf_counter()
    run.original = execute(run, inputs, tracer, counts, accelerated=False)
    t2 = time.perf_counter()
    transform_program(run, tracer, counts)
    t3 = time.perf_counter()
    run.accelerated = execute(run, inputs, tracer, counts, accelerated=True)
    t4 = time.perf_counter()
    place(run, profile, tracer)
    run.compile_s += t3 - t2
    run.run_s += (t2 - t1) + (t4 - t3)
    counts["runtime.jit_compiles"] += GLOBAL_CODE_CACHE.compiles - jit_before


def separate_calls(workloads, tracer) -> None:
    """Time the analyses and the bytecode lowering on their own, over
    freshly optimised modules (not timed: the recompile)."""
    with tracer.span("bench", "separate"):
        for workload in workloads:
            module = optimize(compile_c(workload.source, workload.name))
            functions = [f for f in module.functions.values()
                         if not f.is_declaration()]
            with tracer.span("analysis", item=workload.name):
                for function in functions:
                    analyses = FunctionAnalyses(function)
                    analyses.cfg, analyses.dom, analyses.postdom
                    analyses.loops, analyses.control_dep
            with tracer.span("runtime", "lower", item=workload.name):
                for function in functions:
                    compile_function(function)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def census_failure(run: ProgramRun) -> str | None:
    found = run.compiled.report.by_category()
    if found != run.workload.expected:
        return (f"{run.workload.name}: idiom census {found} != expected "
                f"{run.workload.expected}")
    return None


def output_failures(run: ProgramRun, reference) -> list[str]:
    """Original against the reference interpreter (when given), and
    accelerated against original."""
    name = run.workload.name
    failures = []
    if reference is not None and not outputs_match(reference, run.original):
        failures.append(f"{name}: original outputs differ from the "
                        f"reference interpreter")
    if not outputs_match(run.original, run.accelerated):
        failures.append(f"{name}: accelerated outputs differ from the "
                        f"original")
    return failures


def reference_outputs(workload, scale: int):
    """The reference interpreter's outputs for ``workload`` on its
    optimised IR (unoptimised IR is not executable)."""
    module = optimize(compile_c(workload.source, workload.name))
    compiled = CompiledWorkload(workload.name, module,
                                DetectionReport(workload.name))
    return run_original(compiled, workload.entry,
                        workload.make_inputs(scale), engine="reference")


def save_outputs(path, results: dict) -> None:
    """Persist ``{program: result}`` return values and buffers."""
    arrays = {}
    for name, result in results.items():
        if result.value is not None:
            arrays[f"{name}|value"] = np.asarray(result.value)
        for buf_name, buffer in result.buffers.items():
            arrays[f"{name}|buf|{buf_name}"] = buffer.data
    np.savez(path, **arrays)


def load_outputs(path) -> dict:
    """Inverse of :func:`save_outputs`; results compare with
    ``outputs_match``."""
    results: dict = {}
    with np.load(path) as data:
        for key in data.files:
            parts = key.split("|")
            entry = results.setdefault(
                parts[0], SimpleNamespace(value=None, buffers={}))
            if parts[1] == "value":
                entry.value = data[key][()]
            else:
                entry.buffers[parts[2]] = SimpleNamespace(data=data[key])
    return results
