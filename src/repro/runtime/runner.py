"""End-to-end benchmark runner: compile → detect → transform → execute.

Produces everything the evaluation needs for one workload:

* detection report (Table 1 / Figure 16),
* runtime coverage from interpreter block counts (Figure 17),
* simulated sequential time from dynamic opcode counts,
* accelerated times per (API, platform) from the cost model
  (Table 3 / Figures 18-19),
* functional outputs of both versions, for equivalence checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.api import ApiRuntime
from ..errors import TransformError
from ..frontend import compile_c
from ..idioms import DetectionReport, IdiomDetector, IdiomMatch
from ..ir.module import Module
from ..passes import optimize
from ..platform.machine import sequential_time_seconds
from .interpreter import Interpreter
from .jit import JitVirtualMachine
from .memory import Buffer, Pointer
from .vm import VirtualMachine

#: Available execution engines — the three tiers. ``reference`` is the
#: original tree-walking interpreter, kept as the semantic oracle; ``vm``
#: compiles functions to flat register bytecode once and runs them ~an
#: order of magnitude faster; ``jit`` (the default) runs functions on the
#: VM until they get hot, then specializes them to Python code with
#: numpy-batched affine loops, entering hot loops mid-call at their
#: header. All three produce identical outputs and count-identical
#: per-block profiles.
ENGINES = {"reference": Interpreter, "vm": VirtualMachine,
           "jit": JitVirtualMachine}
DEFAULT_ENGINE = "jit"

#: One-line descriptions, surfaced by the harness's ``--list``.
ENGINE_DESCRIPTIONS = {
    "reference": "tree-walking interpreter over the IR (semantic baseline)",
    "vm": "register bytecode VM, functions lowered once on first call",
    "jit": "VM plus profile-guided specialization: functions whose calls "
           "and loop iterations get hot become compiled Python with "
           "numpy-batched affine loops, entered mid-call at the hot loop",
}


def new_engine(module: Module, engine: str | None = None, api_runtime=None,
               jit_threshold: int | None = None):
    """Instantiate an execution engine by name (None → DEFAULT_ENGINE).

    ``jit_threshold`` — the heat (calls plus loop back edges) at which a
    function is specialized; 1 compiles every function on its first
    call — only applies to the ``jit`` tier and is ignored by the others.
    """
    name = engine or DEFAULT_ENGINE
    cls = ENGINES.get(name)
    if cls is None:
        raise ValueError(f"unknown engine {name!r} "
                         f"(choose from {', '.join(sorted(ENGINES))})")
    kwargs = {}
    if jit_threshold is not None and cls is JitVirtualMachine:
        kwargs["jit_threshold"] = jit_threshold
    return cls(module, api_runtime=api_runtime, **kwargs)


@dataclass
class CompiledWorkload:
    """A compiled benchmark plus its detection results."""

    name: str
    module: Module
    report: DetectionReport
    compile_seconds: float = 0.0
    detect_seconds: float = 0.0


@dataclass
class ExecutionResult:
    """One interpreted execution."""

    value: object
    buffers: dict[str, Buffer]
    total_instructions: int
    idiom_instructions: int
    opcode_counts: dict[str, int]
    api_runtime: ApiRuntime | None = None
    transforms: list = field(default_factory=list)
    #: Matches the transformer refused (their loops ran unmodified).
    rejected: list = field(default_factory=list)

    @property
    def coverage(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return self.idiom_instructions / self.total_instructions

    @property
    def sequential_seconds(self) -> float:
        return sequential_time_seconds(self.opcode_counts)


def compile_workload(name: str, source: str,
                     verify: bool = True,
                     cache_dir=None,
                     deadline_s: float | None = None) -> CompiledWorkload:
    """Compile and detect, recording wall-clock for Table 2.

    ``verify=False`` skips post-convergence IR verification — the
    experiment harness's hot path; tests keep it on. ``cache_dir`` (a
    directory path, or a shared :class:`~repro.cache.ArtifactStore` for
    aggregate telemetry) enables the persistent artifact cache
    (:mod:`repro.cache`): unchanged functions are served from disk with
    the report still bit-identical to a cold run. ``deadline_s`` is a
    per-function solve wall-clock bound (overruns become partial results,
    flagged in ``report.outcomes``).
    """
    import time

    t0 = time.perf_counter()
    module = compile_c(source, name)
    optimize(module, verify=verify)
    t1 = time.perf_counter()
    report = IdiomDetector(cache=cache_dir).detect(module,
                                                   deadline_s=deadline_s)
    t2 = time.perf_counter()
    return CompiledWorkload(name, module, report,
                            compile_seconds=t1 - t0,
                            detect_seconds=t2 - t1)


def _bind_arguments(interpreter, module: Module, entry: str,
                    inputs: dict) -> tuple[list, dict[str, Buffer]]:
    """Convert python/numpy inputs to interpreter argument values."""
    function = module.get_function(entry)
    args = []
    buffers: dict[str, Buffer] = {}
    for formal in function.args:
        if formal.name not in inputs:
            raise TransformError(
                f"missing input {formal.name!r} for @{entry}")
        value = inputs[formal.name]
        if isinstance(value, np.ndarray):
            buffer = Buffer.from_numpy(formal.name, value.copy())
            buffers[formal.name] = buffer
            args.append(Pointer(buffer, 0))
        else:
            args.append(value)
    return args, buffers


def run_original(workload: CompiledWorkload, entry: str, inputs: dict,
                 engine: str | None = None,
                 jit_threshold: int | None = None) -> ExecutionResult:
    """Execute the unmodified module, attributing idiom coverage."""
    interpreter = new_engine(workload.module, engine,
                             jit_threshold=jit_threshold)
    args, buffers = _bind_arguments(interpreter, workload.module, entry,
                                    inputs)
    value = interpreter.call(entry, args)
    for name, buffer in interpreter.globals.items():
        buffers.setdefault(name, buffer)

    idiom_blocks: set[int] = set()
    for match in workload.report.matches:
        idiom_blocks |= match.region_blocks()
    profile = interpreter.profile
    return ExecutionResult(
        value=value,
        buffers=buffers,
        total_instructions=profile.total_instructions(),
        idiom_instructions=profile.instructions_in(idiom_blocks),
        opcode_counts=profile.opcode_counts(),
    )


def run_accelerated(workload: CompiledWorkload, entry: str, inputs: dict,
                    matches: list[IdiomMatch] | None = None,
                    engine: str | None = None,
                    backends: list[str] | None = None,
                    placement: dict | None = None,
                    jit_threshold: int | None = None) -> ExecutionResult:
    """Transform the matched idioms to API calls, then execute.

    The transformation mutates ``workload.module`` in place, so callers
    wanting to compare against the original must either run the original
    first or compile a fresh copy.

    ``backends`` restricts which registry backends may lower matches (the
    ``--backends`` CLI flag). ``placement`` (call_id → location, from
    :meth:`repro.platform.placement.PlacementPlan.locations`) enables the
    runtime's live residency tracker during execution.
    """
    from ..transform.replace import Transformer

    runtime = ApiRuntime()
    transformer = Transformer(workload.module, runtime, backends=backends)
    applied = transformer.apply(matches if matches is not None
                                else list(workload.report.matches))
    if placement is not None:
        runtime.set_placement(placement)
    result = run_transformed(workload, entry, inputs, runtime,
                             engine=engine, jit_threshold=jit_threshold)
    result.transforms = applied
    result.rejected = transformer.rejected
    return result


def run_transformed(workload: CompiledWorkload, entry: str, inputs: dict,
                    runtime: ApiRuntime,
                    engine: str | None = None,
                    jit_threshold: int | None = None) -> ExecutionResult:
    """Execute an already-transformed module against its ``ApiRuntime``.

    Used to replay one transformation under a different engine or
    placement without re-running detection; note the runtime's site
    statistics and event log keep accumulating across replays.
    """
    interpreter = new_engine(workload.module, engine, api_runtime=runtime,
                             jit_threshold=jit_threshold)
    args, buffers = _bind_arguments(interpreter, workload.module, entry,
                                    inputs)
    value = interpreter.call(entry, args)
    for name, buffer in interpreter.globals.items():
        buffers.setdefault(name, buffer)
    profile = interpreter.profile
    return ExecutionResult(
        value=value,
        buffers=buffers,
        total_instructions=profile.total_instructions(),
        idiom_instructions=0,
        opcode_counts=profile.opcode_counts(),
        api_runtime=runtime,
    )


def outputs_match(a: ExecutionResult, b: ExecutionResult,
                  rtol: float = 1e-9, atol: float = 1e-9) -> bool:
    """Compare return values and every shared buffer."""
    if a.value is not None or b.value is not None:
        if not np.allclose(a.value, b.value, rtol=rtol, atol=atol,
                           equal_nan=True):
            return False
    for name, buffer in a.buffers.items():
        other = b.buffers.get(name)
        if other is None:
            continue
        if not np.allclose(buffer.data, other.data, rtol=rtol, atol=atol,
                           equal_nan=True):
            return False
    return True


def outputs_identical(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Bit-exact comparison of return values and shared buffers (NaNs
    compare equal positionally) — the engine/placement invariance check:
    handlers are shared numpy code, so accelerated outputs must not
    depend on the execution engine or the placement strategy at all."""
    def same(x, y) -> bool:
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape:
            return False
        eq = (x == y)
        if x.dtype.kind == "f" and y.dtype.kind == "f":
            eq = eq | (np.isnan(x) & np.isnan(y))
        return bool(np.all(eq))

    if (a.value is None) != (b.value is None):
        return False
    if a.value is not None and not same(a.value, b.value):
        return False
    for name, buffer in a.buffers.items():
        other = b.buffers.get(name)
        if other is not None and not same(buffer.data, other.data):
            return False
    return True
