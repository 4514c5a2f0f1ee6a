"""Execution substrate: memory model, execution engines, benchmark runner.

Three execution tiers share one semantic contract (identical outputs and
count-identical profiles): the reference tree-walking ``Interpreter``, the
bytecode-compiling ``VirtualMachine``, and the profile-guided
``JitVirtualMachine`` (the default) that runs functions on the VM until
they get hot, then specializes them to compiled Python with
numpy-batched affine loops.
"""

from .bytecode import BytecodeFunction, compile_function
from .interpreter import Interpreter, Profile
from .jit import JitVirtualMachine
from .memory import Buffer, Pointer, dtype_of, scalar_count, scalar_type_of
from .profile import GLOBAL_CODE_CACHE, CodeCache, HotnessTracker, \
    jit_fingerprint
from .runner import (
    DEFAULT_ENGINE,
    ENGINE_DESCRIPTIONS,
    ENGINES,
    CompiledWorkload,
    ExecutionResult,
    compile_workload,
    new_engine,
    outputs_identical,
    outputs_match,
    run_accelerated,
    run_original,
    run_transformed,
)
from .vm import VirtualMachine

__all__ = [
    "Interpreter", "Profile", "VirtualMachine", "JitVirtualMachine",
    "BytecodeFunction", "compile_function",
    "CodeCache", "HotnessTracker", "jit_fingerprint", "GLOBAL_CODE_CACHE",
    "ENGINES", "ENGINE_DESCRIPTIONS", "DEFAULT_ENGINE", "new_engine",
    "Buffer", "Pointer", "dtype_of", "scalar_count", "scalar_type_of",
    "CompiledWorkload", "ExecutionResult", "compile_workload",
    "outputs_identical", "outputs_match",
    "run_accelerated", "run_original", "run_transformed",
]
