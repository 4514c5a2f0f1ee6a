"""IR interpreter: executes modules for correctness and profiling.

The evaluation pipeline uses it three ways (per DESIGN.md §4):

* run workloads end-to-end to validate transformations (original vs
  accelerated output equality);
* count dynamically executed instructions per basic block — the source of
  the paper's Figure 17 runtime-coverage numbers;
* feed per-opcode dynamic counts to the platform cost model, which turns
  them into simulated sequential execution times.
"""

from __future__ import annotations

import math

from ..errors import InterpreterError
from ..ir.instructions import (
    AllocaInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.module import Function, Module
from ..ir.types import ArrayType, PointerType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from .memory import Buffer, Pointer, scalar_count


class LCG:
    """Deterministic rand() (numerical recipes LCG)."""

    def __init__(self, seed: int = 12345):
        self.state = seed

    def next(self) -> int:
        self.state = (self.state * 1664525 + 1013904223) % (1 << 32)
        return self.state >> 16


class Profile:
    """Dynamic execution counts, attributed per basic block."""

    def __init__(self) -> None:
        self.block_counts: dict[int, int] = {}
        self.block_sizes: dict[int, int] = {}
        self.block_opcodes: dict[int, dict[str, int]] = {}

    def note_block(self, block) -> None:
        key = id(block)
        if key not in self.block_sizes:
            self.block_sizes[key] = len(block.instructions)
            histogram: dict[str, int] = {}
            for inst in block.instructions:
                histogram[inst.opcode] = histogram.get(inst.opcode, 0) + 1
            self.block_opcodes[key] = histogram
        self.block_counts[key] = self.block_counts.get(key, 0) + 1

    def total_instructions(self) -> int:
        return sum(count * self.block_sizes[key]
                   for key, count in self.block_counts.items())

    def instructions_in(self, block_ids: set[int]) -> int:
        return sum(count * self.block_sizes[key]
                   for key, count in self.block_counts.items()
                   if key in block_ids)

    def opcode_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for key, count in self.block_counts.items():
            for opcode, n in self.block_opcodes[key].items():
                totals[opcode] = totals.get(opcode, 0) + count * n
        return totals


_INT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "ashr": lambda a, b: a >> b,
    "lshr": lambda a, b: (a & 0xFFFFFFFFFFFFFFFF) >> b,
}

_FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b != 0 else math.copysign(math.inf, a),
    "frem": lambda a, b: math.fmod(a, b) if b != 0 else math.nan,
}

_ICMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b, "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b, "uge": lambda a, b: a >= b,
}

_FCMP = {
    "oeq": lambda a, b: a == b, "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
    "ueq": lambda a, b: a == b, "une": lambda a, b: a != b,
    "ult": lambda a, b: a < b, "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b, "uge": lambda a, b: a >= b,
}


class Interpreter:
    """Executes IR functions over numpy-backed memory."""

    def __init__(self, module: Module, api_runtime=None,
                 max_steps: int = 500_000_000, seed: int = 12345):
        self.module = module
        self.api_runtime = api_runtime
        self.profile = Profile()
        self.max_steps = max_steps
        self.steps = 0
        self.rng = LCG(seed)
        self.globals: dict[str, Buffer] = {}
        for gv in module.globals.values():
            buffer = Buffer.for_type(gv.name, gv.value_type)
            if gv.initializer is not None:
                flat = _flatten(gv.initializer)
                buffer.data[:len(flat)] = flat
            self.globals[gv.name] = buffer

    # -- public API ---------------------------------------------------------------
    def bind_global(self, name: str, array) -> Buffer:
        """Replace a global's storage with (a copy of) a numpy array."""
        import numpy as np

        gv = self.module.globals.get(name)
        if gv is None:
            raise InterpreterError(f"no global @{name}")
        buffer = self.globals[name]
        flat = np.asarray(array).reshape(-1).astype(buffer.data.dtype)
        buffer.data[:flat.size] = flat
        return buffer

    def call(self, name: str, args: list):
        function = self.module.functions.get(name)
        if function is None or function.is_declaration():
            raise InterpreterError(f"cannot call @{name}")
        return self._run_function(function, list(args))

    # -- execution -------------------------------------------------------------------
    def _run_function(self, function: Function, args: list):
        if len(args) != len(function.args):
            raise InterpreterError(
                f"@{function.name} expects {len(function.args)} args")
        env: dict[int, object] = {}
        for formal, actual in zip(function.args, args):
            env[id(formal)] = actual
        allocas: dict[int, Buffer] = {}

        block = function.entry
        prev_block = None
        while True:
            self.profile.note_block(block)
            self.steps += 1
            if self.steps > self.max_steps:
                raise InterpreterError("interpreter step budget exceeded")

            # Phis evaluate simultaneously on entry.
            phis = block.phis()
            if phis:
                values = [self._value(phi.incoming_value_for(prev_block), env)
                          for phi in phis]
                for phi, value in zip(phis, values):
                    env[id(phi)] = value

            for inst in block.instructions[len(phis):]:
                if isinstance(inst, BranchInst):
                    if inst.is_conditional():
                        cond = self._value(inst.condition, env)
                        target = inst.operands[1] if cond else inst.operands[2]
                    else:
                        target = inst.operands[0]
                    prev_block, block = block, target
                    break
                if isinstance(inst, RetInst):
                    if inst.value is None:
                        return None
                    return self._value(inst.value, env)
                if isinstance(inst, UnreachableInst):
                    raise InterpreterError("reached unreachable")
                env[id(inst)] = self._execute(inst, env, allocas)
            else:
                raise InterpreterError(
                    f"block %{block.name} fell through without terminator")

    def _value(self, value: Value, env: dict):
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, GlobalVariable):
            return Pointer(self.globals[value.name], 0)
        if isinstance(value, ConstantPointerNull):
            return None
        if isinstance(value, UndefValue):
            return 0
        result = env.get(id(value))
        if result is None and id(value) not in env:
            raise InterpreterError(f"use of undefined value {value.ref()}")
        return result

    def _execute(self, inst, env, allocas):
        if isinstance(inst, BinaryOperator):
            lhs = self._value(inst.lhs, env)
            rhs = self._value(inst.rhs, env)
            op = inst.opcode
            if op in _INT_OPS:
                return _INT_OPS[op](lhs, rhs)
            if op in _FLOAT_OPS:
                return _FLOAT_OPS[op](lhs, rhs)
            if op in ("sdiv", "udiv"):
                if rhs == 0:
                    raise InterpreterError("integer division by zero")
                q = abs(lhs) // abs(rhs)
                return q if (lhs >= 0) == (rhs >= 0) else -q
            if op in ("srem", "urem"):
                if rhs == 0:
                    raise InterpreterError("integer remainder by zero")
                q = abs(lhs) // abs(rhs)
                q = q if (lhs >= 0) == (rhs >= 0) else -q
                return lhs - q * rhs
            raise InterpreterError(f"unhandled binop {op}")
        if isinstance(inst, ICmpInst):
            return _ICMP[inst.predicate](
                self._value(inst.lhs, env), self._value(inst.rhs, env))
        if isinstance(inst, FCmpInst):
            a = self._value(inst.lhs, env)
            b = self._value(inst.rhs, env)
            if math.isnan(a) or math.isnan(b):
                return not inst.predicate.startswith("o") and \
                    inst.predicate != "one"
            return _FCMP[inst.predicate](a, b)
        if isinstance(inst, GEPInst):
            return self._gep(inst, env)
        if isinstance(inst, LoadInst):
            pointer = self._value(inst.pointer, env)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("load from non-pointer value")
            return pointer.load()
        if isinstance(inst, StoreInst):
            pointer = self._value(inst.pointer, env)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("store to non-pointer value")
            pointer.store(self._value(inst.value, env))
            return None
        if isinstance(inst, AllocaInst):
            buffer = allocas.get(id(inst))
            if buffer is None:
                buffer = Buffer.for_type(inst.name or "alloca",
                                         inst.allocated_type)
                allocas[id(inst)] = buffer
            return Pointer(buffer, 0)
        if isinstance(inst, SelectInst):
            cond = self._value(inst.condition, env)
            return self._value(inst.true_value if cond else inst.false_value,
                               env)
        if isinstance(inst, CastInst):
            return self._cast(inst, env)
        if isinstance(inst, CallInst):
            return self._call(inst, env)
        raise InterpreterError(f"unhandled instruction {inst.opcode}")

    def _gep(self, inst: GEPInst, env):
        pointer = self._value(inst.pointer, env)
        if not isinstance(pointer, Pointer):
            raise InterpreterError("gep on non-pointer value")
        ty = inst.pointer.type
        assert isinstance(ty, PointerType)
        offset = pointer.offset
        # First index steps in units of the pointee.
        first = self._value(inst.indices[0], env)
        offset += first * scalar_count(ty.pointee)
        current = ty.pointee
        for index in inst.indices[1:]:
            if not isinstance(current, ArrayType):
                raise InterpreterError("gep into non-array type")
            idx = self._value(index, env)
            current = current.element
            offset += idx * scalar_count(current)
        return Pointer(pointer.buffer, offset)

    def _cast(self, inst: CastInst, env):
        value = self._value(inst.value, env)
        op = inst.opcode
        if op in ("sext", "zext"):
            return int(value)
        if op == "trunc":
            bits = inst.type.bits  # type: ignore[union-attr]
            mask = (1 << bits) - 1
            v = int(value) & mask
            if bits > 1 and v >= (1 << (bits - 1)):
                v -= 1 << bits
            return v
        if op == "sitofp":
            return float(value)
        if op == "fptosi":
            return int(value)
        if op in ("fpext", "fptrunc"):
            return float(value)
        if op == "bitcast":
            return value
        raise InterpreterError(f"unhandled cast {op}")

    def _call(self, inst: CallInst, env):
        args = [self._value(a, env) for a in inst.args]
        name = inst.callee
        if name in _MATH_INTRINSICS:
            return _MATH_INTRINSICS[name](*args)
        if name == "rand":
            return self.rng.next()
        if name == "abs":
            return abs(args[0])
        if name == "max":
            return max(args[0], args[1])
        if name == "min":
            return min(args[0], args[1])
        if inst.is_api_call():
            if self.api_runtime is None:
                raise InterpreterError(
                    f"API call {name} with no runtime attached")
            return self.api_runtime.dispatch(name, args, self)
        function = self.module.functions.get(name)
        if function is not None and not function.is_declaration():
            return self._run_function(function, args)
        raise InterpreterError(f"call to unknown function @{name}")


def _safe_sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else math.nan


def _safe_log(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


_MATH_INTRINSICS = {
    "sqrt": _safe_sqrt,
    "fabs": abs,
    "exp": math.exp,
    "log": _safe_log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": lambda a, b: math.pow(a, b),
    "fmax": max,
    "fmin": min,
}


def _flatten(value) -> list:
    if isinstance(value, (list, tuple)):
        out: list = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [value]
