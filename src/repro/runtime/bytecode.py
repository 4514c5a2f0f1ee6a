"""Bytecode compiler: lowers IR functions to flat register-machine code.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` re-resolves
every operand (isinstance chain + ``id()`` dict lookup) on every dynamic
instruction. This module performs all of that work **once per function**:

* every SSA value (argument, instruction result, constant) is numbered into
  a dense register slot; operands become plain list indexes;
* constants — including global-variable addresses and ``undef`` — are
  materialised into a register prototype copied at frame entry, so the
  executor never distinguishes constant from register operands;
* phi nodes emit no code: each CFG edge carries a pre-sequentialised move
  list (parallel-copy semantics, cycles broken through a scratch slot);
* block successors are resolved to program-counter targets, and every edge
  knows the dense index of its destination block for O(1) profile counting;
* loop back edges (edges into a block still on the depth-first stack) get
  their own opcodes, so only they carry the JIT's tier-up hook and forward
  jumps stay as cheap as before;
* GEP index scales are folded from the static type layout, constant indices
  collapse into a single addend, and a GEP whose only use is a load/store in
  the same block is fused into an indexed memory op (no intermediate
  :class:`~repro.runtime.memory.Pointer` is allocated);
* per-opcode Python callables (``operator.add`` and friends, cast and
  fcmp closures, math natives) are bound directly into the instruction
  tuples, so the VM loop does zero per-step dict lookups.

Execution of the compiled form lives in :mod:`repro.runtime.vm`. Dynamic
per-block execution counts are tracked by block index and re-keyed to the
originating :class:`~repro.ir.module.BasicBlock` objects, which makes VM
profiles count-identical to the reference interpreter's.
"""

from __future__ import annotations

import math
import operator

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
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.module import BasicBlock, Function
from ..ir.types import ArrayType, PointerType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from .interpreter import _MATH_INTRINSICS
from .memory import scalar_count

# -- opcodes (ordered roughly by dynamic frequency for VM dispatch) -----------
OP_BIN = 0          # (op, dest, a, b, fn)            regs[dest] = fn(ra, rb)
OP_LOADIDX = 1      # (op, dest, p, idx, scale, add)  fused gep+load
OP_STOREIDX = 2     # (op, val, p, idx, scale, add)   fused gep+store
OP_BR = 3           # (op, cond, then_edge, else_edge)
OP_JMP = 4          # (op, edge)
OP_GEP = 5          # (op, dest, p, pairs, add)       pairs: ((idx, scale),…)
OP_LOAD = 6         # (op, dest, p)
OP_STORE = 7        # (op, val, p)
OP_SELECT = 8       # (op, dest, c, t, f)
OP_UN = 9           # (op, dest, a, fn)               casts
OP_NAT1 = 10        # (op, dest, a, fn)               1-arg native call
OP_NAT2 = 11        # (op, dest, a, b, fn)            2-arg native call
OP_NATN = 12        # (op, dest, slots, fn)           n-arg native call
OP_RAND = 13        # (op, dest)
OP_CALL_API = 14    # (op, dest, callee, slots)
OP_CALL_FN = 15     # (op, dest, fname, slots)
OP_RET = 16         # (op, slot_or_minus1)
OP_ALLOCA = 17      # (op, dest, aidx, name, ty)
OP_UNREACHABLE = 18  # (op,)
OP_LOADN = 19       # (op, dest, p, pairs, add)      fused multi-index load
OP_STOREN = 20      # (op, val, p, pairs, add)       fused multi-index store
OP_LOOP = 21        # (op, edge)                      loop back edge
OP_LOOPBR = 22      # (op, cond, then_edge, else_edge, heads)
#                     branch with a back-edge arm; heads: its back-edge
#                     target block indices

#: A CFG edge as stored in branch instructions:
#: (target_pc, move_pairs, target_block_index).
Edge = tuple


def _raise_div_zero():
    raise InterpreterError("integer division by zero")


def _raise_rem_zero():
    raise InterpreterError("integer remainder by zero")


def _sdiv(a, b):
    if b == 0:
        _raise_div_zero()
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _srem(a, b):
    if b == 0:
        _raise_rem_zero()
    q = abs(a) // abs(b)
    q = q if (a >= 0) == (b >= 0) else -q
    return a - q * b


def _fdiv(a, b):
    return a / b if b != 0 else math.copysign(math.inf, a)


def _frem(a, b):
    return math.fmod(a, b) if b != 0 else math.nan


#: opcode -> binary callable; semantics identical to the reference
#: interpreter's _INT_OPS/_FLOAT_OPS tables.
BIN_FNS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": operator.lshift, "ashr": operator.rshift,
    "lshr": lambda a, b: (a & 0xFFFFFFFFFFFFFFFF) >> b,
    "fadd": operator.add, "fsub": operator.sub, "fmul": operator.mul,
    "fdiv": _fdiv, "frem": _frem,
    "sdiv": _sdiv, "udiv": _sdiv, "srem": _srem, "urem": _srem,
}

#: icmp predicate -> callable (signed/unsigned identical over Python ints,
#: exactly as in the reference engine).
ICMP_FNS = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
}

_FCMP_BASE = {
    "oeq": operator.eq, "one": operator.ne, "olt": operator.lt,
    "ole": operator.le, "ogt": operator.gt, "oge": operator.ge,
    "ueq": operator.eq, "une": operator.ne, "ult": operator.lt,
    "ule": operator.le, "ugt": operator.gt, "uge": operator.ge,
}


def _fcmp_fn(predicate: str):
    base = _FCMP_BASE[predicate]
    on_nan = not predicate.startswith("o")

    def fn(a, b):
        if math.isnan(a) or math.isnan(b):
            return on_nan
        return base(a, b)
    return fn


FCMP_FNS = {pred: _fcmp_fn(pred) for pred in _FCMP_BASE}


def _trunc_fn(bits: int):
    mask = (1 << bits) - 1
    wrap = 1 << bits
    half = 1 << (bits - 1) if bits > 1 else wrap

    def fn(v):
        v = int(v) & mask
        return v - wrap if v >= half else v
    return fn


def _cast_fn(inst: CastInst):
    op = inst.opcode
    if op in ("sext", "zext", "fptosi"):
        return int
    if op == "trunc":
        return _trunc_fn(inst.type.bits)  # type: ignore[union-attr]
    if op in ("sitofp", "fpext", "fptrunc"):
        return float
    if op == "bitcast":
        return lambda v: v
    raise InterpreterError(f"unhandled cast {op}")


class BytecodeFunction:
    """One function lowered to flat register bytecode."""

    __slots__ = ("name", "code", "blocks", "block_starts", "n_regs",
                 "n_allocas", "arg_slots", "literal_consts", "global_consts",
                 "value_slots")

    def __init__(self, name: str):
        self.name = name
        self.code: list[tuple] = []
        self.blocks: list[BasicBlock] = []
        #: pc of each block's first instruction, indexed like ``blocks``;
        #: lets the JIT walk code block-by-block.
        self.block_starts: list[int] = []
        self.n_regs = 0
        self.n_allocas = 0
        self.arg_slots: list[int] = []
        #: [(slot, python value)] — constants independent of the VM instance.
        self.literal_consts: list[tuple[int, object]] = []
        #: [(slot, global name)] — resolved to Pointers per VM instance.
        self.global_consts: list[tuple[int, str]] = []
        #: id(IR value) -> register slot, for consumers (the JIT's affine
        #: loop analysis) that reason on the typed IR but emit slot names.
        self.value_slots: dict[int, int] = {}


def sequence_moves(pairs: list[tuple[int, int]], get_temp) -> tuple:
    """Order parallel copies so no source is clobbered before it is read.

    ``pairs`` is a list of (dst, src) register moves with simultaneous
    semantics (phi evaluation on a CFG edge). Cycles (e.g. the classic
    two-phi swap) are broken by spilling one destination to a scratch slot
    obtained from ``get_temp()``.
    """
    pending = {d: s for d, s in pairs if d != s}
    ordered: list[tuple[int, int]] = []
    while pending:
        ready = [d for d, s in pending.items()
                 if not any(src == d for dd, src in pending.items()
                            if dd != d)]
        if ready:
            for d in ready:
                ordered.append((d, pending.pop(d)))
            continue
        # Pure cycle: save one destination, redirect its readers.
        d = next(iter(pending))
        temp = get_temp()
        ordered.append((temp, d))
        pending = {dd: (temp if ss == d else ss)
                   for dd, ss in pending.items()}
    return tuple(ordered)


class _FunctionCompiler:
    def __init__(self, function: Function):
        self.function = function
        self.slots: dict[int, int] = {}   # id(value) -> register slot
        self.next_slot = 0
        self.literal_consts: dict[tuple, int] = {}
        self.global_consts: dict[str, int] = {}
        self.fused: set[int] = set()      # id(gep) emitted via fused mem ops
        self.temp_slot: int | None = None

    # -- slot allocation -------------------------------------------------------
    def _new_slot(self) -> int:
        slot = self.next_slot
        self.next_slot += 1
        return slot

    def _const_slot(self, key: tuple, table: dict) -> int:
        slot = table.get(key)
        if slot is None:
            slot = self._new_slot()
            table[key] = slot
        return slot

    def slot_of(self, value: Value) -> int:
        """The register slot holding ``value`` (allocating const slots)."""
        if isinstance(value, ConstantInt):
            return self._const_slot(("i", value.value), self.literal_consts)
        if isinstance(value, ConstantFloat):
            # repr() keeps -0.0 and nan distinct from 0.0 under dict keys.
            return self._const_slot(("f", repr(value.value)),
                                    self.literal_consts)
        if isinstance(value, GlobalVariable):
            return self._const_slot(value.name, self.global_consts)
        if isinstance(value, ConstantPointerNull):
            return self._const_slot(("null",), self.literal_consts)
        if isinstance(value, UndefValue):
            # The reference engine reads undef as integer zero.
            return self._const_slot(("i", 0), self.literal_consts)
        slot = self.slots.get(id(value))
        if slot is None:
            raise InterpreterError(
                f"use of undefined value {value.ref()} in @"
                f"{self.function.name}")
        return slot

    def _get_temp(self) -> int:
        if self.temp_slot is None:
            self.temp_slot = self._new_slot()
        return self.temp_slot

    # -- GEP lowering ----------------------------------------------------------
    def _gep_parts(self, gep: GEPInst) -> tuple[Value, list, int]:
        """(base pointer value, [(index value, scale)…], constant addend).

        Mirrors the reference engine's address arithmetic: the first index
        steps in whole pointees, later indices step through array elements.
        """
        ty = gep.pointer.type
        if not isinstance(ty, PointerType):
            raise InterpreterError("gep on non-pointer value")
        scales = [scalar_count(ty.pointee)]
        current = ty.pointee
        for _ in gep.indices[1:]:
            if not isinstance(current, ArrayType):
                raise InterpreterError("gep into non-array type")
            current = current.element
            scales.append(scalar_count(current))
        addend = 0
        pairs = []
        for index, scale in zip(gep.indices, scales):
            if isinstance(index, ConstantInt):
                addend += index.value * scale
            else:
                pairs.append((index, scale))
        return gep.pointer, pairs, addend

    def _fusable(self, value: Value, user) -> bool:
        """May ``value`` (a gep) be recomputed at ``user``'s position?

        Safe when the gep has exactly one use and that use sits in the same
        block: register slots are assigned once per block visit, so every
        operand still holds the same value at the user's position.
        """
        return (isinstance(value, GEPInst)
                and len(value.uses) == 1
                and value.parent is user.parent)

    def _resolve_address(self, gep: GEPInst) -> tuple[int, tuple, int]:
        """(base slot, ((idx slot, scale)…), addend), folding gep chains.

        Must walk chains exactly as the fusion pre-pass in :meth:`compile`
        does, so every gep marked fused is folded here and nothing else is.
        """
        base, pairs, addend = self._gep_parts(gep)
        user: GEPInst = gep
        while self._fusable(base, user):
            inner_base, inner_pairs, inner_add = self._gep_parts(base)
            pairs = inner_pairs + pairs
            addend += inner_add
            user, base = base, inner_base
        return (self.slot_of(base),
                tuple((self.slot_of(v), s) for v, s in pairs),
                addend)

    # -- compilation -----------------------------------------------------------
    def compile(self) -> BytecodeFunction:
        function = self.function
        bc = BytecodeFunction(function.name)
        for arg in function.args:
            self.slots[id(arg)] = self._new_slot()
        bc.arg_slots = [self.slots[id(a)] for a in function.args]
        # Pre-assign result slots so forward references (loops) resolve.
        n_allocas = 0
        for inst in function.instructions():
            if isinstance(inst, AllocaInst):
                n_allocas += 1
            if not inst.type.is_void():
                self.slots[id(inst)] = self._new_slot()
        bc.n_allocas = n_allocas

        # Mark geps fused into their single same-block memory user (chains
        # fold transitively); they emit no standalone code of their own.
        for inst in function.instructions():
            if isinstance(inst, (LoadInst, StoreInst)):
                pointer = inst.pointer
                while self._fusable(pointer, inst):
                    self.fused.add(id(pointer))
                    inst, pointer = pointer, pointer.pointer

        block_index = {id(b): i for i, b in enumerate(function.blocks)}
        bc.blocks = list(function.blocks)
        code = bc.code
        block_pcs: dict[int, int] = {}
        branch_fixups: list[tuple[int, BranchInst, BasicBlock]] = []
        alloca_index = 0

        for block in function.blocks:
            block_pcs[id(block)] = len(code)
            emitted = False
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    continue  # materialised as edge moves
                op = self._emit(inst, code, branch_fixups, alloca_index)
                if isinstance(inst, AllocaInst):
                    alloca_index += 1
                emitted = emitted or op
            if not emitted:  # pragma: no cover - verified IR always emits
                raise InterpreterError(
                    f"block %{block.name} fell through without terminator")

        # Resolve branch targets to (pc, moves, block index) edges.
        back = _back_edges(function)
        for pc, branch, source in branch_fixups:
            inst = code[pc]
            if inst[0] == OP_JMP:
                target = branch.targets()[0]
                op = OP_LOOP if (id(source), id(target)) in back else OP_JMP
                code[pc] = (op, self._edge(target, source, block_pcs,
                                           block_index))
            else:
                then_b, else_b = branch.targets()
                edges = (self._edge(then_b, source, block_pcs, block_index),
                         self._edge(else_b, source, block_pcs, block_index))
                heads = tuple(block_index[id(t)]
                              for t in source.successors()
                              if (id(source), id(t)) in back)
                if heads:
                    code[pc] = (OP_LOOPBR, inst[1], *edges, heads)
                else:
                    code[pc] = (OP_BR, inst[1], *edges)
        bc.block_starts = [block_pcs[id(b)] for b in function.blocks]
        bc.value_slots = dict(self.slots)
        bc.n_regs = self.next_slot
        bc.literal_consts = [(slot, _literal_value(key))
                             for key, slot in self.literal_consts.items()]
        bc.global_consts = [(slot, name)
                            for name, slot in self.global_consts.items()]
        return bc

    def _edge(self, target: BasicBlock, source: BasicBlock,
              block_pcs: dict, block_index: dict) -> Edge:
        moves = [(self.slots[id(phi)],
                  self.slot_of(phi.incoming_value_for(source)))
                 for phi in target.phis()]
        return (block_pcs[id(target)],
                sequence_moves(moves, self._get_temp),
                block_index[id(target)])

    def _emit(self, inst, code: list, branch_fixups: list,
              alloca_index: int) -> bool:
        """Append the bytecode for one instruction; False if none emitted."""
        if isinstance(inst, BinaryOperator):
            fn = BIN_FNS.get(inst.opcode)
            if fn is None:
                raise InterpreterError(f"unhandled binop {inst.opcode}")
            code.append((OP_BIN, self.slots[id(inst)],
                         self.slot_of(inst.lhs), self.slot_of(inst.rhs), fn))
        elif isinstance(inst, ICmpInst):
            code.append((OP_BIN, self.slots[id(inst)],
                         self.slot_of(inst.lhs), self.slot_of(inst.rhs),
                         ICMP_FNS[inst.predicate]))
        elif isinstance(inst, FCmpInst):
            code.append((OP_BIN, self.slots[id(inst)],
                         self.slot_of(inst.lhs), self.slot_of(inst.rhs),
                         FCMP_FNS[inst.predicate]))
        elif isinstance(inst, LoadInst):
            dest = self.slots[id(inst)]
            pointer = inst.pointer
            if self._fusable(pointer, inst):
                base, pairs, add = self._resolve_address(pointer)
                if len(pairs) == 1:
                    code.append((OP_LOADIDX, dest, base,
                                 pairs[0][0], pairs[0][1], add))
                else:
                    code.append((OP_LOADN, dest, base, pairs, add))
            else:
                code.append((OP_LOAD, dest, self.slot_of(pointer)))
        elif isinstance(inst, StoreInst):
            val = self.slot_of(inst.value)
            pointer = inst.pointer
            if self._fusable(pointer, inst):
                base, pairs, add = self._resolve_address(pointer)
                if len(pairs) == 1:
                    code.append((OP_STOREIDX, val, base,
                                 pairs[0][0], pairs[0][1], add))
                else:
                    code.append((OP_STOREN, val, base, pairs, add))
            else:
                code.append((OP_STORE, val, self.slot_of(pointer)))
        elif isinstance(inst, GEPInst):
            if id(inst) in self.fused:
                return False
            base, pairs, addend = self._gep_parts(inst)
            code.append((OP_GEP, self.slots[id(inst)], self.slot_of(base),
                         tuple((self.slot_of(v), s) for v, s in pairs),
                         addend))
        elif isinstance(inst, BranchInst):
            pc = len(code)
            if inst.is_conditional():
                code.append((OP_BR, self.slot_of(inst.condition),
                             None, None))
            else:
                code.append((OP_JMP, None))
            branch_fixups.append((pc, inst, inst.parent))
        elif isinstance(inst, RetInst):
            code.append((OP_RET,
                         -1 if inst.value is None
                         else self.slot_of(inst.value)))
        elif isinstance(inst, PhiInst):  # pragma: no cover - filtered above
            return False
        elif isinstance(inst, SelectInst):
            code.append((OP_SELECT, self.slots[id(inst)],
                         self.slot_of(inst.condition),
                         self.slot_of(inst.true_value),
                         self.slot_of(inst.false_value)))
        elif isinstance(inst, CastInst):
            code.append((OP_UN, self.slots[id(inst)],
                         self.slot_of(inst.value), _cast_fn(inst)))
        elif isinstance(inst, CallInst):
            self._emit_call(inst, code)
        elif isinstance(inst, AllocaInst):
            code.append((OP_ALLOCA, self.slots[id(inst)], alloca_index,
                         inst.name or "alloca", inst.allocated_type))
        elif isinstance(inst, UnreachableInst):
            code.append((OP_UNREACHABLE,))
        else:
            raise InterpreterError(f"unhandled instruction {inst.opcode}")
        return True

    def _emit_call(self, inst: CallInst, code: list) -> None:
        dest = self.slots.get(id(inst), -1)
        slots = [self.slot_of(a) for a in inst.args]
        name = inst.callee
        fn = _NATIVE_FNS.get(name)
        if fn is not None:
            if dest < 0:
                # The OP_NAT* executors store unconditionally (natives are
                # hot); route a discarded result to a scratch slot rather
                # than guarding the fast path.
                dest = self._new_slot()
            if len(slots) == 1:
                code.append((OP_NAT1, dest, slots[0], fn))
            elif len(slots) == 2:
                code.append((OP_NAT2, dest, slots[0], slots[1], fn))
            else:
                code.append((OP_NATN, dest, tuple(slots), fn))
        elif name == "rand":
            code.append((OP_RAND, dest))
        elif inst.is_api_call():
            code.append((OP_CALL_API, dest, name, tuple(slots)))
        else:
            code.append((OP_CALL_FN, dest, name, tuple(slots)))


def _back_edges(function: Function) -> set[tuple[int, int]]:
    """``(id(source), id(target))`` of every edge that reaches a block
    still on the depth-first stack: the loop back edges of a reducible CFG.
    Each target is either the entry block or has a second, earlier
    in-edge, so the JIT always gives it a dispatch arm to enter at."""
    back: set[tuple[int, int]] = set()
    entry = function.blocks[0]
    on_stack = {id(entry): True}     # id -> still on the stack?
    stack = [(entry, iter(entry.successors()))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            state = on_stack.get(id(succ))
            if state is None:
                on_stack[id(succ)] = True
                stack.append((succ, iter(succ.successors())))
                break
            if state:
                back.add((id(block), id(succ)))
        else:
            on_stack[id(block)] = False
            stack.pop()
    return back


#: Natives dispatched without touching VM state. Checked before module
#: functions, exactly like the reference engine's call path.
_NATIVE_FNS = dict(_MATH_INTRINSICS)
_NATIVE_FNS.update({"abs": abs, "max": max, "min": min})


def _literal_value(key: tuple):
    kind, *rest = key
    if kind == "i":
        return rest[0]
    if kind == "f":
        return float(rest[0])
    return None  # ("null",)


def compile_function(function: Function) -> BytecodeFunction:
    """Lower one defined IR function to flat bytecode."""
    if function.is_declaration():
        raise InterpreterError(f"cannot compile declaration @{function.name}")
    return _FunctionCompiler(function).compile()
