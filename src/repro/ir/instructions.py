"""Instruction set of the LLVM-like IR.

The opcodes cover what the paper's IDL atomic constraints can name
(``store load return branch add sub mul fadd fsub fmul fdiv select gep
icmp``) plus the rest of what a C front end needs (casts, phi, call,
alloca, remaining integer/float arithmetic, fcmp).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import IRError, SourceLocation
from .types import (
    I1,
    VOID,
    ArrayType,
    IRType,
    PointerType,
)
from .values import User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function


#: Integer binary opcodes.
INT_BINARY_OPS = ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
                  "and", "or", "xor", "shl", "lshr", "ashr")
#: Floating point binary opcodes.
FLOAT_BINARY_OPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
BINARY_OPS = INT_BINARY_OPS + FLOAT_BINARY_OPS

#: Cast opcodes, mapping to (source kind, destination kind).
CAST_OPS = ("sext", "zext", "trunc", "sitofp", "fptosi", "fpext", "fptrunc",
            "bitcast", "ptrtoint", "inttoptr")

ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                   "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge",
                   "ueq", "une", "ult", "ule", "ugt", "uge")

#: Commutative binary opcodes (used by instcombine and idiom atoms).
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


class Instruction(User):
    """Base class for all instructions.

    ``opcode`` is a plain string; IDL atoms match on it directly. ``parent``
    is the containing :class:`BasicBlock` (set on insertion).
    """

    def __init__(self, opcode: str, ty: IRType, operands: Iterable[Value] = (),
                 name: str = ""):
        super().__init__(ty, operands, name)
        self.opcode = opcode
        self.parent: "BasicBlock | None" = None
        self.location: SourceLocation | None = None

    # -- structural helpers ----------------------------------------------------
    @property
    def function(self) -> "Function | None":
        return self.parent.parent if self.parent is not None else None

    def is_terminator(self) -> bool:
        return isinstance(self, (BranchInst, RetInst, UnreachableInst))

    def has_side_effects(self) -> bool:
        """Conservatively, may this instruction write memory / do IO?"""
        if isinstance(self, (StoreInst, RetInst)):
            return True
        if isinstance(self, CallInst):
            return not self.is_pure()
        return False

    def erase_from_parent(self) -> None:
        """Remove from block and drop operands. The value must be unused."""
        if self.uses:
            raise IRError(
                f"cannot erase {self.ref()}: still has {len(self.uses)} uses")
        if self.parent is None:
            raise IRError("instruction has no parent")
        self.parent.remove(self)
        self.drop_all_operands()

    def index_in_block(self) -> int:
        if self.parent is None:
            raise IRError("instruction has no parent")
        return self.parent.instructions.index(self)

    def __repr__(self) -> str:
        return f"<{self.opcode} {self.ref()}>"


class BinaryOperator(Instruction):
    """Two-operand arithmetic/logic: ``%r = add i32 %a, %b``."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPS:
            raise IRError(f"unknown binary opcode {opcode!r}")
        if lhs.type is not rhs.type:
            raise IRError(
                f"binary operand type mismatch: {lhs.type} vs {rhs.type}")
        if opcode in FLOAT_BINARY_OPS and not lhs.type.is_float():
            raise IRError(f"{opcode} requires float operands, got {lhs.type}")
        if opcode in INT_BINARY_OPS and not lhs.type.is_integer():
            raise IRError(f"{opcode} requires integer operands, got {lhs.type}")
        super().__init__(opcode, lhs.type, (lhs, rhs), name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS


class ICmpInst(Instruction):
    """Integer/pointer comparison producing i1."""

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise IRError(f"unknown icmp predicate {predicate!r}")
        if lhs.type is not rhs.type:
            raise IRError(
                f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__("icmp", I1, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class FCmpInst(Instruction):
    """Floating-point comparison producing i1."""

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise IRError(f"unknown fcmp predicate {predicate!r}")
        if lhs.type is not rhs.type:
            raise IRError(
                f"fcmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__("fcmp", I1, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class AllocaInst(Instruction):
    """Stack allocation; yields a pointer to ``allocated_type``."""

    def __init__(self, allocated_type: IRType, name: str = ""):
        super().__init__("alloca", PointerType(allocated_type), (), name)
        self.allocated_type = allocated_type


class LoadInst(Instruction):
    """``%v = load T, T* %p``."""

    def __init__(self, pointer: Value, name: str = ""):
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"load requires pointer operand, got {pointer.type}")
        super().__init__("load", pointer.type.pointee, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    """``store T %v, T* %p`` — void result."""

    def __init__(self, value: Value, pointer: Value):
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"store requires pointer operand, got {pointer.type}")
        if pointer.type.pointee is not value.type:
            raise IRError(
                f"store type mismatch: {value.type} into {pointer.type}")
        super().__init__("store", VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


def gep_result_type(base: IRType, num_indices: int) -> IRType:
    """Compute the value type a GEP with ``num_indices`` indices points to."""
    if not isinstance(base, PointerType):
        raise IRError(f"gep base must be a pointer, got {base}")
    ty: IRType = base.pointee
    # The first index steps *through* the pointer and does not change type.
    for _ in range(num_indices - 1):
        if isinstance(ty, ArrayType):
            ty = ty.element
        else:
            raise IRError(f"gep indexes into non-aggregate type {ty}")
    return PointerType(ty)


class GEPInst(Instruction):
    """``getelementptr`` address arithmetic.

    ``gep T* %p, i64 %i`` is ``&p[i]``; for arrays
    ``gep [N x T]* %p, i64 0, i64 %i`` is ``&(*p)[i]``.
    """

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = ""):
        if not indices:
            raise IRError("gep requires at least one index")
        for idx in indices:
            if not idx.type.is_integer():
                raise IRError(f"gep index must be integer, got {idx.type}")
        result = gep_result_type(pointer.type, len(indices))
        super().__init__("gep", result, (pointer, *indices), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> list[Value]:
        return self.operands[1:]


class BranchInst(Instruction):
    """Conditional or unconditional branch.

    Unconditional: operands = (target,). Conditional: (cond, then, else).
    Block operands are :class:`BasicBlock` values (they have LabelType).
    """

    def __init__(self, *args: Value):
        if len(args) == 1:
            super().__init__("br", VOID, args)
        elif len(args) == 3:
            cond = args[0]
            if cond.type is not I1:
                raise IRError(f"branch condition must be i1, got {cond.type}")
            super().__init__("br", VOID, args)
        else:
            raise IRError("branch takes 1 (target) or 3 (cond, then, else) operands")

    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional():
            raise IRError("unconditional branch has no condition")
        return self.operands[0]

    def targets(self) -> list["BasicBlock"]:
        if self.is_conditional():
            return [self.operands[1], self.operands[2]]  # type: ignore[list-item]
        return [self.operands[0]]  # type: ignore[list-item]


class RetInst(Instruction):
    """``ret T %v`` or ``ret void``."""

    def __init__(self, value: Value | None = None):
        super().__init__("ret", VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Value | None:
        return self.operands[0] if self.operands else None


class UnreachableInst(Instruction):
    def __init__(self) -> None:
        super().__init__("unreachable", VOID, ())


class PhiInst(Instruction):
    """SSA phi node. Operands alternate value0, block0, value1, block1, ...

    The paper identifies a phi's incoming blocks with their *terminating
    branch instruction*; :meth:`incoming_branch` exposes that view for the
    IDL ``reaches phi node ... from`` atom.
    """

    def __init__(self, ty: IRType, name: str = ""):
        super().__init__("phi", ty, (), name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise IRError(
                f"phi incoming type mismatch: {value.type} vs {self.type}")
        self.append_operand(value)
        self.append_operand(block)

    @property
    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        pairs = []
        for i in range(0, len(self.operands), 2):
            pairs.append((self.operands[i], self.operands[i + 1]))
        return pairs  # type: ignore[return-value]

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, blk in self.incoming:
            if blk is block:
                return value
        raise IRError(f"phi has no incoming value for block {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i in range(0, len(self.operands), 2):
            if self.operands[i + 1] is block:
                # Drop both operand slots, rebuilding use records.
                values = [(v, b) for v, b in self.incoming if b is not block]
                self.drop_all_operands()
                for v, b in values:
                    self.append_operand(v)
                    self.append_operand(b)
                return
        raise IRError(f"phi has no incoming edge from {block.name}")


class SelectInst(Instruction):
    """``%r = select i1 %c, T %a, T %b``."""

    def __init__(self, cond: Value, true_value: Value, false_value: Value,
                 name: str = ""):
        if cond.type is not I1:
            raise IRError(f"select condition must be i1, got {cond.type}")
        if true_value.type is not false_value.type:
            raise IRError("select arm types differ")
        super().__init__("select", true_value.type,
                         (cond, true_value, false_value), name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class CastInst(Instruction):
    """Type conversion (sext/zext/trunc/sitofp/fptosi/fpext/fptrunc/...)."""

    def __init__(self, opcode: str, value: Value, dest: IRType, name: str = ""):
        if opcode not in CAST_OPS:
            raise IRError(f"unknown cast opcode {opcode!r}")
        _check_cast(opcode, value.type, dest)
        super().__init__(opcode, dest, (value,), name)

    @property
    def value(self) -> Value:
        return self.operands[0]


def _check_cast(opcode: str, src: IRType, dest: IRType) -> None:
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise IRError(f"invalid {opcode}: {src} -> {dest} ({msg})")

    if opcode in ("sext", "zext"):
        need(src.is_integer() and dest.is_integer(), "int->int")
        need(src.bits < dest.bits, "must widen")  # type: ignore[union-attr]
    elif opcode == "trunc":
        need(src.is_integer() and dest.is_integer(), "int->int")
        need(src.bits > dest.bits, "must narrow")  # type: ignore[union-attr]
    elif opcode == "sitofp":
        need(src.is_integer() and dest.is_float(), "int->float")
    elif opcode == "fptosi":
        need(src.is_float() and dest.is_integer(), "float->int")
    elif opcode == "fpext":
        need(src.is_float() and dest.is_float(), "float->float")
        need(src.bits < dest.bits, "must widen")  # type: ignore[union-attr]
    elif opcode == "fptrunc":
        need(src.is_float() and dest.is_float(), "float->float")
        need(src.bits > dest.bits, "must narrow")  # type: ignore[union-attr]
    elif opcode == "ptrtoint":
        need(src.is_pointer() and dest.is_integer(), "ptr->int")
    elif opcode == "inttoptr":
        need(src.is_integer() and dest.is_pointer(), "int->ptr")
    elif opcode == "bitcast":
        need(src.is_pointer() and dest.is_pointer(), "ptr->ptr only")


#: Math intrinsics the interpreter understands; all are pure.
PURE_INTRINSICS = frozenset({
    "sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "tan", "floor",
    "ceil", "fmax", "fmin", "abs", "max", "min", "rand",
})


class CallInst(Instruction):
    """Direct call to a named callee.

    The callee is referenced by name (our IR has no function pointers). After
    idiom replacement, calls whose name starts with ``"repro.api."`` are
    runtime API dispatches handled by :mod:`repro.runtime`.
    """

    def __init__(self, callee: str, args: Sequence[Value], ret: IRType,
                 name: str = ""):
        super().__init__("call", ret, tuple(args), name)
        self.callee = callee

    @property
    def args(self) -> list[Value]:
        return list(self.operands)

    def is_intrinsic(self) -> bool:
        return self.callee in PURE_INTRINSICS

    def is_api_call(self) -> bool:
        return self.callee.startswith("repro.api.")

    def is_pure(self) -> bool:
        # rand is "pure" for data-flow purposes (no memory writes).
        return self.is_intrinsic()
