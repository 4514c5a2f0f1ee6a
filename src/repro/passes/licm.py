"""Loop-invariant code motion.

Hoists invariant computation (including loads, under type-based aliasing
rules like clang's TBAA) into the loop preheader. This produces the paper's
Figure 4 shape where the inner loop's ``iter_end`` bound —
``rowstr[j+1]`` — is computed once in the outer body, which the ReadRange
idiom (Figure 12) depends on.
"""

from __future__ import annotations

from ..analysis.loops import Loop, LoopInfo
from ..analysis.memdep import may_alias
from ..ir.instructions import (
    BinaryOperator,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
    StoreInst,
)
from ..ir.module import Function
from ..ir.types import PointerType
from ..ir.values import Value


def _types_may_alias(a: Value, b: Value) -> bool:
    """Strict-aliasing refinement: different scalar pointee types ⇒ no alias."""
    ta, tb = a.type, b.type
    if isinstance(ta, PointerType) and isinstance(tb, PointerType):
        pa, pb = ta.pointee, tb.pointee
        if pa is not pb and not pa.is_array() and not pb.is_array():
            return False
    return True


def _loop_has_aliasing_write(loop: Loop, pointer: Value) -> bool:
    for inst in loop.instructions():
        if isinstance(inst, StoreInst):
            if _types_may_alias(inst.pointer, pointer) and \
                    may_alias(inst.pointer, pointer):
                return True
        elif isinstance(inst, CallInst) and not inst.is_pure():
            return True
    return False


def _is_invariant(inst: Instruction, loop: Loop,
                  hoisted: set[int]) -> bool:
    for op in inst.operands:
        if isinstance(op, Instruction):
            if loop.contains(op) and id(op) not in hoisted:
                return False
    return True


def _hoistable(inst: Instruction, loop: Loop) -> bool:
    """Is this instruction class safe to move to the preheader?

    Arithmetic/casts/geps/cmps/selects never fault. Loads and integer
    division may fault, so they only hoist from the loop *header* (which is
    guaranteed to execute whenever the preheader does). Stores, phis,
    terminators and calls never hoist.
    """
    if isinstance(inst, (PhiInst, StoreInst, CallInst)) or inst.is_terminator():
        return False
    in_header = inst.parent is loop.header
    if isinstance(inst, LoadInst):
        return in_header and not _loop_has_aliasing_write(loop, inst.pointer)
    if isinstance(inst, BinaryOperator) and inst.opcode in (
            "sdiv", "udiv", "srem", "urem"):
        return in_header
    return isinstance(inst, (BinaryOperator, CastInst, GEPInst, ICmpInst,
                             FCmpInst, SelectInst))


def hoist_loop_invariants(function: Function) -> int:
    """Run LICM over all loops (innermost first). Returns hoist count."""
    info = LoopInfo(function)
    total = 0
    # Innermost first so invariants bubble outwards across iterations.
    for loop in sorted(info.loops, key=lambda l: -l.depth):
        preheader = loop.preheader()
        if preheader is None or preheader.terminator is None:
            continue
        insertion = preheader.terminator
        hoisted: set[int] = set()
        changed = True
        while changed:
            changed = False
            for block in loop.blocks:
                for inst in list(block.instructions):
                    if id(inst) in hoisted:
                        continue
                    if not _hoistable(inst, loop):
                        continue
                    if not _is_invariant(inst, loop, hoisted):
                        continue
                    block.remove(inst)
                    preheader.insert(insertion.index_in_block(), inst)
                    hoisted.add(id(inst))
                    total += 1
                    changed = True
    return total
