"""Peephole canonicalisations (a small slice of LLVM's instcombine).

The goal is canonical form, not optimisation strength: idiom descriptions
assume constants sit on the right of commutative operators and that
identity operations have been folded away — the same assumptions the
paper's IDL programs make about ``-O2`` IR.
"""

from __future__ import annotations

from ..ir.instructions import BinaryOperator, CastInst, ICmpInst
from ..ir.module import Function
from ..ir.values import Constant, ConstantInt, Value

_ICMP_SWAP = {"eq": "eq", "ne": "ne", "slt": "sgt", "sle": "sge",
              "sgt": "slt", "sge": "sle", "ult": "ugt", "ule": "uge",
              "ugt": "ult", "uge": "ule"}


def _canonicalise_commutative(inst: BinaryOperator) -> bool:
    """Move the constant operand of a commutative op to the right."""
    if inst.is_commutative() and isinstance(inst.lhs, Constant) and \
            not isinstance(inst.rhs, Constant):
        lhs, rhs = inst.lhs, inst.rhs
        inst.set_operand(0, rhs)
        inst.set_operand(1, lhs)
        return True
    return False


def _simplify_identity(inst: BinaryOperator) -> Value | None:
    """x+0, x-0, x*1, x*0, x/1, shifts by 0, and/or identities."""
    rhs = inst.rhs
    if not isinstance(rhs, ConstantInt):
        return None
    op, value = inst.opcode, rhs.value
    if value == 0 and op in ("add", "sub", "or", "xor", "shl", "ashr", "lshr"):
        return inst.lhs
    if value == 1 and op in ("mul", "sdiv", "udiv"):
        return inst.lhs
    if value == 0 and op == "mul":
        return ConstantInt(inst.type, 0)
    if value == 0 and op == "and":
        return ConstantInt(inst.type, 0)
    if value == -1 and op == "and":
        return inst.lhs
    return None


def _merge_double_sext(inst: CastInst) -> Value | None:
    """sext(sext(x)) → sext(x) with the wider target."""
    if inst.opcode not in ("sext", "zext"):
        return None
    inner = inst.value
    if isinstance(inner, CastInst) and inner.opcode == inst.opcode and \
            len(inner.uses) == 1:
        merged = CastInst(inst.opcode, inner.value, inst.type)
        block = inst.parent
        merged.name = block.parent.unique_name(inst.name or "cast")
        block.insert(inst.index_in_block(), merged)
        return merged
    return None


def _canonicalise_icmp(inst: ICmpInst) -> bool:
    """Put the constant on the right of comparisons."""
    if isinstance(inst.lhs, Constant) and not isinstance(inst.rhs, Constant):
        lhs, rhs = inst.lhs, inst.rhs
        inst.set_operand(0, rhs)
        inst.set_operand(1, lhs)
        inst.predicate = _ICMP_SWAP[inst.predicate]
        return True
    return False


def combine_instructions(function: Function) -> int:
    """Run all peepholes to a fixed point; returns number of rewrites."""
    total = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if isinstance(inst, BinaryOperator):
                    if _canonicalise_commutative(inst):
                        total += 1
                        changed = True
                    replacement = _simplify_identity(inst)
                    if replacement is not None:
                        inst.replace_all_uses_with(replacement)
                        inst.erase_from_parent()
                        total += 1
                        changed = True
                        continue
                elif isinstance(inst, ICmpInst):
                    if _canonicalise_icmp(inst):
                        total += 1
                        changed = True
                elif isinstance(inst, CastInst):
                    replacement = _merge_double_sext(inst)
                    if replacement is not None:
                        inst.replace_all_uses_with(replacement)
                        inst.erase_from_parent()
                        total += 1
                        changed = True
                        continue
    return total
