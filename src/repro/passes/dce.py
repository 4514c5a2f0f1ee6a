"""Aggressive dead code elimination (mark-sweep liveness).

Roots are instructions with observable effects (stores, impure calls,
terminators, returns); everything not transitively reachable from a root
through operand edges is deleted — including dead phi *cycles*, which the
front end's scoped-variable lowering produces around loop nests and which
a naive use-count DCE can never remove.
"""

from __future__ import annotations

from ..ir.instructions import Instruction
from ..ir.module import Function
from ..ir.values import UndefValue


def eliminate_dead_code(function: Function) -> int:
    """Mark-sweep DCE; returns number of removed instructions."""
    live: set[int] = set()
    stack: list[Instruction] = []
    for block in function.blocks:
        for inst in block.instructions:
            if inst.is_terminator() or inst.has_side_effects():
                live.add(id(inst))
                stack.append(inst)
    while stack:
        inst = stack.pop()
        for op in inst.operands:
            if isinstance(op, Instruction) and id(op) not in live:
                live.add(id(op))
                stack.append(op)

    dead: list[Instruction] = []
    for block in function.blocks:
        for inst in block.instructions:
            if id(inst) not in live:
                dead.append(inst)
    # Detach all dead instructions first (they may form cycles), then erase.
    for inst in dead:
        inst.drop_all_operands()
    for inst in dead:
        if inst.uses:
            # Only other dead instructions could have used it; after
            # drop_all_operands none remain. Guard anyway.
            inst.replace_all_uses_with(UndefValue(inst.type))
        inst.parent.remove(inst)
    return len(dead)
