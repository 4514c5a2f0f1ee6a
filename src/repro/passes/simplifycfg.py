"""CFG simplification: unreachable-block removal and block merging.

Merging a straight-line body block with its fallthrough successor is what
compacts the front end's ``for.body → for.step`` chains into the single
latch block the paper's Figure 4 IR exhibits.
"""

from __future__ import annotations

from ..analysis.cfg import reachable_blocks
from ..ir.instructions import BranchInst, PhiInst
from ..ir.module import Function
from .mem2reg import remove_trivial_phis


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry; fix phis of survivors."""
    live = reachable_blocks(function)
    dead = [b for b in function.blocks if id(b) not in live]
    if not dead:
        return 0
    dead_ids = {id(b) for b in dead}
    # Remove phi incoming edges that came from dead blocks.
    for block in function.blocks:
        if id(block) in dead_ids:
            continue
        for phi in list(block.phis()):
            for _, pred in list(phi.incoming):
                if id(pred) in dead_ids:
                    phi.remove_incoming(pred)
    # Drop operand links so use lists stay consistent, then delete.
    from ..ir.values import UndefValue

    for block in dead:
        for inst in list(block.instructions):
            inst.drop_all_operands()
        for inst in list(block.instructions):
            if inst.uses:
                inst.replace_all_uses_with(UndefValue(inst.type))
            block.remove(inst)
        if block.uses:
            # Stray phi entries from other dead blocks may still point here.
            for use in list(block.uses):
                use.user.drop_all_operands()
        function.remove_block(block)
    remove_trivial_phis(function)
    return len(dead)


def collapse_identical_branches(function: Function) -> int:
    """``br i1 %c, %bb, %bb`` → ``br %bb``."""
    count = 0
    for block in function.blocks:
        term = block.terminator
        if isinstance(term, BranchInst) and term.is_conditional():
            then_b, else_b = term.operands[1], term.operands[2]
            if then_b is else_b:
                target = then_b
                block.remove(term)
                term.drop_all_operands()
                block.append(BranchInst(target))
                count += 1
    return count


def merge_blocks(function: Function) -> int:
    """Merge B→S when B unconditionally branches to S and S has no other
    predecessors. S's phis are necessarily trivial and get folded."""
    merged = 0
    changed = True
    while changed:
        changed = False
        for block in list(function.blocks):
            term = block.terminator
            if not isinstance(term, BranchInst) or term.is_conditional():
                continue
            succ = term.targets()[0]
            if succ is block or succ is function.entry:
                continue
            preds = succ.predecessors()
            if len(preds) != 1 or preds[0] is not block:
                continue
            # Fold S's phis (single predecessor ⇒ single incoming value).
            for phi in list(succ.phis()):
                phi.replace_all_uses_with(phi.incoming[0][0])
                phi.erase_from_parent()
            block.remove(term)
            term.drop_all_operands()
            for inst in list(succ.instructions):
                succ.remove(inst)
                block.append(inst)
            # Any branch still naming succ cannot exist (it had one pred),
            # but phi users referencing succ as incoming block must follow
            # the merge.
            succ.replace_all_uses_with(block)
            function.remove_block(succ)
            merged += 1
            changed = True
            break
    return merged


def remove_empty_forwarders(function: Function) -> int:
    """Remove blocks that only ``br %S``, rewiring predecessors to S.

    Skipped when S has phis whose value would become ambiguous (a pred of
    the forwarder already being a pred of S with a different phi arm).
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in list(function.blocks):
            if block is function.entry or len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, BranchInst) or term.is_conditional():
                continue
            succ = term.targets()[0]
            if succ is block:
                continue
            preds = block.predecessors()
            if not preds:
                continue
            succ_preds = {id(p) for p in succ.predecessors()}
            if succ.phis():
                if any(id(p) in succ_preds for p in preds):
                    continue  # would create duplicate incoming edges
            # Rewire: preds' branches now target succ directly.
            for phi in succ.phis():
                incoming = phi.incoming_value_for(block)
                if isinstance(incoming, PhiInst) and incoming.parent is block:
                    continue  # cannot happen: block has one instruction
                phi.remove_incoming(block)
                for pred in preds:
                    phi.add_incoming(incoming, pred)
            block.replace_all_uses_with(succ)
            # The forwarder's terminator still uses succ; detach and delete.
            block.remove(term)
            term.drop_all_operands()
            function.remove_block(block)
            removed += 1
            changed = True
            break
    return removed


def simplify_cfg(function: Function) -> int:
    """Run all CFG cleanups to a fixed point; returns total change count."""
    total = 0
    while True:
        changed = 0
        changed += remove_unreachable_blocks(function)
        changed += collapse_identical_branches(function)
        changed += merge_blocks(function)
        changed += remove_empty_forwarders(function)
        changed += remove_trivial_phis(function)
        total += changed
        if not changed:
            return total
