"""Structural IR verifier.

Checks the invariants the rest of the system relies on:

* every block ends with exactly one terminator, which is the last instruction;
* phis appear only at the start of a block and cover exactly the predecessors;
* operand types match (largely enforced at construction, re-checked here);
* every value use is dominated by its definition (SSA dominance property);
* branch targets belong to the same function.
"""

from __future__ import annotations

from ..errors import VerificationError
from .instructions import Instruction, PhiInst, BranchInst
from .module import BasicBlock, Function, Module


def verify_module(module: Module) -> None:
    for function in module.functions.values():
        if not function.is_declaration():
            verify_function(function)


def verify_function(function: Function) -> None:
    if not function.blocks:
        raise VerificationError(f"@{function.name}: no blocks")
    blocks = set(function.blocks)

    for block in function.blocks:
        _verify_block_shape(function, block, blocks)

    _verify_phis(function)
    _verify_ssa_dominance(function)


def _verify_block_shape(function: Function, block: BasicBlock,
                        blocks: set[BasicBlock]) -> None:
    name = f"@{function.name}/%{block.name}"
    if not block.instructions:
        raise VerificationError(f"{name}: empty block")
    term = block.instructions[-1]
    if not term.is_terminator():
        raise VerificationError(f"{name}: does not end in a terminator")
    for inst in block.instructions[:-1]:
        if inst.is_terminator():
            raise VerificationError(f"{name}: terminator in mid-block")
    if isinstance(term, BranchInst):
        for target in term.targets():
            if target not in blocks:
                raise VerificationError(
                    f"{name}: branch to foreign block %{target.name}")
    seen_non_phi = False
    for inst in block.instructions:
        if inst.parent is not block:
            raise VerificationError(f"{name}: instruction with wrong parent")
        if isinstance(inst, PhiInst):
            if seen_non_phi:
                raise VerificationError(f"{name}: phi after non-phi")
        else:
            seen_non_phi = True


def _verify_phis(function: Function) -> None:
    for block in function.blocks:
        preds = block.predecessors()
        for phi in block.phis():
            incoming_blocks = [b for _, b in phi.incoming]
            if len(set(map(id, incoming_blocks))) != len(incoming_blocks):
                raise VerificationError(
                    f"phi {phi.ref()} has duplicate incoming blocks")
            if set(map(id, incoming_blocks)) != set(map(id, preds)):
                got = sorted(b.name for b in incoming_blocks)
                want = sorted(b.name for b in preds)
                raise VerificationError(
                    f"phi {phi.ref()} incoming blocks {got} != preds {want}")


def _verify_ssa_dominance(function: Function) -> None:
    # Local import: analysis depends on ir, not vice versa, except lazily here.
    from ..analysis.dominators import DominatorTree

    domtree = DominatorTree.block_level(function)
    positions: dict[int, tuple[BasicBlock, int]] = {}
    for block in function.blocks:
        for i, inst in enumerate(block.instructions):
            positions[id(inst)] = (block, i)

    for block in function.blocks:
        for i, inst in enumerate(block.instructions):
            for op_index, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    continue
                if isinstance(inst, PhiInst) and op_index % 2 == 1:
                    continue  # block operand
                def_pos = positions.get(id(op))
                if def_pos is None:
                    raise VerificationError(
                        f"{inst.ref()} uses {op.ref()} from another function")
                if isinstance(inst, PhiInst):
                    # Use is "at the end of" the incoming block.
                    pred = inst.incoming[op_index // 2][1]
                    if not domtree.dominates_block(def_pos[0], pred):
                        raise VerificationError(
                            f"phi {inst.ref()} incoming {op.ref()} does not "
                            f"dominate predecessor %{pred.name}")
                    continue
                def_block, def_index = def_pos
                if def_block is block:
                    if def_index >= i:
                        raise VerificationError(
                            f"{inst.ref()} uses {op.ref()} before definition")
                elif not domtree.dominates_block(def_block, block):
                    raise VerificationError(
                        f"{inst.ref()} use of {op.ref()} not dominated by def")
