"""Natural loop detection at block granularity.

Used by the baselines (Polly/ICC-style detectors), the transformer (to find
the code region covered by an idiom) and the interpreter's hot-region
accounting. IDL itself matches loops structurally through constraints, but
produces witnesses that map onto these Loop objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.instructions import (
    BinaryOperator,
    BranchInst,
    ICmpInst,
    Instruction,
    PhiInst,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import Value
from .dominators import DominatorTree


@dataclass
class Loop:
    """One natural loop: header plus the body blocks of its back edges."""

    header: BasicBlock
    latches: list[BasicBlock]
    blocks: list[BasicBlock]
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains_block(self, block: BasicBlock) -> bool:
        return any(b is block for b in self.blocks)

    def contains(self, inst: Instruction) -> bool:
        return inst.parent is not None and self.contains_block(inst.parent)

    def preheader(self) -> BasicBlock | None:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [p for p in self.header.predecessors()
                   if not self.contains_block(p)]
        if len(outside) == 1:
            return outside[0]
        return None

    def exit_blocks(self) -> list[BasicBlock]:
        exits: list[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains_block(succ) and succ not in exits:
                    exits.append(succ)
        return exits

    def instructions(self) -> list[Instruction]:
        result: list[Instruction] = []
        for block in self.blocks:
            result.extend(block.instructions)
        return result

    def induction_phi(self) -> PhiInst | None:
        """The canonical induction variable phi: fed around the back edge
        by an add of itself with a loop-invariant step (which excludes
        accumulators like ``s += a[i]`` whose addend varies)."""
        for phi in self.header.phis():
            for value, block in phi.incoming:
                if not self.contains_block(block):
                    continue
                if isinstance(value, BinaryOperator) and value.opcode == "add":
                    step = None
                    if value.lhs is phi:
                        step = value.rhs
                    elif value.rhs is phi:
                        step = value.lhs
                    if step is not None and not (
                            isinstance(step, Instruction)
                            and self.contains(step)):
                        return phi
        return None

    def bound_compare(self) -> ICmpInst | None:
        """The icmp guarding the header's conditional branch, if present."""
        term = self.header.terminator
        if isinstance(term, BranchInst) and term.is_conditional():
            cond = term.condition
            if isinstance(cond, ICmpInst):
                return cond
        return None

    def trip_bounds(self) -> tuple[Value, Value] | None:
        """(begin, end) values of a canonical counted loop, if recognisable."""
        phi = self.induction_phi()
        cmp = self.bound_compare()
        if phi is None or cmp is None:
            return None
        begin = None
        for value, block in phi.incoming:
            if not self.contains_block(block):
                begin = value
        if begin is None:
            return None
        if cmp.lhs is phi:
            return begin, cmp.rhs
        if cmp.rhs is phi:
            return begin, cmp.lhs
        return None

    def __repr__(self) -> str:
        return (f"<Loop header=%{self.header.name} depth={self.depth} "
                f"blocks={len(self.blocks)}>")


class LoopInfo:
    """All natural loops of a function, with nesting structure."""

    def __init__(self, function: Function,
                 dom: DominatorTree | None = None):
        """``dom`` is the function's block-level dominator tree, when the
        caller already has it."""
        self.function = function
        self.loops: list[Loop] = []
        tree = dom if dom is not None else DominatorTree.block_level(function)

        # Group back edges by header so each header yields one loop.
        back_edges: dict[int, tuple[BasicBlock, list[BasicBlock]]] = {}
        for block in function.blocks:
            for succ in block.successors():
                if tree.dominates(succ, block):
                    header, latches = back_edges.setdefault(id(succ), (succ, []))
                    latches.append(block)

        for header, latches in back_edges.values():
            blocks = self._collect_body(header, latches)
            self.loops.append(Loop(header, latches, blocks))

        self._assign_nesting()
        # Sort outer loops first, then by appearance.
        order = {id(b): i for i, b in enumerate(function.blocks)}
        self.loops.sort(key=lambda l: (l.depth, order.get(id(l.header), 0)))

    @staticmethod
    def _collect_body(header: BasicBlock,
                      latches: list[BasicBlock]) -> list[BasicBlock]:
        body = {id(header): header}
        stack = list(latches)
        while stack:
            block = stack.pop()
            if id(block) in body:
                continue
            body[id(block)] = block
            stack.extend(block.predecessors())
        # Preserve function block order for determinism.
        return [b for b in header.parent.blocks if id(b) in body]

    def _assign_nesting(self) -> None:
        # A loop is nested in the smallest other loop containing its header.
        for loop in self.loops:
            best: Loop | None = None
            for other in self.loops:
                if other is loop:
                    continue
                if other.contains_block(loop.header) and \
                        all(other.contains_block(b) for b in loop.blocks):
                    if best is None or len(other.blocks) < len(best.blocks):
                        best = other
            loop.parent = best
            if best is not None:
                best.children.append(loop)

    def loop_of_block(self, block: BasicBlock) -> Loop | None:
        """Innermost loop containing ``block``."""
        best: Loop | None = None
        for loop in self.loops:
            if loop.contains_block(block):
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def loop_of(self, inst: Instruction) -> Loop | None:
        if inst.parent is None:
            return None
        return self.loop_of_block(inst.parent)

    def top_level(self) -> list[Loop]:
        return [l for l in self.loops if l.parent is None]

    def __repr__(self) -> str:
        return f"<LoopInfo {self.function.name}: {len(self.loops)} loops>"


def perfect_nest_depth(loop: Loop) -> int:
    """Depth of the perfect nest rooted at ``loop`` (1 if not nested)."""
    depth = 1
    current = loop
    while len(current.children) == 1:
        child = current.children[0]
        # Perfect nesting: the child covers all of the parent's body except
        # the parent's own header/latch bookkeeping blocks.
        depth += 1
        current = child
    return depth
