"""Single-entry single-exit regions and control dependence.

A SESE region (paper §4.1, after Johnson/Pearson/Pingali) is spanned by two
instructions A ("begin") and B ("end") such that A dominates B, B
post-dominates A, and every cycle containing one contains the other. The
IDL library re-derives this from atomic constraints; this module provides
the same notion as a standalone analysis for the transformer and baselines,
plus control dependence via post-dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instructions import BranchInst, Instruction
from ..ir.module import BasicBlock, Function
from .cfg import InstructionCFG
from .dominators import DominatorTree


@dataclass(frozen=True)
class Region:
    """A SESE region delimited by instructions ``begin`` and ``end``."""

    begin: Instruction
    end: Instruction

    def blocks(self) -> list[BasicBlock]:
        """Blocks whose instructions all sit between begin and end on every
        path — computed as blocks reachable from begin without passing
        through end's successor edge."""
        start = self.begin.parent
        stop = self.end.parent
        assert start is not None and stop is not None
        result: list[BasicBlock] = []
        seen: set[int] = set()
        stack = [start]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            result.append(block)
            if block is stop:
                continue
            stack.extend(block.successors())
        return result

    def instructions(self) -> list[Instruction]:
        result: list[Instruction] = []
        for block in self.blocks():
            result.extend(block.instructions)
        return result


class ControlDependence:
    """Instruction-level control dependence (Ferrante-Ottenstein-Warren).

    Instruction B is control dependent on branch A when A has one successor
    from which B is always reached (B post-dominates it) and another from
    which B may be avoided.
    """

    def __init__(self, cfg: InstructionCFG,
                 postdom: DominatorTree | None = None):
        self.cfg = cfg
        self.postdom = postdom or DominatorTree.instruction_level(cfg, post=True)

    def depends_on(self, b: Instruction, a: Instruction) -> bool:
        """Is ``b`` control dependent on ``a``?"""
        succs = self.cfg.successors(a)
        if len(succs) < 2:
            return False
        on_some = any(self.postdom.dominates(b, s) for s in succs)
        on_all = all(self.postdom.dominates(b, s) for s in succs)
        return on_some and not on_all

    def controllers(self, b: Instruction) -> list[Instruction]:
        return [a for a in self.cfg.nodes
                if isinstance(a, BranchInst) and self.depends_on(b, a)]


def is_sese_pair(cfg: InstructionCFG, dom: DominatorTree,
                 postdom: DominatorTree, begin: Instruction,
                 end: Instruction) -> bool:
    """Check the three SESE conditions for an instruction pair."""
    if not dom.dominates(begin, end):
        return False
    if not postdom.dominates(end, begin):
        return False
    # Cycle equivalence, phrased as in the paper's IDL (Figure 9): a cycle
    # through begin must pass end and vice versa.
    # Cycle containing begin must contain end:
    if cfg.reachable_avoiding(begin, begin, [end]):
        return False
    # Cycle containing end must contain begin:
    if cfg.reachable_avoiding(end, end, [begin]):
        return False
    return True


def function_regions(function: Function,
                     max_regions: int = 10000) -> list[Region]:
    """Enumerate SESE regions whose begin/end are block boundaries.

    Restricted to pairs (first-instruction-of-block, terminator-of-block)
    — the granularity at which the transformer outlines regions.
    """
    cfg = InstructionCFG(function)
    dom = DominatorTree.instruction_level(cfg)
    postdom = DominatorTree.instruction_level(cfg, post=True)
    regions: list[Region] = []
    for bstart in function.blocks:
        if not bstart.instructions:
            continue
        begin = bstart.instructions[0]
        for bend in function.blocks:
            term = bend.terminator
            if term is None:
                continue
            if is_sese_pair(cfg, dom, postdom, begin, term):
                regions.append(Region(begin, term))
                if len(regions) >= max_regions:
                    return regions
    return regions
