"""Control dependence via post-dominance.

The IDL library derives single-entry single-exit regions (paper §4.1)
from atomic constraints, among them ``control dependent``, which this
analysis answers.
"""

from __future__ import annotations

from ..ir.instructions import BranchInst, Instruction
from .cfg import InstructionCFG
from .dominators import DominatorTree


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

