"""Control-flow graphs at block and instruction granularity.

The paper's IDL evaluates control flow "on the granularity of instructions
... there is no notion of basic blocks" (§3). :class:`InstructionCFG` is
that graph: nodes are instructions, edges fall through within a block and
follow branch targets between blocks.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..ir.instructions import BranchInst, Instruction
from ..ir.module import BasicBlock, Function


class InstructionCFG:
    """Instruction-granularity CFG of one function (immutable snapshot)."""

    def __init__(self, function: Function):
        self.function = function
        self.nodes: list[Instruction] = list(function.instructions())
        self._succs: dict[int, list[Instruction]] = {}
        self._preds: dict[int, list[Instruction]] = {}
        for inst in self.nodes:
            self._succs[id(inst)] = []
            self._preds[id(inst)] = []
        for block in function.blocks:
            insts = block.instructions
            for i, inst in enumerate(insts[:-1]):
                self._add_edge(inst, insts[i + 1])
            term = block.terminator
            if isinstance(term, BranchInst):
                for target in term.targets():
                    if target.instructions:
                        self._add_edge(term, target.instructions[0])

    def _add_edge(self, src: Instruction, dst: Instruction) -> None:
        self._succs[id(src)].append(dst)
        self._preds[id(dst)].append(src)

    @property
    def entry(self) -> Instruction:
        return self.function.entry.instructions[0]

    def successors(self, inst: Instruction) -> list[Instruction]:
        return self._succs.get(id(inst), [])

    def predecessors(self, inst: Instruction) -> list[Instruction]:
        return self._preds.get(id(inst), [])

    def exits(self) -> list[Instruction]:
        """Instructions with no CFG successor (rets, unreachables)."""
        return [inst for inst in self.nodes if not self._succs[id(inst)]]

    def has_edge(self, src: Instruction, dst: Instruction) -> bool:
        return any(s is dst for s in self._succs.get(id(src), ()))

    def reachable_avoiding(self, source: Instruction, target: Instruction,
                           blocked: Iterable[Instruction]) -> bool:
        """Is ``target`` reachable from ``source`` on a path that leaves
        ``source``, without passing *through* any node in ``blocked``?

        Edges out of ``source`` are followed even if source is blocked;
        arriving at ``target`` counts even if target is blocked. This is the
        path semantics used by IDL's "all flow ... passes through" atoms:
        a path passes through C if C appears strictly between its endpoints.
        """
        blocked_ids = {id(b) for b in blocked}
        stack = [s for s in self.successors(source)]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node is target:
                return True
            if id(node) in seen or id(node) in blocked_ids:
                continue
            seen.add(id(node))
            stack.extend(self.successors(node))
        return False

    def all_paths_pass_through(self, source: Instruction, target: Instruction,
                               via: Instruction) -> bool:
        """Does every source→target path pass through ``via``?

        Vacuously true when target is unreachable from source.
        """
        if via is source or via is target:
            return True
        return not self.reachable_avoiding(source, target, [via])


def block_rpo(function: Function) -> list[BasicBlock]:
    """Blocks of ``function`` in reverse post-order from the entry."""
    seen: set[int] = set()
    order: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        seen.add(id(block))
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    visit(function.entry)
    order.reverse()
    return order


def reachable_blocks(function: Function) -> set[int]:
    """ids of blocks reachable from the entry block."""
    return {id(b) for b in block_rpo(function)}


def generic_rpo(entries: list, successors: Callable) -> list:
    """Reverse post-order over an arbitrary graph given by ``successors``."""
    seen: set[int] = set()
    order: list = []
    for entry in entries:
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        stack = [(entry, iter(successors(entry)))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, iter(successors(succ))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    order.reverse()
    return order
