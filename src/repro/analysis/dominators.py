"""Dominator and post-dominator trees (Cooper-Harvey-Kennedy).

One generic core handles four variants: {dominance, post-dominance} ×
{block granularity, instruction granularity}. Queries are O(1) via
Euler-tour interval numbering of the dominator tree.
:class:`InstructionDominance` gives the instruction-granularity answers
from a block tree and instruction positions, without building the larger
instruction tree.
"""

from __future__ import annotations

from typing import Callable

from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function
from .cfg import InstructionCFG, generic_rpo


class _VirtualExit:
    """Synthetic sink joining all function exits for post-dominance."""

    def __repr__(self) -> str:
        return "<virtual-exit>"


class GenericDomTree:
    """Dominator tree over an arbitrary graph."""

    def __init__(self, nodes: list, entries: list, successors: Callable,
                 predecessors: Callable):
        if not entries:
            raise ValueError("dominator tree needs at least one entry")
        self._virtual_root = None
        if len(entries) > 1:
            self._virtual_root = _VirtualExit()
            real_entries = list(entries)
            old_succ, old_pred = successors, predecessors

            def successors(n, _r=self._virtual_root, _e=real_entries, _s=old_succ):
                return _e if n is _r else _s(n)

            def predecessors(n, _r=self._virtual_root, _e=real_entries,
                             _p=old_pred):
                base = list(_p(n))
                if any(n is e for e in _e):
                    base.append(_r)
                return base

            entries = [self._virtual_root]
            nodes = [self._virtual_root] + list(nodes)

        self.root = entries[0]
        rpo = generic_rpo(entries, successors)
        self._rpo_index = {id(n): i for i, n in enumerate(rpo)}
        self._idom: dict[int, object] = {id(self.root): self.root}

        changed = True
        while changed:
            changed = False
            for node in rpo:
                if node is self.root:
                    continue
                new_idom = None
                for pred in predecessors(node):
                    if id(pred) not in self._rpo_index:
                        continue  # unreachable predecessor
                    if id(pred) in self._idom:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = self._intersect(pred, new_idom)
                if new_idom is not None and \
                        self._idom.get(id(node)) is not new_idom:
                    self._idom[id(node)] = new_idom
                    changed = True

        self._children: dict[int, list] = {id(n): [] for n in rpo}
        self._node_by_id = {id(n): n for n in rpo}
        for node in rpo:
            if node is self.root:
                continue
            idom = self._idom.get(id(node))
            if idom is not None:
                self._children[id(idom)].append(node)
        self._number()

    def _intersect(self, a, b):
        idx = self._rpo_index
        while a is not b:
            while idx[id(a)] > idx[id(b)]:
                a = self._idom[id(a)]
            while idx[id(b)] > idx[id(a)]:
                b = self._idom[id(b)]
        return a

    def _number(self) -> None:
        self._tin: dict[int, int] = {}
        self._tout: dict[int, int] = {}
        clock = 0
        stack: list[tuple[object, bool]] = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                self._tout[id(node)] = clock
                clock += 1
                continue
            self._tin[id(node)] = clock
            clock += 1
            stack.append((node, True))
            for child in self._children[id(node)]:
                stack.append((child, False))

    # -- queries -------------------------------------------------------------
    def contains(self, node) -> bool:
        return id(node) in self._tin

    def dominates(self, a, b) -> bool:
        """a dominates b (reflexive). Unreachable nodes dominate nothing."""
        if id(a) not in self._tin or id(b) not in self._tin:
            return False
        return (self._tin[id(a)] <= self._tin[id(b)]
                and self._tout[id(b)] <= self._tout[id(a)])

    def strictly_dominates(self, a, b) -> bool:
        return a is not b and self.dominates(a, b)

    def idom(self, node):
        """Immediate dominator, or None for the root/unreachable nodes."""
        if node is self.root:
            return None
        result = self._idom.get(id(node))
        if isinstance(result, _VirtualExit):
            return None
        return result

    def children(self, node) -> list:
        return [c for c in self._children.get(id(node), [])
                if not isinstance(c, _VirtualExit)]


class DominatorTree:
    """Facade bundling the four dominance variants used by IDL atoms."""

    def __init__(self, tree: GenericDomTree, post: bool):
        self._tree = tree
        self.post = post

    # -- constructors ------------------------------------------------------------
    @classmethod
    def block_level(cls, function: Function, post: bool = False) -> "DominatorTree":
        blocks = function.blocks
        if post:
            exits = [b for b in blocks
                     if not b.successors() and b.terminator is not None]
            # Include blocks that loop forever by treating them as non-exits;
            # with no exits at all, fall back to the last block.
            if not exits:
                exits = [blocks[-1]]
            tree = GenericDomTree(blocks, exits,
                                  lambda b: b.predecessors(),
                                  lambda b: b.successors())
        else:
            tree = GenericDomTree(blocks, [function.entry],
                                  lambda b: b.successors(),
                                  lambda b: b.predecessors())
        return cls(tree, post)

    @classmethod
    def instruction_level(cls, cfg: InstructionCFG,
                          post: bool = False) -> "DominatorTree":
        if post:
            exits = cfg.exits()
            if not exits:
                exits = [cfg.nodes[-1]]
            tree = GenericDomTree(cfg.nodes, exits, cfg.predecessors,
                                  cfg.successors)
        else:
            tree = GenericDomTree(cfg.nodes, [cfg.entry], cfg.successors,
                                  cfg.predecessors)
        return cls(tree, post)

    # -- queries ----------------------------------------------------------------
    def dominates(self, a, b) -> bool:
        return self._tree.dominates(a, b)

    def strictly_dominates(self, a, b) -> bool:
        return self._tree.strictly_dominates(a, b)

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        return self._tree.dominates(a, b)

    def idom(self, node):
        return self._tree.idom(node)

    def children(self, node) -> list:
        return self._tree.children(node)

    def contains(self, node) -> bool:
        return self._tree.contains(node)


class InstructionDominance:
    """Instruction-granularity dominance answered from a block-level tree.

    Answers the same queries as :meth:`DominatorTree.instruction_level`
    over the same function, as LLVM answers instruction dominance: two
    instructions in one block compare their positions (reversed for
    post-dominance); otherwise the block tree decides. Positions are a
    snapshot (see :class:`InstructionPositions`), so an instruction
    inserted later is unknown and, like one in a block the tree does not
    reach, dominates nothing and has no immediate dominator.
    """

    def __init__(self, blocks: DominatorTree,
                 positions: "InstructionPositions"):
        self.post = blocks.post
        tree = blocks._tree
        self._tree = tree
        self._tin = tree._tin
        self._tout = tree._tout
        self._where = positions.where
        self._insts = positions.insts

    def contains(self, node) -> bool:
        where = self._where.get(id(node))
        return where is not None and where[0] in self._tin

    def dominates(self, a, b) -> bool:
        """a dominates b (reflexive). Unreachable nodes dominate nothing."""
        where_a = self._where.get(id(a))
        where_b = self._where.get(id(b))
        if where_a is None or where_b is None:
            return False
        block_a, index_a = where_a
        block_b, index_b = where_b
        tin = self._tin
        if block_a == block_b:
            if block_a not in tin:
                return False
            return index_b <= index_a if self.post else index_a <= index_b
        in_a = tin.get(block_a)
        in_b = tin.get(block_b)
        if in_a is None or in_b is None:
            return False
        return in_a <= in_b and self._tout[block_b] <= self._tout[block_a]

    def strictly_dominates(self, a, b) -> bool:
        return a is not b and self.dominates(a, b)

    def idom(self, node):
        """The previous instruction in the block (the next one for
        post-dominance); at the block edge, the idom block's terminator
        (the ipostdom block's first instruction). None for the root and
        for unknown or unreachable instructions."""
        where = self._where.get(id(node))
        if where is None or where[0] not in self._tin:
            return None
        block_id, index = where
        insts = self._insts[block_id]
        if self.post:
            if index + 1 < len(insts):
                return insts[index + 1]
        elif index:
            return insts[index - 1]
        parent = self._tree.idom(self._tree._node_by_id[block_id])
        if parent is None:
            return None
        return self._insts[id(parent)][0 if self.post else -1]


class InstructionPositions:
    """Snapshot of where each instruction of a function sits: ``where``
    maps its ``id`` to its block's ``id`` and its index there, and
    ``insts`` maps a block's ``id`` to its instructions.

    ``chained`` is true when every block is non-empty and holds its only
    terminator last. Only then is the instruction-level CFG the block CFG
    with each block expanded into a chain, which is what
    :class:`InstructionDominance` relies on.
    """

    def __init__(self, function: Function):
        self.where: dict[int, tuple[int, int]] = {}
        self.insts: dict[int, list[Instruction]] = {}
        self.chained = True
        for block in function.blocks:
            block_insts = list(block.instructions)
            block_id = id(block)
            last = len(block_insts) - 1
            if last < 0:
                self.chained = False
            for index, inst in enumerate(block_insts):
                if inst.is_terminator() != (index == last):
                    self.chained = False
                self.where[id(inst)] = (block_id, index)
            self.insts[block_id] = block_insts


def dominance_frontiers(function: Function) -> dict[int, set[BasicBlock]]:
    """Block-level dominance frontiers (for SSA construction)."""
    tree = DominatorTree.block_level(function)
    frontiers: dict[int, set[BasicBlock]] = {id(b): set() for b in function.blocks}
    for block in function.blocks:
        preds = [p for p in block.predecessors() if tree.contains(p)]
        if len(preds) < 2:
            continue
        idom = tree.idom(block)
        for pred in preds:
            runner = pred
            while runner is not None and runner is not idom:
                frontiers[id(runner)].add(block)
                runner = tree.idom(runner)
    return frontiers
