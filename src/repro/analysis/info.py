"""Per-function analysis cache.

Constructing dominator trees is the expensive part of constraint solving;
:class:`FunctionAnalyses` computes each analysis once per function and the
IDL atoms share it. The object also carries the candidate indexes the
constraint solver's generators draw from (instructions by opcode, loads and
stores by base pointer, phis by block) and the per-function memo table for
compiled sub-constraint plans, so one instance serves every idiom matched
against the function. Invalidate (drop) the object after transforming IR.
"""

from __future__ import annotations

from ..ir.instructions import Instruction, LoadInst, PhiInst, StoreInst
from ..ir.module import Function
from ..ir.values import Value
from .cfg import InstructionCFG
from .dominators import (DominatorTree, InstructionDominance,
                         InstructionPositions)
from .loops import LoopInfo
from .memdep import base_pointer
from .sese import ControlDependence


class FunctionAnalyses:
    """Lazily-computed analyses for one function."""

    def __init__(self, function: Function):
        self.function = function
        self._cfg: InstructionCFG | None = None
        self._dom: InstructionDominance | DominatorTree | None = None
        self._postdom: InstructionDominance | DominatorTree | None = None
        self._positions: InstructionPositions | None = None
        self._block_dom: DominatorTree | None = None
        self._block_postdom: DominatorTree | None = None
        self._loops: LoopInfo | None = None
        self._control_dep: ControlDependence | None = None
        self._by_opcode: dict[str, list[Instruction]] | None = None
        self._phis_by_block: dict[int, list[PhiInst]] | None = None
        self._loads_by_base: dict[int, list[LoadInst]] | None = None
        self._stores_by_base: dict[int, list[StoreInst]] | None = None
        self._by_type_kind: dict[str, list[Value]] | None = None
        self._universe: list[Value] | None = None
        self._opcode_set: frozenset[str] | None = None
        self._max_loop_depth: int | None = None
        #: Solution sets of memoized sub-constraints (e.g. ``For``), keyed
        #: by the sub-constraint's cache key. Shared by every solver that
        #: runs over this function.
        self.memo_solutions: dict[str, list[dict]] = {}
        #: The plan forest's shared per-function subquery memo: collect
        #: instance sets keyed by (structural signature, context bindings).
        #: Filled during one detection pass and shared by every idiom in
        #: it, so structurally identical collects (e.g. Reduction's and
        #: Histogram's vector-read families) enumerate once per context.
        self.subquery_cache: dict[tuple, list[dict]] = {}

    @property
    def cfg(self) -> InstructionCFG:
        if self._cfg is None:
            self._cfg = InstructionCFG(self.function)
        return self._cfg

    @property
    def dom(self) -> InstructionDominance | DominatorTree:
        """Instruction-level dominance, answered from :attr:`block_dom` and
        each instruction's position in its block (snapshotted on the first
        ``dom`` or ``postdom`` access). Gives the same answers as
        :meth:`DominatorTree.instruction_level`, which still serves a
        function with an empty or unterminated block."""
        if self._dom is None:
            positions = self._instruction_positions()
            self._dom = InstructionDominance(self.block_dom, positions) \
                if positions.chained else \
                DominatorTree.instruction_level(self.cfg)
        return self._dom

    @property
    def postdom(self) -> InstructionDominance | DominatorTree:
        """Instruction-level post-dominance, answered like :attr:`dom`
        from :attr:`block_postdom`."""
        if self._postdom is None:
            positions = self._instruction_positions()
            self._postdom = \
                InstructionDominance(self.block_postdom, positions) \
                if positions.chained else \
                DominatorTree.instruction_level(self.cfg, post=True)
        return self._postdom

    def _instruction_positions(self) -> InstructionPositions:
        if self._positions is None:
            self._positions = InstructionPositions(self.function)
        return self._positions

    @property
    def block_dom(self) -> DominatorTree:
        if self._block_dom is None:
            self._block_dom = DominatorTree.block_level(self.function)
        return self._block_dom

    @property
    def block_postdom(self) -> DominatorTree:
        if self._block_postdom is None:
            self._block_postdom = DominatorTree.block_level(
                self.function, post=True)
        return self._block_postdom

    @property
    def loops(self) -> LoopInfo:
        if self._loops is None:
            self._loops = LoopInfo(self.function, self.block_dom)
        return self._loops

    @property
    def control_dep(self) -> ControlDependence:
        if self._control_dep is None:
            self._control_dep = ControlDependence(self.cfg, self.postdom)
        return self._control_dep

    # -- candidate indexes ----------------------------------------------------
    @property
    def by_opcode(self) -> dict[str, list[Instruction]]:
        """Instructions grouped by opcode, in program order."""
        if self._by_opcode is None:
            index: dict[str, list[Instruction]] = {}
            for inst in self.function.instructions():
                index.setdefault(inst.opcode, []).append(inst)
            self._by_opcode = index
        return self._by_opcode

    @property
    def phis_by_block(self) -> dict[int, list[PhiInst]]:
        """Phi instructions grouped by ``id`` of their basic block."""
        if self._phis_by_block is None:
            index: dict[int, list[PhiInst]] = {}
            for phi in self.by_opcode.get("phi", ()):
                index.setdefault(id(phi.parent), []).append(phi)
            self._phis_by_block = index
        return self._phis_by_block

    @property
    def loads_by_base(self) -> dict[int, list[LoadInst]]:
        """Loads grouped by ``id`` of their root base pointer.

        Loads whose provenance is ambiguous (phi/select of pointers) are
        grouped under key 0 — callers that restrict candidates by base must
        always include that bucket.
        """
        if self._loads_by_base is None:
            index: dict[int, list[LoadInst]] = {}
            for inst in self.by_opcode.get("load", ()):
                base = base_pointer(inst.pointer)
                index.setdefault(0 if base is None else id(base),
                                 []).append(inst)
            self._loads_by_base = index
        return self._loads_by_base

    @property
    def stores_by_base(self) -> dict[int, list[StoreInst]]:
        """Stores grouped by ``id`` of their root base pointer (0 = unknown)."""
        if self._stores_by_base is None:
            index: dict[int, list[StoreInst]] = {}
            for inst in self.by_opcode.get("store", ()):
                base = base_pointer(inst.pointer)
                index.setdefault(0 if base is None else id(base),
                                 []).append(inst)
            self._stores_by_base = index
        return self._stores_by_base

    @property
    def opcode_set(self) -> frozenset[str]:
        """The opcodes present in the function — the index the forest's
        compile-time feasibility signatures are checked against."""
        if self._opcode_set is None:
            self._opcode_set = frozenset(self.by_opcode)
        return self._opcode_set

    @property
    def max_loop_depth(self) -> int:
        """Deepest natural-loop nesting in the function (0 = loop-free)."""
        if self._max_loop_depth is None:
            self._max_loop_depth = max(
                (loop.depth for loop in self.loops.loops), default=0)
        return self._max_loop_depth

    @property
    def universe(self) -> list[Value]:
        """Every enumerable value: arguments, module globals, instructions."""
        if self._universe is None:
            module = self.function.module
            global_values: list[Value] = (
                list(module.globals.values()) if module is not None else [])
            self._universe = (list(self.function.args) + global_values +
                              list(self.function.instructions()))
        return self._universe

    @property
    def by_type_kind(self) -> dict[str, list[Value]]:
        """Universe values grouped by IDL type kind, in universe order."""
        if self._by_type_kind is None:
            index: dict[str, list[Value]] = {
                "integer": [], "float": [], "pointer": []}
            for value in self.universe:
                if value.type.is_integer():
                    index["integer"].append(value)
                elif value.type.is_float():
                    index["float"].append(value)
                elif value.type.is_pointer():
                    index["pointer"].append(value)
            self._by_type_kind = index
        return self._by_type_kind
