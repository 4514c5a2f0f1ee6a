"""Module / Function / BasicBlock containers for the LLVM-like IR."""

from __future__ import annotations

from typing import Iterator

from ..errors import IRError
from .instructions import BranchInst, Instruction, PhiInst
from .types import LABEL, FunctionType, IRType
from .values import Argument, GlobalVariable, Value


class BasicBlock(Value):
    """A straight-line instruction sequence ending in one terminator.

    Blocks are :class:`Value` subclasses (with label type) so branch
    instructions can hold them as operands and the use-list machinery tracks
    predecessor edges automatically.
    """

    def __init__(self, name: str, parent: "Function | None" = None):
        super().__init__(LABEL, name)
        self.parent = parent
        self.instructions: list[Instruction] = []

    # -- structure -------------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise IRError(f"instruction {inst.ref()} already has a parent")
        inst.parent = self
        self.instructions.append(inst)
        self._note_name(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise IRError(f"instruction {inst.ref()} already has a parent")
        inst.parent = self
        self.instructions.insert(index, inst)
        self._note_name(inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None
        if self.parent is not None:
            self.parent._used_names = None

    def _note_name(self, inst: Instruction) -> None:
        if inst.name and self.parent is not None:
            used = self.parent._used_names
            if used is not None:
                used.add(inst.name)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def phis(self) -> list[PhiInst]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, PhiInst):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi(self) -> Instruction | None:
        for inst in self.instructions:
            if not isinstance(inst, PhiInst):
                return inst
        return None

    # -- CFG edges ---------------------------------------------------------------
    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        if isinstance(term, BranchInst):
            # Deduplicate (cond branch may target the same block twice).
            seen: list[BasicBlock] = []
            for target in term.targets():
                if target not in seen:
                    seen.append(target)
            return seen
        return []

    def predecessors(self) -> list["BasicBlock"]:
        preds: list[BasicBlock] = []
        for use in self.uses:
            user = use.user
            if isinstance(user, BranchInst) and user.parent is not None:
                if user.parent not in preds:
                    preds.append(user.parent)
        return preds

    def ref(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function:
    """A function: argument list plus a list of basic blocks."""

    def __init__(self, name: str, ftype: FunctionType,
                 module: "Module | None" = None,
                 arg_names: list[str] | None = None):
        self.name = name
        self.type = ftype
        self.module = module
        self.blocks: list[BasicBlock] = []
        names = arg_names or [f"arg{i}" for i in range(len(ftype.params))]
        if len(names) != len(ftype.params):
            raise IRError("argument name count mismatch")
        self.args = [Argument(ty, nm, self, i)
                     for i, (ty, nm) in enumerate(zip(ftype.params, names))]
        self._name_counter = 0
        #: Names of the blocks, named instructions and arguments, built by
        #: the first :meth:`unique_name` call and kept up to date by
        #: :meth:`append_block` and the block insert methods; removals drop
        #: it so the next call rebuilds it without the freed names.
        self._used_names: set[str] | None = None

    @property
    def return_type(self) -> IRType:
        return self.type.ret

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def is_declaration(self) -> bool:
        return not self.blocks

    def append_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(self.unique_name(name or "bb"), self)
        self.blocks.append(block)
        self._used_names.add(block.name)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None
        self._used_names = None

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def unique_name(self, base: str) -> str:
        """Generate a name unique within this function: ``base`` itself if
        no block, instruction or argument uses it, else ``base`` followed by
        the next value of a per-function counter that is not in use.

        The set of names in use is kept between calls rather than rebuilt
        from every instruction, so building a function stays linear. It
        holds names that are present in the function, not names handed
        out: a name that is requested but never inserted stays free, and
        one freed by a removal is reused, exactly as a fresh scan would.
        Names must be set before an instruction is inserted (renaming an
        instruction in place is not tracked)."""
        used = self._used_names
        if used is None:
            used = {b.name for b in self.blocks}
            for inst in self.instructions():
                if inst.name:
                    used.add(inst.name)
            for arg in self.args:
                used.add(arg.name)
            self._used_names = used
        if base and base not in used:
            return base
        while True:
            candidate = f"{base}{self._name_counter}"
            self._name_counter += 1
            if candidate not in used:
                return candidate

    def __repr__(self) -> str:
        return f"<Function @{self.name}: {self.type}>"


class Module:
    """Top-level container: functions and global variables."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        function.module = self
        self.functions[function.name] = function
        return function

    def create_function(self, name: str, ftype: FunctionType,
                        arg_names: list[str] | None = None) -> Function:
        return self.add_function(Function(name, ftype, arg_names=arg_names))

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module") from None

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise IRError(f"duplicate global @{gv.name}")
        self.globals[gv.name] = gv
        return gv

    def instructions(self) -> Iterator[Instruction]:
        for function in self.functions.values():
            yield from function.instructions()

    def __repr__(self) -> str:
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")
