"""Register VM: executes bytecode from :mod:`repro.runtime.bytecode`.

Drop-in replacement for the tree-walking
:class:`~repro.runtime.interpreter.Interpreter` (same constructor, same
``call``/``bind_global``/``profile``/``steps`` surface), with every
per-step isinstance check and dict lookup moved to compile time. Functions
are lowered lazily on first call and cached for the lifetime of the VM.

Profiles are **count-identical** to the reference engine: dynamic block
entries are tallied in dense per-function arrays (one increment per taken
CFG edge) and re-keyed to the originating ``BasicBlock`` objects when the
``profile`` property is read, so Figure 17/18 and Table 3 numbers do not
depend on the engine. The step budget likewise counts block entries,
matching the reference engine's accounting exactly.
"""

from __future__ import annotations

from ..errors import InterpreterError
from ..ir.module import Module
from .bytecode import (
    OP_ALLOCA,
    OP_BIN,
    OP_BR,
    OP_CALL_API,
    OP_CALL_FN,
    OP_GEP,
    OP_JMP,
    OP_LOAD,
    OP_LOADIDX,
    OP_LOADN,
    OP_LOOP,
    OP_LOOPBR,
    OP_NAT1,
    OP_NAT2,
    OP_NATN,
    OP_RAND,
    OP_RET,
    OP_SELECT,
    OP_STORE,
    OP_STOREIDX,
    OP_STOREN,
    OP_UN,
    BytecodeFunction,
    compile_function,
)
from .interpreter import LCG, Profile, _flatten
from .memory import Buffer, Pointer

_MEMORY_OPS = frozenset((OP_LOADIDX, OP_STOREIDX, OP_GEP, OP_LOAD, OP_STORE,
                         OP_LOADN, OP_STOREN))

_BUDGET_MSG = "interpreter step budget exceeded"

#: Returned by a back-edge hook that leaves the frame running in the VM.
STAY_IN_VM = object()


class VirtualMachine:
    """Executes IR modules via flat register bytecode."""

    #: Called as ``hook(bc, regs, allocas, block_index)`` after a loop back
    #: edge has been taken, counted and stepped (``self.steps`` is synced);
    #: it returns the frame's result if it finished the frame elsewhere,
    #: else :data:`STAY_IN_VM`. None here; the JIT tier tiers up through it.
    _back_edge_hook = None

    def __init__(self, module: Module, api_runtime=None,
                 max_steps: int = 500_000_000, seed: int = 12345,
                 profile: bool = True):
        self.module = module
        self.api_runtime = api_runtime
        self.max_steps = max_steps
        self.steps = 0
        self.profiling = profile
        self._profile_cache: Profile | None = None
        self.rng = LCG(seed)
        self.globals: dict[str, Buffer] = {}
        for gv in module.globals.values():
            buffer = Buffer.for_type(gv.name, gv.value_type)
            if gv.initializer is not None:
                flat = _flatten(gv.initializer)
                buffer.data[:len(flat)] = flat
            self.globals[gv.name] = buffer
        self._bc: dict[str, BytecodeFunction] = {}
        self._protos: dict[str, list] = {}
        self._counts: dict[str, list[int] | None] = {}

    # -- public API ---------------------------------------------------------------
    def bind_global(self, name: str, array) -> Buffer:
        """Replace a global's storage with (a copy of) a numpy array."""
        import numpy as np

        gv = self.module.globals.get(name)
        if gv is None:
            raise InterpreterError(f"no global @{name}")
        buffer = self.globals[name]
        flat = np.asarray(array).reshape(-1).astype(buffer.data.dtype)
        buffer.data[:flat.size] = flat
        return buffer

    def call(self, name: str, args: list):
        function = self.module.functions.get(name)
        if function is None or function.is_declaration():
            raise InterpreterError(f"cannot call @{name}")
        self._profile_cache = None
        return self._run(self._compiled(name), list(args))

    @property
    def profile(self) -> Profile:
        """Per-block dynamic counts, keyed identically to the reference
        engine (by the ``BasicBlock`` objects of ``self.module``).

        The merged view is cached between executions: rebuilding it on
        every read was O(total blocks) per access, and callers poll it
        (cost model, reports). Any ``call`` invalidates the cache.
        """
        if not self.profiling:
            raise InterpreterError(
                "per-block profiling is disabled (profile=False)")
        prof = self._profile_cache
        if prof is not None:
            return prof
        prof = Profile()
        for name, counts in self._counts.items():
            blocks = self._bc[name].blocks
            for block, count in zip(blocks, counts):
                if count == 0:
                    continue
                key = id(block)
                prof.block_counts[key] = \
                    prof.block_counts.get(key, 0) + count
                if key not in prof.block_sizes:
                    prof.block_sizes[key] = len(block.instructions)
                    histogram: dict[str, int] = {}
                    for inst in block.instructions:
                        histogram[inst.opcode] = \
                            histogram.get(inst.opcode, 0) + 1
                    prof.block_opcodes[key] = histogram
        self._profile_cache = prof
        return prof

    # -- compilation cache ---------------------------------------------------------
    def _compiled(self, name: str) -> BytecodeFunction:
        bc = self._bc.get(name)
        if bc is None:
            function = self.module.functions.get(name)
            if function is None or function.is_declaration():
                raise InterpreterError(f"call to unknown function @{name}")
            bc = compile_function(function)
            proto = [None] * bc.n_regs
            for slot, value in bc.literal_consts:
                proto[slot] = value
            for slot, gname in bc.global_consts:
                proto[slot] = Pointer(self.globals[gname], 0)
            self._bc[name] = bc
            self._protos[name] = proto
            self._counts[name] = \
                [0] * len(bc.blocks) if self.profiling else None
        return bc

    # -- execution -------------------------------------------------------------------
    def _dispatch_call(self, name: str, args: list):
        """Run a module-function call issued from inside a frame. The JIT
        tier overrides this to route hot callees to compiled code."""
        return self._run(self._bc.get(name) or self._compiled(name), args)

    def _run(self, bc: BytecodeFunction, args: list):
        if len(args) != len(bc.arg_slots):
            raise InterpreterError(
                f"@{bc.name} expects {len(bc.arg_slots)} args")
        regs = self._protos[bc.name].copy()
        for slot, value in zip(bc.arg_slots, args):
            regs[slot] = value
        allocas = [None] * bc.n_allocas
        counts = self._counts[bc.name]
        if counts is not None:
            counts[0] += 1
        steps = self.steps + 1
        self.steps = steps
        if steps > self.max_steps:
            raise InterpreterError(_BUDGET_MSG)
        back_edge_hook = self._back_edge_hook
        code = bc.code
        max_steps = self.max_steps
        pc = 0
        try:
            while True:
                inst = code[pc]
                op = inst[0]
                if op == OP_BIN:
                    regs[inst[1]] = inst[4](regs[inst[2]], regs[inst[3]])
                    pc += 1
                elif op == OP_LOADIDX:
                    p = regs[inst[2]]
                    regs[inst[1]] = p.buffer.data.item(
                        p.offset + regs[inst[3]] * inst[4] + inst[5])
                    pc += 1
                elif op == OP_STOREIDX:
                    p = regs[inst[2]]
                    p.buffer.data[
                        p.offset + regs[inst[3]] * inst[4] + inst[5]
                    ] = regs[inst[1]]
                    pc += 1
                elif op == OP_BR:
                    pc, moves, bx = inst[2] if regs[inst[1]] else inst[3]
                    for d, s in moves:
                        regs[d] = regs[s]
                    if counts is not None:
                        counts[bx] += 1
                    steps += 1
                    if steps > max_steps:
                        raise InterpreterError(_BUDGET_MSG)
                elif op == OP_LOOP:
                    pc, moves, bx = inst[1]
                    for d, s in moves:
                        regs[d] = regs[s]
                    if counts is not None:
                        counts[bx] += 1
                    steps += 1
                    if steps > max_steps:
                        raise InterpreterError(_BUDGET_MSG)
                    if back_edge_hook is not None:
                        self.steps = steps
                        result = back_edge_hook(bc, regs, allocas, bx)
                        if result is not STAY_IN_VM:
                            return result
                elif op == OP_GEP:
                    p = regs[inst[2]]
                    offset = p.offset + inst[4]
                    for s, scale in inst[3]:
                        offset += regs[s] * scale
                    regs[inst[1]] = Pointer(p.buffer, offset)
                    pc += 1
                elif op == OP_LOAD:
                    p = regs[inst[2]]
                    regs[inst[1]] = p.buffer.data.item(p.offset)
                    pc += 1
                elif op == OP_STORE:
                    p = regs[inst[2]]
                    p.buffer.data[p.offset] = regs[inst[1]]
                    pc += 1
                elif op == OP_LOOPBR:
                    pc, moves, bx = inst[2] if regs[inst[1]] else inst[3]
                    for d, s in moves:
                        regs[d] = regs[s]
                    if counts is not None:
                        counts[bx] += 1
                    steps += 1
                    if steps > max_steps:
                        raise InterpreterError(_BUDGET_MSG)
                    if back_edge_hook is not None and bx in inst[4]:
                        self.steps = steps
                        result = back_edge_hook(bc, regs, allocas, bx)
                        if result is not STAY_IN_VM:
                            return result
                elif op == OP_SELECT:
                    regs[inst[1]] = regs[inst[3]] if regs[inst[2]] \
                        else regs[inst[4]]
                    pc += 1
                elif op == OP_UN or op == OP_NAT1:
                    regs[inst[1]] = inst[3](regs[inst[2]])
                    pc += 1
                elif op == OP_NAT2:
                    regs[inst[1]] = inst[4](regs[inst[2]], regs[inst[3]])
                    pc += 1
                elif op == OP_RET:
                    s = inst[1]
                    return regs[s] if s >= 0 else None
                elif op == OP_ALLOCA:
                    buffer = allocas[inst[2]]
                    if buffer is None:
                        buffer = Buffer.for_type(inst[3], inst[4])
                        allocas[inst[2]] = buffer
                    regs[inst[1]] = Pointer(buffer, 0)
                    pc += 1
                elif op == OP_LOADN:
                    p = regs[inst[2]]
                    offset = p.offset + inst[4]
                    for s, scale in inst[3]:
                        offset += regs[s] * scale
                    regs[inst[1]] = p.buffer.data.item(offset)
                    pc += 1
                elif op == OP_STOREN:
                    p = regs[inst[2]]
                    offset = p.offset + inst[4]
                    for s, scale in inst[3]:
                        offset += regs[s] * scale
                    p.buffer.data[offset] = regs[inst[1]]
                    pc += 1
                elif op == OP_RAND:
                    if inst[1] >= 0:
                        regs[inst[1]] = self.rng.next()
                    else:
                        self.rng.next()
                    pc += 1
                elif op == OP_NATN:
                    regs[inst[1]] = inst[3](*[regs[s] for s in inst[2]])
                    pc += 1
                elif op == OP_CALL_API:
                    if self.api_runtime is None:
                        raise InterpreterError(
                            f"API call {inst[2]} with no runtime attached")
                    self.steps = steps
                    result = self.api_runtime.dispatch(
                        inst[2], [regs[s] for s in inst[3]], self)
                    steps = self.steps
                    if inst[1] >= 0:
                        regs[inst[1]] = result
                    pc += 1
                elif op == OP_CALL_FN:
                    self.steps = steps
                    result = self._dispatch_call(
                        inst[2], [regs[s] for s in inst[3]])
                    steps = self.steps
                    if inst[1] >= 0:
                        regs[inst[1]] = result
                    pc += 1
                elif op == OP_JMP:
                    # Last: with latches lowered to OP_LOOP, forward
                    # jumps are rare (0.2% of suite steps).
                    pc, moves, bx = inst[1]
                    for d, s in moves:
                        regs[d] = regs[s]
                    if counts is not None:
                        counts[bx] += 1
                    steps += 1
                    if steps > max_steps:
                        raise InterpreterError(_BUDGET_MSG)
                else:  # OP_UNREACHABLE
                    raise InterpreterError("reached unreachable")
        except (IndexError, AttributeError) as exc:
            # Only translate faults raised by our own memory ops; anything
            # thrown inside a call handler propagates unchanged, as it does
            # in the reference engine.
            if code[pc][0] in _MEMORY_OPS:
                raise InterpreterError(
                    f"memory access fault in @{bc.name}: {exc}") from None
            raise
        finally:
            # On the exception path a nested call's frame may already have
            # written a larger total into self.steps than this frame's
            # last resync saw; never roll the global count backwards.
            if steps > self.steps:
                self.steps = steps
