"""Semantics of IDL atomic constraints over the IR.

Every atom supports ``check`` (all variables bound) and, where the relation
is efficiently enumerable, ``candidates`` (exactly one variable unbound) —
the generator functions the backtracking solver uses to drive the search.
Checks dispatch through :data:`CHECKS`, one function per atom kind.
:func:`atom_cost` ranks how cheap an atom is to execute in the current
environment; the solver always runs the cheapest ready constraint next,
implementing the paper's "variables are collected and ordered to assist
constraint solving".
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from ..analysis.dataflow import (
    all_data_flow_passes_through,
    data_operands,
    data_users,
    flow_killed_by,
    has_dataflow_edge,
)
from ..analysis.info import FunctionAnalyses
from ..analysis.memdep import (
    accessed_pointer,
    base_pointer,
    has_dependence_edge,
    may_alias,
)
from ..errors import IDLError
from ..ir.instructions import BranchInst, Instruction, PhiInst
from ..ir.module import Function
from ..ir.values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    Value,
)
from .lowering import LAtom

#: Cost ranks (lower runs earlier).
COST_CHECK = 0
COST_UNIT = 1
COST_SMALL = 2
COST_OPCODE = 10
COST_CLASS = 20
COST_SCAN = 40
COST_NOT_READY = 1000


def values_equal(a: Value, b: Value) -> bool:
    """Identity, except structural equality for scalar constants."""
    if a is b:
        return True
    if isinstance(a, (ConstantInt, ConstantFloat)) and \
            isinstance(b, (ConstantInt, ConstantFloat)):
        return a == b
    return False


def value_key(value: Value):
    """A hashable identity for solution deduplication.

    Keys are interned on the value object: the solver's dedup paths
    (solution sets, memo tables, collect instances, the forest's subquery
    cache) recompute the key of the same value thousands of times per
    function, so the isinstance dispatch and tuple construction are paid
    once per object instead of once per comparison. Constants stay
    structurally keyed — two equal constants built independently intern
    equal (not identical) keys, which is all dedup needs.
    """
    try:
        return value._value_key
    except AttributeError:
        pass
    if isinstance(value, ConstantInt):
        key = ("ci", value.type, value.value)
    elif isinstance(value, ConstantFloat):
        key = ("cf", value.type, value.value)
    else:
        key = id(value)
    try:
        value._value_key = key
    except (AttributeError, TypeError):  # __slots__ values stay uncached
        pass
    return key


class SolveContext:
    """Per-function state shared by all atoms during one solve.

    The candidate indexes live on :class:`FunctionAnalyses`, so every idiom
    matched against one function shares them instead of rebuilding per
    solver instance.
    """

    def __init__(self, function: Function,
                 analyses: FunctionAnalyses | None = None):
        self.function = function
        self.analyses = analyses or FunctionAnalyses(function)
        self.by_opcode: dict[str, list[Instruction]] = self.analyses.by_opcode
        self.universe: list[Value] = self.analyses.universe
        self.globals: list[GlobalVariable] = [
            v for v in self.universe if isinstance(v, GlobalVariable)]

    # -- helpers -------------------------------------------------------------
    def dominates(self, a: Value, b: Value, strict: bool, post: bool) -> bool:
        a_inst = isinstance(a, Instruction)
        b_inst = isinstance(b, Instruction)
        if not post:
            if not a_inst:
                # Constants/arguments/globals are defined "before entry".
                if not b_inst:
                    return (not strict) and values_equal(a, b)
                return True
            if not b_inst:
                return False
            dom = self.analyses.dom
            return dom.strictly_dominates(a, b) if strict else \
                dom.dominates(a, b)
        if not a_inst or not b_inst:
            return (not strict) and values_equal(a, b)
        postdom = self.analyses.postdom
        return postdom.strictly_dominates(a, b) if strict else \
            postdom.dominates(a, b)


# ---------------------------------------------------------------------------
# Classification helpers
# ---------------------------------------------------------------------------

def _is_constant(value: Value) -> bool:
    return isinstance(value, Constant) and not isinstance(value, GlobalVariable)


def _is_compile_time(value: Value) -> bool:
    return isinstance(value, Constant)


def _class_check(cls: str, value: Value) -> bool:
    if cls == "unused":
        return not value.uses
    if cls == "constant":
        return _is_constant(value)
    if cls == "compile_time":
        return _is_compile_time(value)
    if cls == "argument":
        return isinstance(value, Argument)
    if cls == "instruction":
        return isinstance(value, Instruction)
    raise IDLError(f"unknown classification {cls!r}")


def _type_check(extra: dict, value: Value) -> bool:
    kind = extra["type"]
    if kind == "integer" and not value.type.is_integer():
        return False
    if kind == "float" and not value.type.is_float():
        return False
    if kind == "pointer" and not value.type.is_pointer():
        return False
    const = extra.get("const")
    if const is None:
        return True
    if kind == "integer":
        return isinstance(value, ConstantInt) and \
            value.value == (0 if const == "zero" else 1)
    if kind == "float":
        return isinstance(value, ConstantFloat) and \
            value.value == (0.0 if const == "zero" else 1.0)
    return False  # "pointer constant zero" would be null; unused


# ---------------------------------------------------------------------------
# Atom cost model
# ---------------------------------------------------------------------------

def atom_cost(atom: LAtom, env: dict) -> int:
    """Cost rank of executing ``atom`` in ``env``.

    Depends only on *which* variables are bound (name membership), never on
    their values — the property the static plan compiler relies on to
    precompute the solver's execution order per idiom (paper §4.4).
    """
    unbound = [v for v in atom.free_vars() if v not in env]
    if not unbound:
        return COST_CHECK
    if len(unbound) > 1:
        # 'reaches phi node' with the phi bound binds value and branch
        # together; everything else must wait for more bindings.
        if atom.kind == "reaches_phi" and atom.vars[1] in env:
            return COST_SMALL
        return COST_NOT_READY
    return _generator_cost(atom, unbound[0], env)


def _generator_cost(atom: LAtom, var: str, env: dict) -> int:
    position = atom.vars.index(var) if var in atom.vars else -1
    kind = atom.kind
    if kind == "same" and not atom.extra["negated"]:
        return COST_UNIT
    if kind == "argument_of":
        return COST_UNIT if position == 0 and atom.vars[1] in env \
            else COST_SMALL
    if kind == "reaches_phi":
        if atom.vars[1] in env:
            return COST_SMALL
        return COST_SCAN
    if kind == "edge":
        return COST_SMALL if atom.extra["edge"] in ("data", "control") \
            else COST_SCAN
    if kind == "opcode":
        return COST_OPCODE
    if kind == "class":
        cls = atom.extra["cls"]
        if cls == "argument":
            return COST_UNIT
        if cls == "instruction":
            return COST_CLASS
        if cls == "constant":
            return COST_NOT_READY  # constants are not enumerable
        return COST_SCAN
    if kind in ("passes_through", "killed"):
        return COST_NOT_READY
    if kind == "same":  # negated: check-only, never generates
        return COST_NOT_READY
    if kind == "dominates" and atom.extra.get("negated"):
        return COST_NOT_READY  # negative constraints never generate
    return COST_SCAN


def atom_bindings(atom: LAtom, bound) -> frozenset:
    """Variables executing ``atom`` would newly bind, given bound names."""
    unbound = [v for v in atom.free_vars() if v not in bound]
    if len(unbound) == 1:
        return frozenset(unbound)
    if atom.kind == "reaches_phi" and atom.vars[1] in bound:
        return frozenset(v for v in (atom.vars[0], atom.vars[2])
                         if v not in bound)
    return frozenset()


# ---------------------------------------------------------------------------
# Atom engine
# ---------------------------------------------------------------------------

class AtomEngine:
    """Checks and candidate generation for lowered atoms.

    ``stats`` (when given) receives a tick per universe element a fallback
    scan filters, so the solver's step counts reflect generation work.
    ``indexed=False`` restores the seed generators (full-universe scans)
    that the seed oracle checks the plan-driven configuration against.
    """

    def __init__(self, context: SolveContext, stats=None,
                 indexed: bool = True):
        self.ctx = context
        self.stats = stats
        self.indexed = indexed

    # -- public API -------------------------------------------------------------
    def check(self, atom: LAtom, env: dict) -> bool:
        test = CHECKS.get(atom.kind)
        if test is None:
            raise IDLError(f"unknown atom kind {atom.kind!r}")
        return test(self, atom, env)

    def candidates(self, atom: LAtom, var: str, env: dict) -> Iterable[Value]:
        """Candidate values for the single unbound variable ``var``.

        Kinds with an index or a local relation generate through
        :data:`GENERATORS`; everything else (and any generator declining
        with None) filters the whole universe with :meth:`_scan`, lazily,
        since scanning ticks per element."""
        position = atom.vars.index(var) if var in atom.vars else -1
        generate = GENERATORS.get(atom.kind)
        found = None if generate is None else \
            generate(self, atom, position, env)
        return self._scan(atom, var, env) if found is None else found

    # -- checks (one per atom kind; see CHECKS) ---------------------------------
    def _check_type(self, atom: LAtom, env: dict) -> bool:
        return _type_check(atom.extra, env[atom.vars[0]])

    def _check_class(self, atom: LAtom, env: dict) -> bool:
        return _class_check(atom.extra["cls"], env[atom.vars[0]])

    def _check_opcode(self, atom: LAtom, env: dict) -> bool:
        value = env[atom.vars[0]]
        return isinstance(value, Instruction) and \
            value.opcode == atom.extra["opcode"]

    def _check_same(self, atom: LAtom, env: dict) -> bool:
        equal = values_equal(env[atom.vars[0]], env[atom.vars[1]])
        return (not equal) if atom.extra["negated"] else equal

    def _check_argument_of(self, atom: LAtom, env: dict) -> bool:
        parent = env[atom.vars[1]]
        if not isinstance(parent, Instruction):
            return False
        operands = parent.operands
        position = atom.extra["position"]
        if position >= len(operands):
            return False
        return values_equal(operands[position], env[atom.vars[0]])

    def _check_edge(self, atom: LAtom, env: dict) -> bool:
        edge = atom.extra["edge"]
        a = env[atom.vars[0]]
        b = env[atom.vars[1]]
        if edge == "data":
            return has_dataflow_edge(a, b)
        if edge == "control":
            if not isinstance(a, Instruction) or not isinstance(b, Instruction):
                return False
            return self.ctx.analyses.cfg.has_edge(a, b)
        if edge == "control_dominance":
            if not isinstance(a, Instruction) or not isinstance(b, Instruction):
                return False
            return self.ctx.analyses.control_dep.depends_on(b, a)
        if edge == "dependence":
            if not isinstance(a, Instruction) or not isinstance(b, Instruction):
                return False
            return has_dependence_edge(a, b)
        raise IDLError(f"unknown edge kind {edge!r}")

    def _check_reaches_phi(self, atom: LAtom, env: dict) -> bool:
        value = env[atom.vars[0]]
        phi = env[atom.vars[1]]
        branch = env[atom.vars[2]]
        if not isinstance(phi, PhiInst) or not isinstance(branch, BranchInst):
            return False
        for incoming, block in phi.incoming:
            if block.terminator is branch and values_equal(incoming, value):
                return True
        return False

    def _check_dominates(self, atom: LAtom, env: dict) -> bool:
        extra = atom.extra
        if extra["flow"] == "data":
            raise IDLError("data flow dominance is not implemented")
        result = self.ctx.dominates(env[atom.vars[0]], env[atom.vars[1]],
                                    extra["strict"], extra["post"])
        return (not result) if extra["negated"] else result

    def _check_passes_through(self, atom: LAtom, env: dict) -> bool:
        values = [env[v] for v in atom.vars]
        source, target, via = values
        flow = atom.extra.get("flow")
        if flow == "data":
            return all_data_flow_passes_through(source, target, via)
        if flow == "control":
            if not all(isinstance(v, Instruction) for v in values):
                return False
            return self.ctx.analyses.cfg.all_paths_pass_through(
                source, target, via)
        # Combined data+control flow: both projections must hold.
        ok_data = all_data_flow_passes_through(source, target, via)
        if not all(isinstance(v, Instruction) for v in values):
            return ok_data
        return ok_data and self.ctx.analyses.cfg.all_paths_pass_through(
            source, target, via)

    def _check_killed(self, atom: LAtom, env: dict) -> bool:
        lists = [[env[v] for v in vl] for vl in atom.varlists]
        return flow_killed_by(lists[0], lists[1], lists[2],
                              self.ctx.analyses.cfg)

    # -- generators (one per atom kind; see GENERATORS) -------------------------
    def _gen_opcode(self, atom: LAtom, position: int, env: dict):
        if position != 0:
            return None
        return self.ctx.by_opcode.get(atom.extra["opcode"], ())

    def _gen_class(self, atom: LAtom, position: int, env: dict):
        if position != 0:
            return None
        cls = atom.extra["cls"]
        if cls == "instruction":
            by_opcode = self.ctx.by_opcode
            return chain.from_iterable(
                [by_opcode.get(op, ()) for op in sorted(by_opcode)])
        if cls == "argument":
            return self.ctx.function.args
        if cls == "compile_time":
            if self.indexed:
                return self.ctx.globals
            # The seed also scanned the universe here, re-yielding the
            # globals; only they are compile-time constants.
            return chain(self.ctx.globals,
                         self._scan(atom, atom.vars[0], env))
        return None

    def _gen_same(self, atom: LAtom, position: int, env: dict):
        if atom.extra["negated"]:
            return None
        return (env[atom.vars[1 - position]],)

    def _gen_type(self, atom: LAtom, position: int, env: dict):
        if not self.indexed:
            return None
        return self.ctx.analyses.by_type_kind.get(atom.extra["type"], ())

    def _gen_argument_of(self, atom: LAtom, position: int, env: dict):
        arg_pos = atom.extra["position"]
        if position == 0:  # child unbound
            parent = env[atom.vars[1]]
            if isinstance(parent, Instruction) and \
                    arg_pos < len(parent.operands):
                return (parent.operands[arg_pos],)
            return ()
        # Parent unbound: walk the child's use list.
        return [use.user for use in env[atom.vars[0]].uses
                if use.index == arg_pos and isinstance(use.user, Instruction)]

    def _gen_edge(self, atom: LAtom, position: int, env: dict):
        edge = atom.extra["edge"]
        if edge == "data":
            if position == 1:
                return data_users(env[atom.vars[0]])
            return data_operands(env[atom.vars[1]])
        if edge == "control":
            cfg = self.ctx.analyses.cfg
            if position == 1:
                src = env[atom.vars[0]]
                return cfg.successors(src) \
                    if isinstance(src, Instruction) else ()
            dst = env[atom.vars[1]]
            return cfg.predecessors(dst) \
                if isinstance(dst, Instruction) else ()
        if edge == "control_dominance" and position == 0:
            dst = env[atom.vars[1]]
            if isinstance(dst, Instruction):
                return self.ctx.analyses.control_dep.controllers(dst)
            return ()
        if self.indexed and edge == "dependence":
            return self._gen_dependence(atom, position, env)
        return None

    def _gen_dependence(self, atom: LAtom, position: int,
                        env: dict) -> Iterable[Value]:
        """Dependence-edge candidates: memory ops on a may-aliasing base.

        Uses the per-function loads/stores-by-base-pointer indexes; buckets
        whose base provably cannot alias the bound endpoint's base are
        skipped (distinct allocas/globals — see ``memdep.may_alias``), the
        ambiguous bucket (key 0) is always included.
        """
        other = env[atom.vars[1 - position]]
        pointer = accessed_pointer(other) if isinstance(other, Instruction) \
            else None
        anchor = base_pointer(pointer) if pointer is not None else None
        analyses = self.ctx.analyses
        for index in (analyses.loads_by_base, analyses.stores_by_base):
            for key, insts in index.items():
                if anchor is not None and key != 0 and \
                        not may_alias(insts[0].pointer, pointer):
                    continue
                yield from insts
        yield from self.ctx.by_opcode.get("call", ())

    def _gen_reaches_phi(self, atom: LAtom, position: int, env: dict):
        if atom.vars[1] in env:
            return self._phi_incoming(atom, position, env)
        if self.indexed and position == 1:
            # Unbound phi: enumerate the per-block phi index instead of
            # scanning the universe; the caller's check filters the rest.
            return chain.from_iterable(
                self.ctx.analyses.phis_by_block.values())
        return None

    def _phi_incoming(self, atom: LAtom, position: int,
                      env: dict) -> Iterable[Value]:
        """Incoming values (``position`` 0) or branches (2) of a bound
        phi, consistent with whichever of the two is bound."""
        phi = env[atom.vars[1]]
        if not isinstance(phi, PhiInst):
            return
        for value, block in phi.incoming:
            branch = block.terminator
            if branch is None:
                continue
            if position == 0:
                if atom.vars[2] not in env or \
                        env[atom.vars[2]] is branch:
                    yield value
            elif position == 2:
                if atom.vars[0] not in env or \
                        values_equal(env[atom.vars[0]], value):
                    yield branch

    def _scan(self, atom: LAtom, var: str, env: dict) -> Iterable[Value]:
        """Last-resort generator: filter the whole function universe."""
        stats = self.stats
        for value in self.ctx.universe:
            if stats is not None:
                stats.tick()
            trial = dict(env)
            trial[var] = value
            if self.check(atom, trial):
                yield value


#: Atom kind → check function, called as ``test(engine, atom, env)`` with
#: every variable of ``atom`` bound in ``env``. The executor's step records
#: hold their kind's entry, so an inline check is one call.
CHECKS = {
    "type": AtomEngine._check_type,
    "class": AtomEngine._check_class,
    "opcode": AtomEngine._check_opcode,
    "same": AtomEngine._check_same,
    "argument_of": AtomEngine._check_argument_of,
    "edge": AtomEngine._check_edge,
    "reaches_phi": AtomEngine._check_reaches_phi,
    "dominates": AtomEngine._check_dominates,
    "passes_through": AtomEngine._check_passes_through,
    "killed": AtomEngine._check_killed,
}

#: Atom kind → candidate generator, called as
#: ``generate(engine, atom, position, env)`` for the unbound variable at
#: ``atom.vars[position]`` (-1: only in a variable list). Returns the
#: candidates in generation order, or None to fall back to a universe
#: scan. Kinds without an entry always scan.
GENERATORS = {
    "opcode": AtomEngine._gen_opcode,
    "class": AtomEngine._gen_class,
    "same": AtomEngine._gen_same,
    "type": AtomEngine._gen_type,
    "argument_of": AtomEngine._gen_argument_of,
    "edge": AtomEngine._gen_edge,
    "reaches_phi": AtomEngine._gen_reaches_phi,
}
