"""IDL compiler facade: source → registry → lowered constraints → plans →
solutions.

This is the user-facing entry point mirroring the paper's Figure 1 pipeline
(idiom description → constraint formula → solver)::

    from repro.idl import IdiomCompiler

    idl = IdiomCompiler()
    idl.load('''
    Constraint FactorizationOpportunity
    ( {sum} is add instruction and ... )
    End
    ''')
    for match in idl.match(function, "FactorizationOpportunity"):
        print(match["sum"], match["factor"])

Each named constraint is lowered once and compiled to a static execution
plan once (paper §4.4); both are cached. ``match`` executes one idiom's
cached plan; :meth:`IdiomCompiler.match_library` matches several idioms
in one fused pass over the cross-idiom plan forest
(:mod:`repro.idl.forest`), with compile-time feasibility pre-filters and
shared constraint prefixes — same match sets, bit for bit. ``match``
also keeps the seed's engines callable as oracles:
``ordering="dynamic"`` orders conjuncts per step and ``indexed=False``
scans the full candidate universe; a compiler built with
``memo_specs=frozenset()`` lowers without memoized building blocks (see
:mod:`repro.idioms.oracle`).
"""

from __future__ import annotations

import hashlib

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError
from ..ir.module import Function
from .forest import PlanForest, build_forest, execute_forest
from .lowering import Lowerer, Registry
from .natives import standard_natives
from .parser import parse_idl
from .plan import Plan, compile_plan
from .solver import SolveLimits, Solver, SolverStats

#: Building-block constraints solved once per function and replayed at
#: every inheritance site (see :class:`~repro.idl.lowering.LMemo`).
DEFAULT_MEMO_SPECS = frozenset({"For"})


class IdiomCompiler:
    """Holds a constraint registry and compiles/solves idiom descriptions."""

    def __init__(self, load_natives: bool = True,
                 memo_specs: frozenset[str] | set[str] | None = None):
        self.registry = Registry()
        self.memo_specs = frozenset(
            DEFAULT_MEMO_SPECS if memo_specs is None else memo_specs)
        self._lowered_cache: dict[tuple, object] = {}
        self._plan_cache: dict[tuple, Plan] = {}
        self._forest_cache: dict[tuple, PlanForest] = {}
        self._lowerer = Lowerer(self.registry, self.memo_specs)
        self._sources: list[str] = []
        self._signature: str | None = None
        if load_natives:
            for native in standard_natives():
                self.registry.add_native(native)

    # -- registry -----------------------------------------------------------------
    def load(self, source: str, filename: str = "<idl>") -> list[str]:
        """Parse IDL source and register every specification in it."""
        specs = parse_idl(source, filename)
        for spec in specs:
            self.registry.add_spec(spec)
        self._sources.append(source)
        self._signature = None
        self._lowered_cache.clear()
        self._plan_cache.clear()
        self._forest_cache.clear()
        self._lowerer = Lowerer(self.registry, self.memo_specs)
        return [spec.name for spec in specs]

    def names(self) -> list[str]:
        return self.registry.names()

    def library_signature(self) -> str:
        """Digest of everything this compiler contributes to match sets:
        every loaded IDL source (in load order), the registered
        constraint names (native constraints included) and the memoized
        building-block set. This is the idiom-library input of the
        artifact cache's fingerprints (:mod:`repro.cache.fingerprint`).
        Native *implementations* are python code and not hashable here —
        changing one requires bumping
        :data:`repro.cache.fingerprint.FINGERPRINT_VERSION`."""
        if self._signature is None:
            h = hashlib.sha256()
            h.update(",".join(sorted(self.registry.names())).encode())
            h.update(b"\x00")
            h.update(",".join(sorted(self.memo_specs)).encode())
            for source in self._sources:
                h.update(b"\x00")
                h.update(source.encode())
            self._signature = h.hexdigest()
        return self._signature

    # -- compilation -----------------------------------------------------------------
    def compile(self, name: str, params: dict[str, int] | None = None):
        """Lower a named constraint to its solvable form (cached)."""
        key = (name, tuple(sorted((params or {}).items())))
        if key not in self._lowered_cache:
            self._lowered_cache[key] = self._lowerer.lower_spec(name, params)
        return self._lowered_cache[key]

    def plan_for(self, name: str,
                 params: dict[str, int] | None = None) -> Plan:
        """The static execution plan of a named constraint (cached)."""
        key = (name, tuple(sorted((params or {}).items())))
        if key not in self._plan_cache:
            self._plan_cache[key] = compile_plan(self.compile(name, params))
        return self._plan_cache[key]

    def forest_for(self, names: list[str] | tuple[str, ...]) -> PlanForest:
        """The cross-idiom plan forest of a set of idioms (cached).

        Per-idiom plans are merged into a shared prefix trie and each
        idiom gains a compile-time feasibility signature; see
        :mod:`repro.idl.forest`.
        """
        key = tuple(names)
        if key not in self._forest_cache:
            plans = {name: self.plan_for(name) for name in names}
            lowered = {name: self.compile(name) for name in names}
            self._forest_cache[key] = build_forest(names, plans, lowered)
        return self._forest_cache[key]

    # -- solving ---------------------------------------------------------------------
    def match(self, function: Function, name: str,
              params: dict[str, int] | None = None,
              analyses: FunctionAnalyses | None = None,
              limits: SolveLimits | None = None,
              max_solutions: int | None = None,
              ordering: str = "plan",
              indexed: bool = True) -> list[dict]:
        """All matches of the named idiom within one function."""
        solutions, _ = self.match_with_stats(
            function, name, params, analyses, limits,
            max_solutions=max_solutions, ordering=ordering, indexed=indexed)
        return solutions

    def match_with_stats(self, function: Function, name: str,
                         params: dict[str, int] | None = None,
                         analyses: FunctionAnalyses | None = None,
                         limits: SolveLimits | None = None,
                         max_solutions: int | None = None,
                         ordering: str = "plan",
                         indexed: bool = True
                         ) -> tuple[list[dict], SolverStats]:
        """Like :meth:`match`, also returning the solve's search stats."""
        if ordering not in ("plan", "dynamic"):
            raise IDLError(f"unknown ordering {ordering!r}")
        limits = (limits or SolveLimits()).with_overrides(max_solutions)
        if function.is_declaration():
            return [], SolverStats(max_steps=limits.max_steps)
        lowered = self.compile(name, params)
        plan = self.plan_for(name, params) if ordering == "plan" else None
        solver = Solver(function, analyses, limits, indexed=indexed)
        return solver.solutions(lowered, plan), solver.stats

    def match_library(self, function: Function, names: list[str],
                      analyses: FunctionAnalyses | None = None,
                      limits: SolveLimits | None = None,
                      max_solutions: int | None = None
                      ) -> tuple[dict[str, list[dict]], SolverStats]:
        """All matches of several idioms in one fused forest pass.

        One solver walks the shared plan forest once per function;
        idioms whose feasibility signature rules the function out are
        skipped without solving (and counted in
        ``stats.feasibility_skips``). Per-idiom solution lists are
        identical — contents and order — to per-idiom :meth:`match`
        solves. The step budget covers the whole pass, scaled by the
        number of feasible idioms: per-idiom mode grants ``max_steps``
        per solve, and the fused pass never uses more ticks than the sum
        of the solves it replaces, so any function that fit the per-idiom
        budgets fits this one.
        """
        limits = (limits or SolveLimits()).with_overrides(max_solutions)
        forest = self.forest_for(tuple(names))
        if function.is_declaration():
            return {name: [] for name in names}, \
                SolverStats(max_steps=limits.max_steps)
        solver = Solver(function, analyses, limits)
        feasible = forest.feasible(solver.context.analyses)
        solver.stats.feasibility_skips += len(names) - len(feasible)
        solver.stats.max_steps = limits.max_steps * max(1, len(feasible))
        solutions = execute_forest(solver, forest, feasible)
        for name in names:
            solutions.setdefault(name, [])
        return solutions, solver.stats
