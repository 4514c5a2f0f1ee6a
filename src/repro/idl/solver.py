"""Backtracking constraint solver over LLVM-like IR.

Architecture follows the paper (§2.1, §4.4) and its CGO'17 predecessor:
the lowered constraint tree (conjunctions, disjunctions, atoms, collects,
natives, memo references) is searched by standard backtracking. Execution
order comes from a static per-idiom plan (:mod:`.plan`) compiled once by
the :class:`~repro.idl.compiler.IdiomCompiler`: checks first, then
single-candidate generators, indexed generators, scans — the paper's
static variable ordering. When a planned step is not ready (an ``or``
branch bound fewer names than the plan assumed), the executor falls back
to the seed's dynamic cheapest-ready selection for the remainder of that
conjunction, so the enumerated solution set is identical either way. All
solutions are enumerated and deduplicated.

One executor, :meth:`Solver.run_steps`, runs every planned conjunction —
idiom roots, memo canonical plans, collect bodies, or-branches and the
plan forest's trie (:mod:`.forest`) — from step records compiled once per
plan (:class:`~repro.idl.plan.StepRecord`): provably ready steps skip
the readiness check, and atoms that only check, or only generate one
variable, run inline instead of through generators. Solutions go to a
sink callback rather than up a chain of generators. An inline step ticks,
backtracks and falls back at exactly the points of the search where the
generator path (:meth:`Solver._solve_atom`) does, so no search counter
(:class:`SolverStats`) depends on which path ran a step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError, SolveTimeout
from ..ir.instructions import PhiInst
from ..ir.module import Function
from .atoms import COST_NOT_READY, AtomEngine, SolveContext, value_key, \
    values_equal
from .forest import run_cached_step
from .lowering import LAnd, LAtom, LCollect, LMemo, LNative, LOr
from .plan import (
    CHECK,
    GENERIC,
    AndPlan,
    CollectPlan,
    OrPlan,
    Plan,
    StepRecord,
    node_cost,
)

#: Default search-step cap shared by :class:`SolveLimits` (the configured
#: budget) and :class:`SolverStats` (the enforcing counter). Ticks count
#: every atom execution, candidate, and scan-filtered universe element
#: (the seed budget ignored scan filtering), so the cap is 4x the seed's
#: 5M to keep the same effective headroom for scan-heavy searches.
DEFAULT_MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class SolveLimits:
    """The one budget configuration threaded through compiler, solver and
    detector: solution cap and search-step cap for a single solve."""

    max_solutions: int = 10_000
    max_steps: int = DEFAULT_MAX_STEPS
    #: Wall-clock allowance for one solve, or None for unbounded. Unlike
    #: ``max_steps`` (which raises :class:`~repro.errors.IDLError`, a
    #: hard configuration error), blowing the deadline raises
    #: :class:`~repro.errors.SolveTimeout`, which the detection layer
    #: converts into a partial result.
    deadline_s: float | None = None

    def with_overrides(self, max_solutions: int | None = None,
                       max_steps: int | None = None,
                       deadline_s: float | None = None) -> "SolveLimits":
        out = self
        if max_solutions is not None:
            out = replace(out, max_solutions=max_solutions)
        if max_steps is not None:
            out = replace(out, max_steps=max_steps)
        if deadline_s is not None:
            out = replace(out, deadline_s=deadline_s)
        return out


@dataclass
class SolverStats:
    """Search-effort accounting for one or more solves.

    ``ticks`` counts solver steps: every atom execution, every candidate a
    generator yields, and every universe element a fallback scan filters.
    ``backtracks`` counts rejected candidates, ``plan_fallbacks`` how often
    a planned step was not ready and the dynamic ordering took over,
    ``stuck_branches`` abandoned search paths, and ``memo_hits``/``misses``
    the per-function memo cache behaviour for shared sub-constraints.
    ``feasibility_skips`` counts (function, idiom) solves the forest's
    compile-time signatures proved empty without touching the solver, and
    ``subquery_hits`` replays of the forest's shared per-function collect
    cache (both zero outside ``ordering="forest"``).
    """

    ticks: int = 0
    backtracks: int = 0
    plan_fallbacks: int = 0
    stuck_branches: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    feasibility_skips: int = 0
    subquery_hits: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    #: Deadline arming (excluded from :meth:`as_dict`, so cached stats
    #: payloads keep their pre-deadline shape). ``deadline_at`` is an
    #: absolute ``time.monotonic()`` instant; ``timed_out`` records that
    #: this solve (or one merged into it) was cut short, which the cache
    #: layer uses to refuse to persist partial results.
    deadline_at: float | None = None
    timed_out: bool = False

    def arm_deadline(self, deadline_s: float | None) -> None:
        """Start the wall clock; a None allowance leaves it unarmed."""
        if deadline_s is not None:
            self.deadline_at = time.monotonic() + deadline_s

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks > self.max_steps:
            raise IDLError(
                f"constraint search exceeded {self.max_steps} steps")
        # The clock is sampled every 4096 ticks: a syscall per tick would
        # dominate the solver's inner loop, and at >1M ticks/s the check
        # granularity stays well under any sensible deadline.
        if self.deadline_at is not None and self.ticks & 4095 == 0 \
                and time.monotonic() > self.deadline_at:
            self.timed_out = True
            raise SolveTimeout(
                f"constraint search exceeded its wall-clock deadline "
                f"after {self.ticks} steps")

    def merge(self, other: "SolverStats") -> "SolverStats":
        self.timed_out = self.timed_out or other.timed_out
        self.ticks += other.ticks
        self.backtracks += other.backtracks
        self.plan_fallbacks += other.plan_fallbacks
        self.stuck_branches += other.stuck_branches
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.feasibility_skips += other.feasibility_skips
        self.subquery_hits += other.subquery_hits
        return self

    def as_dict(self) -> dict[str, int]:
        return {
            "ticks": self.ticks,
            "backtracks": self.backtracks,
            "plan_fallbacks": self.plan_fallbacks,
            "stuck_branches": self.stuck_branches,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "feasibility_skips": self.feasibility_skips,
            "subquery_hits": self.subquery_hits,
        }


class Solver:
    """Enumerates all solutions of a lowered constraint over one function.

    Plans run through one executor, :meth:`run_steps`, over the step
    records :func:`~repro.idl.plan.compile_plan` attached. It hands each
    solution to a *sink* instead of yielding it: ``sink(env)`` returns
    True to stop the search (a solution cap was reached), and every
    executor call returns True iff its sink stopped it. The per-idiom
    entry points, memo tables, collect bodies and the plan forest are
    all sinks over the same executor. The dynamic ordering (``plan is
    None``, and the fallback for a step that turns out not ready) stays
    a generator search.
    """

    def __init__(self, function: Function,
                 analyses: FunctionAnalyses | None = None,
                 limits: SolveLimits | None = None,
                 *,
                 max_solutions: int | None = None,
                 max_steps: int | None = None,
                 indexed: bool = True):
        limits = (limits or SolveLimits()).with_overrides(
            max_solutions, max_steps)
        self.limits = limits
        self.stats = SolverStats(max_steps=limits.max_steps)
        self.stats.arm_deadline(limits.deadline_s)
        self.context = SolveContext(function, analyses)
        self.engine = AtomEngine(self.context, stats=self.stats,
                                 indexed=indexed)

    @property
    def max_solutions(self) -> int:
        return self.limits.max_solutions

    @property
    def stuck_branches(self) -> int:
        return self.stats.stuck_branches

    # -- public API ---------------------------------------------------------------
    def solutions(self, lowered, plan: Plan | None = None) -> list[dict]:
        """All distinct solutions, as dicts of variable name → IR value."""
        results: list[dict] = []
        seen: set = set()
        cap = self.limits.max_solutions

        def take(env: dict) -> bool:
            clean = {k: v for k, v in env.items() if not k.startswith("#")}
            key = tuple((k, value_key(v)) for k, v in sorted(clean.items()))
            if key in seen:
                return False
            seen.add(key)
            results.append(clean)
            return len(results) >= cap

        self._search(lowered, plan, take)
        return results

    def first(self, lowered, plan: Plan | None = None) -> dict | None:
        found: list[dict] = []

        def take(env: dict) -> bool:
            found.append({k: v for k, v in env.items()
                          if not k.startswith("#")})
            return True

        self._search(lowered, plan, take)
        return found[0] if found else None

    def _search(self, lowered, plan: Plan | None, sink,
                env: dict | None = None) -> None:
        """Every solution of ``lowered`` from ``env`` into ``sink``: by
        ``plan`` when given, else by the dynamic ordering."""
        env = {} if env is None else env
        if plan is not None:
            self._run_plan(plan, env, sink)
            return
        for solution in self._solve(lowered, env):
            if sink(solution):
                return

    # -- plan execution ---------------------------------------------------------------
    def run_steps(self, records: list[StepRecord], index: int, env: dict,
                  sink) -> bool:
        """Run ``records[index:]`` from ``env``, calling ``sink`` with each
        solution; True iff the sink stopped the search.

        A step not provably ready is readiness-checked first; a failing
        check re-derives the rest dynamically (``plan_fallbacks``). Check
        and generate atoms run inline: a passing check moves on with the
        same environment, a generator loops over its candidates. Any other
        step hands each extension to the rest of the conjunction, through
        the forest's subquery cache when the record is marked for it
        (:func:`~repro.idl.forest.run_cached_step`).
        """
        stats = self.stats
        engine = self.engine
        count = len(records)
        while index < count:
            record = records[index]
            if not record.ready and node_cost(record.node, env, self.context) \
                    >= COST_NOT_READY:
                # The plan assumed a binding (or-branch intersection,
                # collect instance) that this search path did not produce:
                # re-derive the order dynamically for the remaining
                # conjuncts.
                stats.plan_fallbacks += 1
                for solution in self._solve_and(record.rest_nodes, env):
                    if sink(solution):
                        return True
                return False
            index += 1
            mode = record.mode
            if mode is GENERIC:
                if record.cache_key is not None:
                    return run_cached_step(
                        self, record, env,
                        lambda extended: self.run_steps(records, index,
                                                        extended, sink))
                if type(record.step) is not Plan:
                    return self._run_plan(
                        record.step, env,
                        lambda extended: self.run_steps(records, index,
                                                        extended, sink))
                # A leaf (atom, native or memo reference): its own
                # generator, continued here without a sink frame.
                for extended in self._solve(record.node, env):
                    if self.run_steps(records, index, extended, sink):
                        return True
                return False
            atom = record.node
            stats.tick()
            var = record.var
            if mode is CHECK or var in env:
                if record.test(engine, atom, env):
                    continue
                stats.backtracks += 1
                return False
            test = record.test
            for candidate in engine.candidates(atom, var, env):
                stats.tick()
                trial = dict(env)
                trial[var] = candidate
                if test(engine, atom, trial):
                    if self.run_steps(records, index, trial, sink):
                        return True
                else:
                    stats.backtracks += 1
            return False
        return sink(env)

    def _run_plan(self, plan: Plan, env: dict, sink) -> bool:
        if isinstance(plan, AndPlan):
            return self.run_steps(plan.records, 0, env, sink)
        if isinstance(plan, OrPlan):
            for branch in plan.branches:
                if self._run_plan(branch, env, sink):
                    return True
            return False
        if isinstance(plan, CollectPlan):
            instances = self.collect_instances(plan.node, env, plan.body)
            extensions = self.apply_collect(plan.node, env, instances)
        else:
            extensions = self._solve(plan.node, env)
        for extended in extensions:
            if sink(extended):
                return True
        return False

    # -- node dispatch (dynamic ordering) ---------------------------------------------
    def _solve(self, node, env: dict) -> Iterator[dict]:
        if isinstance(node, LAtom):
            return self._solve_atom(node, env)
        if isinstance(node, LAnd):
            return self._solve_and(list(node.children), env)
        if isinstance(node, LOr):
            return self._solve_or(node, env)
        if isinstance(node, LNative):
            return node.impl.solve(env, node.args, self.context)
        if isinstance(node, LCollect):
            return self._solve_collect(node, env)
        if isinstance(node, LMemo):
            return self._solve_memo(node, env)
        raise IDLError(f"unknown lowered node {type(node).__name__}")

    def _solve_or(self, node: LOr, env: dict) -> Iterator[dict]:
        for child in node.children:
            yield from self._solve(child, env)

    def _solve_atom(self, atom: LAtom, env: dict) -> Iterator[dict]:
        self.stats.tick()
        unbound = [v for v in atom.free_vars() if v not in env]
        if not unbound:
            if self.engine.check(atom, env):
                yield env
            else:
                self.stats.backtracks += 1
            return
        if len(unbound) == 1:
            var = unbound[0]
            for candidate in self.engine.candidates(atom, var, env):
                self.stats.tick()
                trial = dict(env)
                trial[var] = candidate
                if self.engine.check(atom, trial):
                    yield trial
                else:
                    self.stats.backtracks += 1
            return
        # Multi-binding: 'reaches phi node' with the phi bound can bind both
        # the incoming value and the branch in one step.
        if atom.kind == "reaches_phi" and atom.vars[1] in env:
            phi = env[atom.vars[1]]
            if not isinstance(phi, PhiInst):
                return
            for value, block in phi.incoming:
                branch = block.terminator
                if branch is None:
                    continue
                self.stats.tick()
                trial = dict(env)
                trial[atom.vars[0]] = value
                trial[atom.vars[2]] = branch
                if self.engine.check(atom, trial):
                    yield trial
                else:
                    self.stats.backtracks += 1
            return
        raise IDLError(
            f"atom {atom.kind} reached with {len(unbound)} unbound "
            f"variables: {unbound}")

    def _solve_and(self, children: list, env: dict) -> Iterator[dict]:
        if not children:
            yield env
            return
        best_index, best_cost = -1, COST_NOT_READY + 1
        for i, child in enumerate(children):
            cost = node_cost(child, env, self.context)
            if cost < best_cost:
                best_index, best_cost = i, cost
                if cost == 0:
                    break
        if best_cost >= COST_NOT_READY:
            # No remaining conjunct can run: variables it needs can no
            # longer be bound on this search path (e.g. a negative atom
            # over reads[0] of an empty collect, or an Or-branch entered
            # without its outer context). The branch fails; a counter is
            # kept so tests can flag library-level ordering bugs.
            self.stats.stuck_branches += 1
            return
        chosen = children[best_index]
        rest = children[:best_index] + children[best_index + 1:]
        for extended in self._solve(chosen, env):
            yield from self._solve_and(rest, extended)

    # -- memoized sub-constraints -----------------------------------------------
    def _solve_memo(self, node: LMemo, env: dict) -> Iterator[dict]:
        """Replay the cached canonical solution set through the site's
        variable mapping, filtering against already-bound variables."""
        for sol in self._memo_solutions(node):
            self.stats.tick()
            merged = dict(env)
            consistent = True
            for cname, value in sol.items():
                target = node.mapping.get(cname, cname)
                if target in merged and \
                        not values_equal(merged[target], value):
                    consistent = False
                    break
                merged[target] = value
            if consistent:
                yield merged
            else:
                self.stats.backtracks += 1

    def _memo_solutions(self, node: LMemo) -> list[dict]:
        cache = self.context.analyses.memo_solutions
        solutions = cache.get(node.key)
        if solutions is not None:
            self.stats.memo_hits += 1
            return solutions
        self.stats.memo_misses += 1
        solutions = []
        seen: set = set()

        def take(env: dict) -> bool:
            key = tuple((k, value_key(v)) for k, v in sorted(env.items()))
            if key not in seen:
                seen.add(key)
                solutions.append(env)
            return False

        self._search(node.canonical, node.plan, take)
        cache[node.key] = solutions
        return solutions

    def _solve_collect(self, node: LCollect, env: dict) -> Iterator[dict]:
        """Enumerate all body solutions; bind indexed families.

        Per the paper: collect "capture[s] all possible solutions of a given
        constraint" — a logical ∀, so it never backtracks into alternative
        subsets: there is exactly one extension (possibly with zero
        instances found).
        """
        solutions = self.collect_instances(node, env)
        yield from self.apply_collect(node, env, solutions)

    def collect_instances(self, node: LCollect, env: dict,
                          body_plan: Plan | None = None) -> list[dict]:
        """The enumeration half of a collect: distinct body solutions,
        projected onto the instance-0 indexed names (all the extension in
        :meth:`apply_collect` reads — and what the forest's shared
        per-function subquery cache stores)."""
        indexed = sorted(node.indexed_vars())
        solutions: list[dict] = []
        seen: set = set()
        limit = node.limit

        def take(sol: dict) -> bool:
            key = tuple(value_key(sol[name]) for name in indexed
                        if name in sol)
            if key in seen:
                return False
            seen.add(key)
            solutions.append({name: sol[name] for name in indexed
                              if name in sol})
            return len(solutions) >= limit

        self._search(node.instance, body_plan, take, env)
        return solutions

    def apply_collect(self, node: LCollect, env: dict,
                      solutions: list[dict]) -> Iterator[dict]:
        """The extension half of a collect: bind solution ``j``'s indexed
        names through ``index_names[j]`` plus the ``#len`` family markers
        (exactly one extension, or none on an inconsistent binding)."""
        indexed = sorted(node.indexed_vars())
        new_env = dict(env)
        bases: set[str] = set()
        for j, sol in enumerate(solutions):
            mapping = node.index_names[j]
            for name0 in indexed:
                if name0 not in sol:
                    continue
                target = mapping.get(name0, name0)
                if target in new_env and \
                        value_key(new_env[target]) != value_key(sol[name0]):
                    return  # inconsistent with an earlier binding
                new_env[target] = sol[name0]
        for name0 in indexed:
            base = name0[:name0.find("[")] if "[" in name0 else name0
            bases.add(base)
        for base in bases:
            new_env[f"#len:{base}"] = len(solutions)
        yield new_env
