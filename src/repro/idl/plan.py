"""Static execution plans for lowered constraints (paper §4.4).

The paper keeps idiom matching tractable because "variables are collected
and ordered to assist constraint solving" — the ordering is a *static*
property of the idiom, computed once at compile time. The seed solver
re-derived the cheapest-ready conjunct dynamically at every search step;
this module precomputes that choice.

The plan compiler simulates the solver's cost model over *name-membership*
environments: :func:`node_cost` depends only on which variables are bound,
never on their values, so replaying the greedy cheapest-first selection
against a simulated bound-set reproduces the dynamic order exactly — once
per idiom instead of once per node expansion. Conjunctions become ordered
step lists (checks first, then single-candidate generators, indexed
generators, scans); disjunctions and collects carry nested sub-plans
compiled against the variables bound at their scheduled position.

Where the simulation is optimistic (an ``or`` branch or an under-filled
``collect`` binds fewer names at runtime than assumed), the executor in
:mod:`.solver` detects the not-ready step and falls back to the dynamic
ordering for the remainder of that conjunction, preserving the seed's
``stuck_branches`` semantics bit for bit.

Every conjunction is also compiled once into :class:`StepRecord` s, the
executor's input: per step, whether it is provably ready (no run-time
readiness check) and whether it is an atom that only checks or only
generates one variable (run inline, without a generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IDLError
from .atoms import CHECKS, COST_NOT_READY, atom_bindings, atom_cost
from .lowering import LAnd, LAtom, LCollect, LMemo, LNative, LOr

#: Cost rank for a ready collect (late: after its outer variables bind).
COST_COLLECT = 80

#: Disjunctions defer past plain generators: entering an Or-branch commits
#: to solving it as a unit, so it should start only after the surrounding
#: conjunction has bound the context variables the branch checks against.
COST_OR_DEFER = 25

#: Replaying a memoized sub-constraint's cached solutions is cheaper than
#: any opcode generator but dearer than unit candidates, so memo references
#: run first when nothing else pins the search.
COST_MEMO = 5

#: Placeholder value for simulated (plan-time) environments. ``#len:``
#: markers simulate as 1 so native cost functions see a bound family.
PLANNED = object()


def node_cost(node, env: dict, context=None) -> int:
    """Cost rank of executing any lowered node in ``env``.

    Shared by the dynamic solver (real environments) and the plan compiler
    (simulated environments) — both must rank identically for plans to
    reproduce the dynamic order.
    """
    if isinstance(node, LAtom):
        return atom_cost(node, env)
    if isinstance(node, LMemo):
        return COST_MEMO
    if isinstance(node, LAnd):
        if not node.children:
            return 0
        return min(node_cost(c, env, context) for c in node.children)
    if isinstance(node, LOr):
        if not node.children:
            return 0
        worst = max(node_cost(c, env, context) for c in node.children)
        if worst >= COST_NOT_READY:
            return COST_NOT_READY
        return min(worst + COST_OR_DEFER, COST_NOT_READY - 1)
    if isinstance(node, LNative):
        return node.impl.cost(env, node.args, context)
    if isinstance(node, LCollect):
        ready = all(v in env for v in node.free_vars())
        return COST_COLLECT if ready else COST_NOT_READY
    raise IDLError(f"unknown lowered node {type(node).__name__}")


def simulated_env(bound: frozenset) -> dict:
    """A fake environment whose membership equals ``bound``."""
    return {name: (1 if name.startswith("#len:") else PLANNED)
            for name in bound}


# ---------------------------------------------------------------------------
# Plan node classes
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """Base: a leaf step (atom, native or memo reference).

    ``cost`` is the static cost rank at the position the compiler scheduled
    this node; ``binds`` the names the simulation assumes newly bound after
    it solves.
    """

    node: object
    cost: int = 0
    binds: frozenset = frozenset()

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        return f"{pad}[{self.cost:4d}] {self.node!r}"


@dataclass
class AndPlan(Plan):
    """An ordered conjunction: execute ``steps`` left to right."""

    steps: list[Plan] = field(default_factory=list)
    #: One :class:`StepRecord` per step, attached by :func:`compile_plan`.
    records: list | None = field(default=None, repr=False, compare=False)

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}And({len(self.steps)} steps)"]
        lines += [s.describe(depth + 1) for s in self.steps]
        return "\n".join(lines)


@dataclass
class OrPlan(Plan):
    """A disjunction whose branches were each planned against the entry
    bound-set; ``binds`` is the intersection of the branch bindings (only
    names *every* branch guarantees)."""

    branches: list[Plan] = field(default_factory=list)

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}Or({len(self.branches)} branches)"]
        lines += [b.describe(depth + 1) for b in self.branches]
        return "\n".join(lines)


@dataclass
class CollectPlan(Plan):
    """A collect whose body sub-plan assumes the outer variables bound."""

    body: Plan | None = None

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        header = f"{pad}Collect({self.node.index} x{self.node.limit})"
        if self.body is None:
            return header
        return header + "\n" + self.body.describe(depth + 1)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------

def compile_plan(node, bound: frozenset = frozenset()) -> Plan:
    """Compile a lowered constraint into an execution plan.

    ``bound`` is the set of variable names assumed bound on entry. The
    result, step records included, is cached per idiom by
    :class:`~repro.idl.compiler.IdiomCompiler` and shared by every solve.
    """
    plan = _compile_node(node, bound)
    _attach_records(plan, frozenset(), False, {})
    return plan


def _compile_node(node, bound: frozenset) -> Plan:
    if isinstance(node, LAnd):
        return _compile_and(node, bound)
    if isinstance(node, LOr):
        branches = [_compile_node(c, bound) for c in node.children]
        binds = frozenset()
        if branches:
            binds = frozenset.intersection(*[b.binds for b in branches])
        return OrPlan(node, 0, binds, branches)
    if isinstance(node, LCollect):
        body = _compile_node(node.instance,
                             bound | frozenset(node.free_vars()))
        return CollectPlan(node, COST_COLLECT,
                           _collect_bindings(node, bound), body)
    if isinstance(node, LMemo):
        if node.plan is None:
            node.plan = compile_plan(node.canonical, frozenset())
        binds = frozenset(v for v in node.mapping.values() if v not in bound)
        return Plan(node, COST_MEMO, binds)
    if isinstance(node, LAtom):
        return Plan(node, atom_cost(node, simulated_env(bound)),
                    atom_bindings(node, bound))
    if isinstance(node, LNative):
        return Plan(node, 0, node.impl.planned_bindings(node.args, bound))
    raise IDLError(f"cannot plan node {type(node).__name__}")


def _compile_and(node: LAnd, bound: frozenset) -> AndPlan:
    """Order a conjunction's children by replaying the solver's greedy
    cheapest-first selection over simulated bound-sets."""
    remaining = list(node.children)
    steps: list[Plan] = []
    current: set[str] = set(bound)
    while remaining:
        env = simulated_env(frozenset(current))
        best_index, best_cost = -1, COST_NOT_READY + 1
        for i, child in enumerate(remaining):
            cost = node_cost(child, env, None)
            if cost < best_cost:
                best_index, best_cost = i, cost
                if cost == 0:
                    break
        if best_cost >= COST_NOT_READY:
            # Statically stuck: no remaining conjunct can bind its inputs
            # under the simulation. Emit the rest in source order; the
            # executor's dynamic fallback (or the stuck-branch path)
            # resolves it with real bindings.
            for child in remaining:
                steps.append(_compile_node(child, frozenset(current)))
            break
        child = remaining.pop(best_index)
        sub = _compile_node(child, frozenset(current))
        sub.cost = best_cost
        steps.append(sub)
        current |= sub.binds
    return AndPlan(node, 0, frozenset(current) - bound, steps)


# ---------------------------------------------------------------------------
# Structural signatures (the plan forest's sharing key)
# ---------------------------------------------------------------------------

def _same_name(name: str) -> str:
    return name


def node_signature(node, rename=_same_name) -> tuple:
    """A hashable key capturing a lowered node's full structure.

    Two nodes with equal signatures are interchangeable for execution:
    same atom kinds, same flattened variable names, same memo mappings,
    same nested structure. The cross-idiom plan forest keys its prefix
    trie on these, so conjunct prefixes that several idioms lower
    identically (the ``For``/``ForNest`` building blocks) collapse into
    one shared node. ``rename`` maps every variable name into the key —
    identity by default; the forest's subquery cache passes a
    root-canonicalizer so renamed-but-isomorphic subqueries key equal.
    """
    if isinstance(node, LAtom):
        return ("atom", node.kind, tuple(rename(v) for v in node.vars),
                tuple(sorted(node.extra.items())),
                tuple(tuple(rename(v) for v in vl)
                      for vl in node.varlists))
    if isinstance(node, LAnd):
        return ("and",) + tuple(node_signature(c, rename)
                                for c in node.children)
    if isinstance(node, LOr):
        return ("or",) + tuple(node_signature(c, rename)
                               for c in node.children)
    if isinstance(node, LMemo):
        return ("memo", node.key,
                tuple(sorted((c, rename(v))
                             for c, v in node.mapping.items())))
    if isinstance(node, LNative):
        return ("native", node.name,
                tuple(sorted((a, rename(v))
                             for a, v in node.args.items())))
    if isinstance(node, LCollect):
        return ("collect", node.limit,
                node_signature(node.instance, rename),
                tuple(tuple(sorted((rename(a), rename(b))
                                   for a, b in m.items()))
                      for m in node.index_names))
    raise IDLError(f"cannot fingerprint node {type(node).__name__}")


def plan_signature(plan: Plan, rename=_same_name) -> tuple:
    """A hashable key capturing a compiled plan's structure *and* order.

    Signatures include the scheduled cost and assumed bindings alongside
    the recursive step/branch/body structure, so equal signatures imply
    the two plans execute the exact same search in the exact same order —
    the property that keeps forest-mode match sets bit-identical to the
    per-idiom executor. ``rename`` is threaded through as in
    :func:`node_signature`.
    """
    base: tuple = (type(plan).__name__, plan.cost,
                   tuple(sorted(rename(b) for b in plan.binds)),
                   node_signature(plan.node, rename))
    if isinstance(plan, AndPlan):
        return base + tuple(plan_signature(s, rename) for s in plan.steps)
    if isinstance(plan, OrPlan):
        return base + tuple(plan_signature(b, rename)
                            for b in plan.branches)
    if isinstance(plan, CollectPlan):
        return base + (None if plan.body is None
                       else plan_signature(plan.body, rename),)
    return base


def _collect_bindings(node: LCollect, bound: frozenset) -> frozenset:
    """Names a collect optimistically binds: every indexed variable of
    every instance, plus the ``#len`` family markers. At runtime fewer
    instances may be found; the executor's readiness check covers that."""
    names: set[str] = set(node.indexed_vars())
    for mapping in node.index_names:
        names.update(mapping.values())
    names.update(f"#len:{base}" for base in node.indexed_base_names())
    return frozenset(n for n in names if n not in bound)


# ---------------------------------------------------------------------------
# Step records (the executor's compiled form of a conjunction)
# ---------------------------------------------------------------------------

def guaranteed_binds(plan: Plan, memo: dict | None = None) -> frozenset:
    """Names bound in *every* environment a plan step yields.

    Unlike ``plan.binds`` (the compiler's optimistic simulation), this is
    the pessimistic set: a collect guarantees only its ``#len`` markers
    (it may find zero instances), a disjunction only the intersection of
    its branches, a memo reference what its canonical plan guarantees.
    Steps whose inputs are guaranteed by their predecessors need no
    runtime readiness check — the cost model is monotone in the bound set,
    so a step ready under the guaranteed subset is ready under any actual
    environment extending it.

    ``memo`` (plan ``id`` → result) shares the answers for nested plans
    across the calls of one compilation.
    """
    node = plan.node
    if isinstance(node, LAtom):
        return node.free_vars()  # every path that solves an atom binds it
    if isinstance(node, LNative):
        return plan.binds  # natives bind what they planned
    if memo is None:
        memo = {}
    out = memo.get(id(plan))
    if out is not None:
        return out
    if isinstance(plan, AndPlan):
        out = frozenset()
        for step in plan.steps:
            out |= guaranteed_binds(step, memo)
    elif isinstance(plan, OrPlan):
        branches = [guaranteed_binds(b, memo) for b in plan.branches]
        out = frozenset.intersection(*branches) if branches else frozenset()
    elif isinstance(plan, CollectPlan):
        out = frozenset(f"#len:{base}" for base in node.indexed_base_names())
    else:
        out = frozenset(node.mapping[name]
                        for name in guaranteed_binds(node.plan, memo)
                        if name in node.mapping)
    memo[id(plan)] = out
    return out


#: Step modes. A ``CHECK`` atom has every variable guaranteed bound; a
#: ``GENERATE`` atom has every variable but ``var`` guaranteed bound (the
#: executor still tests ``var`` against the environment, so a path that
#: bound it anyway runs the atom as a check, exactly as the generic path
#: would). Everything else is ``GENERIC``.
CHECK = "check"
GENERATE = "generate"
GENERIC = "generic"


class StepRecord:
    """One conjunction step, compiled for the executor.

    ``ready`` holds when the step is provably ready given the guaranteed
    bindings of the steps before it (and of the conjunction's entry), so
    the executor skips its run-time readiness check; :attr:`rest_nodes`
    are the remaining lowered conjuncts from this step on, the dynamic
    fallback's input when a step that is not provably ready turns out not
    ready. ``test`` is the atom kind's check function (see
    :data:`~repro.idl.atoms.CHECKS`).

    The plan forest fills ``kind`` (``"or"`` or ``"collect"``),
    ``cache_key``, ``context``, ``retarget`` and ``canonize`` for its
    self-contained subquery steps; they stay unset everywhere else.
    """

    __slots__ = ("step", "node", "ready", "mode", "var", "test", "_nodes",
                 "_index", "kind", "cache_key", "context", "retarget",
                 "canonize")

    def __init__(self, step: Plan, guaranteed: dict, nodes: list,
                 index: int):
        self.step = step
        self.node = node = step.node
        # ``guaranteed`` is a simulated environment: the cost model is
        # monotone in the bound set, so ready here means ready at run time.
        self.ready = node_cost(node, guaranteed, None) < COST_NOT_READY
        self._nodes = nodes
        self._index = index
        self.mode = GENERIC
        self.var: str | None = None
        self.test = None
        self.kind = "plain"
        self.cache_key: tuple | None = None
        self.context: tuple[str, ...] = ()
        self.retarget: dict[str, str] | None = None
        self.canonize: dict[str, str] | None = None
        if not (self.ready and type(step) is Plan and
                isinstance(node, LAtom) and node.kind in CHECKS):
            return
        unbound = [v for v in node.free_vars() if v not in guaranteed]
        if len(unbound) <= 1:
            self.mode = CHECK if not unbound else GENERATE
            self.var = unbound[0] if unbound else None
            self.test = CHECKS[node.kind]

    @property
    def rest_nodes(self) -> list:
        """The conjunction's lowered conjuncts from this step on."""
        return self._nodes[self._index:]


def _attach_records(plan: Plan, entry: frozenset, checked: bool,
                    memo: dict) -> None:
    """Attach step records to every conjunction under ``plan``.

    ``entry`` is guaranteed bound whenever ``plan`` starts, and a nested
    plan starts from its enclosing step's environment. ``checked`` says
    ``plan`` only runs once its readiness is established (it is a step of
    a conjunction, or a branch of such a step's disjunction); only then
    does a collect body also start with the collect's free variables
    bound.
    """
    if isinstance(plan, AndPlan):
        nodes = [step.node for step in plan.steps]
        guaranteed = simulated_env(entry)
        plan.records = []
        for index, step in enumerate(plan.steps):
            plan.records.append(StepRecord(step, guaranteed, nodes, index))
            # Leaves hold no conjunction; a memo reference's canonical plan
            # got its records when compile_plan compiled it as a root.
            if not isinstance(step.node, (LAtom, LMemo, LNative)):
                _attach_records(step, _visible(guaranteed, step), True, memo)
            guaranteed.update(simulated_env(guaranteed_binds(step, memo)))
    elif isinstance(plan, OrPlan):
        for branch in plan.branches:
            _attach_records(branch, entry, checked, memo)
    elif isinstance(plan, CollectPlan):
        if plan.body is not None:
            if checked:
                entry = entry | frozenset(plan.node.free_vars())
            _attach_records(plan.body, entry, False, memo)


def _visible(guaranteed: dict, step: Plan) -> frozenset:
    """The part of ``guaranteed`` a nested step's records can consult: its
    own variables and their family-length markers (what natives' cost
    functions read). Dropping the rest only makes records more
    conservative, and keeps each nested conjunction's entry small."""
    names = step.node.free_vars()
    return frozenset([name for name in names if name in guaranteed] +
                     [marker for marker in (f"#len:{n}" for n in names)
                      if marker in guaranteed])
