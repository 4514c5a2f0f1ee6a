"""Cross-idiom plan forest: one fused matching network for a whole library.

The paper's scalability argument (§4.4) is that constraint solving stays
tractable because variable ordering and shared sub-constraints are *static*
properties of the idiom library. The per-idiom executor in :mod:`.solver`
exploits that within one idiom; this module exploits it **across** the
library, RETE-style: instead of N independent solves per function, the
per-idiom plans are merged into a prefix trie keyed on lowered-constraint
structure (:func:`~repro.idl.plan.plan_signature`), so conjunct prefixes
several idioms share — the ``For``/``ForNest`` building blocks above all —
execute once per function with their partial environments fanned out into
each idiom's suffix.

Three mechanisms stack:

* **Feasibility signatures** (:class:`FeasibilitySignature`) are computed
  per idiom at compile time from the lowered tree: the opcodes a match
  provably requires and the minimum natural-loop depth implied by its
  chained loop building blocks. They are checked against the per-function
  opcode index (:attr:`FunctionAnalyses.opcode_set`) before any solving,
  so infeasible (function, idiom) pairs never touch the solver.
* **The prefix trie** shares step execution. Equal
  :func:`~repro.idl.plan.plan_signature` prefixes imply the exact same
  search in the exact same order, so sharing preserves each idiom's
  solution enumeration bit for bit. Once a path narrows to a single
  idiom, the rest of that idiom's step records run as one conjunction.
* **A shared per-function subquery memo** (on
  :attr:`FunctionAnalyses.subquery_cache`) persists across all idioms in
  one detection pass. Self-contained steps — disjunction units like
  ``VectorRead``/``Sextable`` and ``collect`` bodies — are keyed by their
  *root-canonicalized* structure plus the identity of their context
  bindings, so structurally identical subqueries enumerate once per
  context and replay everywhere else, across sites, across idioms, and
  across renamings (SPMV's ``output`` store and Stencil1D's ``write``
  store are one cache line).

Execution-order equivalence is the design invariant throughout: for every
idiom, the sequence of solutions the forest emits is identical to what the
per-idiom plan executor would emit, so match sets (and the representative
chosen among witness variants) are bit-identical to per-idiom
:meth:`~repro.idl.compiler.IdiomCompiler.match` solves.

The forest has no executor of its own. Trie nodes and exclusive suffixes
both run through :meth:`Solver.run_steps <repro.idl.solver.Solver.run_steps>`
over the plans' step records (:class:`~repro.idl.plan.StepRecord`), with
sinks that emit per idiom or fan out into child nodes; this module adds
the walk, the per-idiom fallback at a shared node, and the subquery cache
(:func:`run_cached_step`).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

from ..errors import IDLError
from .atoms import COST_NOT_READY, value_key
from .lowering import LAnd, LAtom, LMemo, LOr, _memoizable
from .plan import (
    AndPlan,
    CollectPlan,
    OrPlan,
    Plan,
    StepRecord,
    node_cost,
    plan_signature,
)

#: Context-binding marker for a subquery context variable the environment
#: has not bound yet (the step's own generators will bind it).
_UNBOUND = ("#unbound",)


# ---------------------------------------------------------------------------
# Feasibility signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilitySignature:
    """Compile-time necessary conditions for an idiom to match anywhere
    in a function.

    ``required_opcodes`` are opcodes some variable *must* bind an
    instruction of (conjunctive ``opcode`` atoms; disjunctions contribute
    only the intersection of their branches, collects and natives nothing
    — a collect may be satisfied by zero instances). ``min_loop_depth``
    is the length of the longest chain of required loop building blocks
    linked by nesting constraints. Both are necessary conditions: a
    function failing either check provably has no match, so skipping the
    solve cannot change the match set.
    """

    required_opcodes: frozenset[str]
    min_loop_depth: int

    def admits(self, analyses) -> bool:
        if not self.required_opcodes <= analyses.opcode_set:
            return False
        return self.min_loop_depth == 0 or \
            analyses.max_loop_depth >= self.min_loop_depth


def required_opcodes(node) -> frozenset[str]:
    """Opcodes every solution of ``node`` must bind an instruction of."""
    if isinstance(node, LAtom):
        if node.kind == "opcode" and not node.extra.get("negated"):
            return frozenset((node.extra["opcode"],))
        return frozenset()
    if isinstance(node, LAnd):
        out: set[str] = set()
        for child in node.children:
            out |= required_opcodes(child)
        return frozenset(out)
    if isinstance(node, LOr):
        if not node.children:
            return frozenset()
        out = required_opcodes(node.children[0])
        for child in node.children[1:]:
            out &= required_opcodes(child)
        return out
    if isinstance(node, LMemo):
        # A memo reference yields nothing when its canonical solution set
        # is empty, so the canonical requirements carry over.
        return required_opcodes(node.canonical)
    # Collects are satisfied by zero instances; natives assert nothing
    # the opcode index can see.
    return frozenset()


def _loop_memo_shape(memo: LMemo) -> tuple[str, frozenset[str]] | None:
    """Identify a memoized building block that forces a natural loop.

    Looks for the back-edge pattern ``For`` exhibits: a branch ``latch``
    with a control edge to ``begin``, a phi dominated by ``begin`` that
    is fed from ``latch`` by a value using the phi as an operand. Under
    verified SSA, the phi dominates its user, which dominates the feeding
    branch (incoming values dominate their edge), so ``begin`` dominates
    ``latch`` — making ``latch → begin`` a back edge to a dominator,
    i.e. a natural loop that :class:`~repro.analysis.loops.LoopInfo`
    reports.

    Returns ``(begin, body_entries)`` in *canonical* names, or None.
    ``body_entries`` are the loop's conditional-side branch targets: a
    control-edge target ``t`` of a branch ``s`` that ``begin`` dominates,
    where ``t`` is not the branch's post-dominating (on-every-path) exit
    side. Only such a name witnesses nesting — it is off the loop's
    zero-trip bypass path, so if it dominates another loop's header, that
    header is reachable only through this loop's body. A header or
    successor dominating another header proves nothing (sequential loops
    do that), so those names are deliberately excluded.
    """
    atoms: list[LAtom] = []
    _conjunctive_atoms(memo.canonical, atoms)
    edges = {(a.vars[0], a.vars[1]) for a in atoms
             if a.kind == "edge" and a.extra.get("edge") == "control"}
    doms = {(a.vars[0], a.vars[1]) for a in atoms
            if a.kind == "dominates" and not a.extra.get("negated")
            and not a.extra.get("post")}
    postdoms = {(a.vars[0], a.vars[1]) for a in atoms
                if a.kind == "dominates" and not a.extra.get("negated")
                and a.extra.get("post")}
    uses = {(a.vars[0], a.vars[1]) for a in atoms
            if a.kind == "argument_of"}
    for value, phi, latch in ((a.vars[0], a.vars[1], a.vars[2])
                              for a in atoms if a.kind == "reaches_phi"):
        for begin in (b for (lt, b) in edges if lt == latch):
            if (begin, phi) not in doms or (phi, value) not in uses:
                continue
            body_entries = frozenset(
                t for (s, t) in edges
                if (begin, s) in doms and t != begin
                and (t, s) not in postdoms)
            return begin, body_entries
    return None


def _conjunctive_atoms(node, out: list[LAtom]) -> None:
    """Atoms on the conjunctive spine (disjunction/collect subtrees are
    skipped: their constraints are not unconditionally required)."""
    if isinstance(node, LAtom):
        out.append(node)
    elif isinstance(node, LAnd):
        for child in node.children:
            _conjunctive_atoms(child, out)


def _conjunctive_memos(node, out: list[LMemo]) -> None:
    if isinstance(node, LMemo):
        out.append(node)
    elif isinstance(node, LAnd):
        for child in node.children:
            _conjunctive_memos(child, out)


def min_loop_depth(node) -> int:
    """Minimum natural-loop nesting depth any match of ``node`` implies.

    Required loop building blocks (see :func:`_loop_memo_shape`) each
    demand one natural loop; a required ``control flow dominates`` atom
    from one loop's *body entry* into another's ``begin`` pins the second
    loop's header behind the first loop's body, chaining them into a
    nest. The result is the longest such chain — e.g. 3 for
    ``ForNest(N=3)``, 2 for SPMV's outer/inner pair, 1 for a lone
    ``For``. Dominance between headers or from a loop's successor proves
    nothing (sequential loops exhibit both) and never creates an edge —
    under-estimating the depth only makes the pre-filter less aggressive,
    never unsound.
    """
    memos: list[LMemo] = []
    _conjunctive_memos(node, memos)
    loops = []
    for memo in memos:
        shape = _loop_memo_shape(memo)
        if shape is not None:
            loops.append((memo, shape))
    if not loops:
        return 0
    atoms: list[LAtom] = []
    _conjunctive_atoms(node, atoms)
    doms = [(a.vars[0], a.vars[1]) for a in atoms
            if a.kind == "dominates" and not a.extra.get("negated")
            and not a.extra.get("post")]
    # Site-name body entries and begins, through each memo's mapping.
    bodies = [frozenset(m.mapping[v] for v in shape[1] if v in m.mapping)
              for m, shape in loops]
    begins = [m.mapping.get(shape[0]) for m, shape in loops]
    children: dict[int, list[int]] = {i: [] for i in range(len(loops))}
    for i in range(len(loops)):
        for j in range(len(loops)):
            if i == j or begins[j] is None:
                continue
            if any(a in bodies[i] and b == begins[j] for a, b in doms):
                children[i].append(j)

    depth_cache: dict[int, int] = {}

    def chain(i: int, visiting: frozenset) -> int:
        if i in depth_cache:
            return depth_cache[i]
        if i in visiting:  # defensive: cyclic nesting cannot occur
            return 1
        below = [chain(j, visiting | {i}) for j in children[i]]
        depth_cache[i] = 1 + max(below, default=0)
        return depth_cache[i]

    return max(chain(i, frozenset()) for i in range(len(loops)))


def feasibility_signature(lowered) -> FeasibilitySignature:
    """Compile an idiom's lowered constraint into its pre-filter."""
    return FeasibilitySignature(required_opcodes(lowered),
                                min_loop_depth(lowered))


# ---------------------------------------------------------------------------
# Root-canonical subquery signatures
# ---------------------------------------------------------------------------
# Flattened names are dotted paths over a root segment (``output.address``,
# ``read[2].value``). The natives and family markers build names from the
# structure after the root, so canonicalizing only the root segment keeps
# the name algebra intact while making renamed-but-isomorphic subqueries
# (``output.*`` vs ``write.*``) key equal.

def _name_root(name: str) -> tuple[str, str]:
    cut = len(name)
    for sep in (".", "["):
        pos = name.find(sep)
        if pos >= 0:
            cut = min(cut, pos)
    return name[:cut], name[cut:]


class _Canonicalizer:
    """Assigns ``$0, $1, ...`` to name roots in first-appearance order."""

    def __init__(self):
        self.roots: dict[str, str] = {}

    def name(self, name: str) -> str:
        if name.startswith("#len:"):
            return "#len:" + self.name(name[5:])
        root, suffix = _name_root(name)
        canon = self.roots.get(root)
        if canon is None:
            canon = self.roots[root] = f"${len(self.roots)}"
        return canon + suffix


# ---------------------------------------------------------------------------
# Subquery steps
# ---------------------------------------------------------------------------

class _SignatureKey(tuple):
    """A subquery signature that hashes once.

    Signatures are deep tuples (thousands of elements for a collect
    body) and tuples do not cache their hash, so a plain signature would
    be rehashed on every cache probe. This subclass equals, and hashes like,
    the plain tuple, so cache keys are unchanged; :func:`build_forest`
    interns one per distinct signature, so equal signatures at different
    sites also compare by identity.
    """

    def __new__(cls, signature: tuple):
        key = super().__new__(cls, signature)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rehash on unpickling.
        return _SignatureKey, (tuple(self),)


def _subquery_record(record: StepRecord,
                     keys: dict[tuple, _SignatureKey]) -> StepRecord:
    """``record`` itself, or for a self-contained step (a pure
    disjunction unit or a collect body) a copy marked as a subquery: its
    results are memoized in the function-wide subquery cache under its
    canonical structure plus the identity of its context bindings, and
    replayed through ``retarget`` (canonical → site names; ``canonize``
    is the inverse)."""
    step = record.step
    if isinstance(step, CollectPlan) and _memoizable(step.node.instance):
        kind = "collect"
        # The *instance* free vars, not the collect's outer vars: the body
        # solve is restricted by any instance-0 indexed name the
        # environment happens to bind, so those belong in the key too
        # (they hash as _UNBOUND in the common case).
        free = step.node.instance.free_vars()
    elif isinstance(step, OrPlan) and _memoizable(step.node):
        kind = "or"
        free = step.node.free_vars()
    else:
        return record
    record = copy(record)
    record.kind = kind
    canon = _Canonicalizer()
    signature = plan_signature(step, canon.name)
    # Context order must agree between sites sharing a signature: sort by
    # the canonical form, keep the site names for lookups.
    record.context = tuple(name for _, name in
                           sorted((canon.name(v), v) for v in free))
    key = keys.get(signature)
    if key is None:
        key = keys[signature] = _SignatureKey(signature)
    record.cache_key = key
    record.retarget = _Renamer({c: site for site, c in canon.roots.items()})
    record.canonize = _Renamer(dict(canon.roots))
    return record


class _Renamer(dict):
    """Full names from one root vocabulary to another (``renamer[name]``),
    each translated once: the subquery cache renames the same handful of
    names on every store and replay."""

    def __init__(self, roots: dict[str, str]):
        super().__init__()
        self.roots = roots

    def __missing__(self, name: str) -> str:
        root, suffix = _name_root(name)
        renamed = self[name] = self.roots[root] + suffix
        return renamed


# ---------------------------------------------------------------------------
# The trie
# ---------------------------------------------------------------------------

class ForestNode:
    """One shared plan step; children keyed by structural signature.

    A node whose subtree serves a single idiom is not walked as a trie:
    the executor runs that idiom's remaining step records from ``depth``
    as one conjunction.
    """

    __slots__ = ("step", "depth", "idioms", "sinks", "children",
                 "_child_index", "record", "as_steps")

    def __init__(self, step: Plan, depth: int, record: StepRecord):
        self.step = step
        self.depth = depth
        #: Idioms whose plan passes through this node, registration order.
        self.idioms: list[str] = []
        #: Idioms whose plan *ends* with this step.
        self.sinks: list[str] = []
        self.children: list[ForestNode] = []
        self._child_index: dict[tuple, ForestNode] = {}
        self.record = record
        #: The step as a one-record conjunction for the executor. The
        #: walk establishes readiness itself (its fallback fans out per
        #: idiom), so the record is marked ready.
        if not record.ready:
            record = copy(record)
            record.ready = True
        self.as_steps = [record]


class PlanForest:
    """The merged execution plan of a whole idiom library."""

    def __init__(self, order: tuple[str, ...]):
        self.order = order
        #: Per-idiom step records, one per plan step, subquery steps
        #: marked (see :func:`_subquery_record`).
        self.step_records: dict[str, list[StepRecord]] = {}
        self.signatures: dict[str, FeasibilitySignature] = {}
        self.roots: list[ForestNode] = []
        self._root_index: dict[tuple, ForestNode] = {}
        #: Shared/total step counts, for introspection and tests.
        self.shared_steps = 0
        self.total_steps = 0

    def feasible(self, analyses) -> list[str]:
        """The idioms whose signatures admit this function."""
        return [name for name in self.order
                if self.signatures[name].admits(analyses)]


def build_forest(order: list[str] | tuple[str, ...],
                 plans: dict[str, Plan],
                 lowered: dict[str, object]) -> PlanForest:
    """Merge per-idiom plans into one prefix-sharing trie.

    Idioms are inserted in registration order; a step extends the shared
    path while its :func:`plan_signature` (structure + schedule + assumed
    bindings) matches, which guarantees any two idioms sharing a node
    would have executed that exact search step identically.
    """
    forest = PlanForest(tuple(order))
    keys: dict[tuple, _SignatureKey] = {}
    for name in forest.order:
        plan = plans[name]
        steps = list(plan.steps) if isinstance(plan, AndPlan) else [plan]
        if not steps:
            raise IDLError(f"idiom {name!r} compiled to an empty plan")
        forest.signatures[name] = feasibility_signature(lowered[name])
        # The plan's own records, with the subquery steps swapped for
        # cache-marked copies (per-idiom plan mode never caches).
        records = [_subquery_record(record, keys) for record in
                   (plan.records if isinstance(plan, AndPlan)
                    else [StepRecord(plan, {}, [plan.node], 0)])]
        forest.step_records[name] = records

        level_index = forest._root_index
        level_list = forest.roots
        node: ForestNode | None = None
        for depth, step in enumerate(steps):
            signature = plan_signature(step)
            node = level_index.get(signature)
            forest.total_steps += 1
            if node is None:
                node = ForestNode(step, depth, records[depth])
                level_index[signature] = node
                level_list.append(node)
            else:
                forest.shared_steps += 1
            node.idioms.append(name)
            level_index = node._child_index
            level_list = node.children
        node.sinks.append(name)
    return forest


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_cached_step(solver, record: StepRecord, env: dict, sink) -> bool:
    """A subquery step's extensions through the function-wide subquery
    cache (see :meth:`~repro.idl.solver.Solver.run_steps`): replayed on a
    hit, recorded while streaming on a miss. Returns True iff ``sink``
    stopped the search."""
    stats = solver.stats
    cache = solver.context.analyses.subquery_cache
    bound = tuple([id(env[v]) if v in env else _UNBOUND
                   for v in record.context])
    key = (record.cache_key, bound)
    site = record.retarget
    canon = record.canonize
    if record.kind == "collect":
        node = record.node
        cached = cache.get(key)
        if cached is None:
            instances = solver.collect_instances(node, env,
                                                 record.step.body)
            # Stored under canonical names: a renamed-but-isomorphic
            # collect at another site shares this entry and retargets on
            # replay (exactly like the disjunction deltas below).
            cache[key] = [tuple([(canon[k], v) for k, v in sol.items()])
                          for sol in instances]
        else:
            stats.subquery_hits += 1
            instances = [{site[ck]: v for ck, v in sol} for sol in cached]
        for extended in solver.apply_collect(node, env, instances):
            if sink(extended):
                return True
        return False
    deltas = cache.get(key)
    if deltas is not None:
        stats.subquery_hits += 1
        for delta in deltas:
            new_env = dict(env)
            for cname, value in delta:
                new_env[site[cname]] = value
            if sink(new_env):
                return True
        return False
    # Stream extensions while recording them; the entry is only committed
    # on full enumeration (an abandoned search would otherwise cache a
    # truncated result set).
    recorded = []

    def record_delta(extended: dict) -> bool:
        added = extended.keys() - env.keys()
        recorded.append(tuple([(canon[k], extended[k])
                               for k in filter(added.__contains__, extended)]))
        return sink(extended)

    if solver._run_plan(record.step, env, record_delta):
        return True
    cache[key] = recorded
    return False


def execute_forest(solver, forest: PlanForest,
                   active: list[str]) -> dict[str, list[dict]]:
    """Run the forest over one function for the ``active`` idioms.

    Returns per-idiom solution lists identical — contents *and* order —
    to ``solver.solutions(lowered, plan)`` run per idiom. ``solver`` is a
    fresh :class:`~repro.idl.solver.Solver` for the function; its stats
    accumulate the whole pass.
    """
    out: dict[str, list[dict]] = {name: [] for name in active}
    seen: dict[str, set] = {name: set() for name in active}
    live = set(active)
    max_solutions = solver.limits.max_solutions
    stats = solver.stats
    context = solver.context

    def emit(idiom: str, env: dict) -> bool:
        """Record one solution; True once the idiom's cap is reached."""
        clean = {k: v for k, v in env.items() if not k.startswith("#")}
        key = tuple((k, value_key(v)) for k, v in sorted(clean.items()))
        bucket = seen[idiom]
        if key in bucket:
            return False
        bucket.add(key)
        out[idiom].append(clean)
        if len(out[idiom]) >= max_solutions:
            live.discard(idiom)
            return True
        return False

    tails = {idiom: (lambda env, idiom=idiom: emit(idiom, env))
             for idiom in active}

    def run(node: ForestNode, env: dict) -> None:
        idioms = node.idioms
        if len(idioms) == 1:
            # An exclusive suffix: the idiom's own records, run flat.
            idiom = idioms[0]
            if idiom in live:
                solver.run_steps(forest.step_records[idiom], node.depth,
                                 env, tails[idiom])
            return
        relevant = [i for i in idioms if i in live]
        if not relevant:
            return
        record = node.record
        if not record.ready and \
                node_cost(record.node, env, context) >= COST_NOT_READY:
            # The shared path assumed a binding this search path did not
            # produce. Exactly like the per-idiom executor, the remainder
            # re-derives its order dynamically — but the remainder now
            # differs per idiom, so the environment fans out here.
            for idiom in relevant:
                stats.plan_fallbacks += 1
                rest = forest.step_records[idiom][node.depth].rest_nodes
                for solution in solver._solve_and(rest, env):
                    if emit(idiom, solution):
                        break
            return

        def fan_out(extended: dict) -> bool:
            for idiom in node.sinks:
                if idiom in live:
                    emit(idiom, extended)
            for child in node.children:
                run(child, extended)
            return live.isdisjoint(idioms)

        solver.run_steps(node.as_steps, 0, env, fan_out)

    try:
        for root in forest.roots:
            run(root, {})
    finally:
        # ``run`` is recursive, so its closure cell refers back to it: a
        # reference cycle through the solver, and with it the function's
        # analyses and caches, which only the cyclic collector would free.
        run = None
    return out
