"""Lowering: IDL AST → flat constraint tree.

Implements the paper's §4.4 compilation process: "the compiler eliminates
inheritance, forall, forsome, if, rename and rebase. They are replaced with
the simpler conjunction and disjunction constructs. This also involves
removing all parameterizations from the formula and flattening all variable
names."

Flattened variables are plain strings (``inner.iterator``,
``read[2].value``). Renaming (``with {outer} as {inner}``) is dictionary
translation applied to the longest matching dotted prefix; rebasing
(``at {base}``) prefixes every untranslated name, exactly as described in
§3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IDLError
from .ast import (
    Atom,
    Collect,
    Conjunction,
    Disjunction,
    ForAll,
    ForOne,
    ForSome,
    If,
    Inheritance,
    Rename,
    Specification,
    VarRef,
    evaluate_calc,
)

MAX_COLLECT_LIMIT = 64


# ---------------------------------------------------------------------------
# Lowered node classes (what the solver executes)
# ---------------------------------------------------------------------------

@dataclass
class LAtom:
    kind: str
    vars: list[str]
    extra: dict = field(default_factory=dict)
    varlists: list[list[str]] = field(default_factory=list)

    def free_vars(self) -> frozenset[str]:
        # Lowered atoms are immutable once built and their free-variable
        # sets are consulted on every cost ranking; build the set once.
        cached = getattr(self, "_free_vars", None)
        if cached is None:
            names = set(self.vars)
            for vl in self.varlists:
                names.update(vl)
            cached = self._free_vars = frozenset(names)
        return cached

    def __repr__(self) -> str:
        return f"LAtom({self.kind} {self.vars} {self.extra})"


class LAnd:
    """Conjunction. Nested conjunctions are flattened on construction so
    the solver's dynamic ordering operates over one global conjunct pool —
    otherwise a nested group would have to be solved as a unit and could
    strand constraints that need variables bound by its siblings."""

    def __init__(self, children: list):
        flat: list = []
        for child in children:
            if isinstance(child, LAnd):
                flat.extend(child.children)
            else:
                flat.append(child)
        self.children = flat

    def free_vars(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.free_vars()
        return names

    def __repr__(self) -> str:
        return f"LAnd({len(self.children)} children)"


class LOr:
    """Disjunction. Nested disjunctions are flattened (harmless)."""

    def __init__(self, children: list):
        flat: list = []
        for child in children:
            if isinstance(child, LOr):
                flat.extend(child.children)
            else:
                flat.append(child)
        self.children = flat

    def free_vars(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.free_vars()
        return names

    def __repr__(self) -> str:
        return f"LOr({len(self.children)} children)"


@dataclass
class LCollect:
    """A lowered ``collect``: instance 0 of the body plus per-index renames.

    ``instance`` is the body lowered with the collect index = 0;
    ``index_names[k]`` maps each instance-0 variable name that depends on
    the index to its name at index k. The solver enumerates all solutions
    of ``instance`` and binds solution j's indexed names via
    ``index_names[j]``.
    """

    index: str
    limit: int
    instance: object
    index_names: list[dict[str, str]]

    def indexed_vars(self) -> set[str]:
        """Instance-0 variable names that depend on the collect index.

        ``index_names[0]`` is the identity (empty) mapping, so the
        index-dependent names are read off instance 1's mapping.
        """
        if len(self.index_names) > 1:
            return set(self.index_names[1].keys())
        return set(self.instance.free_vars())

    def free_vars(self) -> set[str]:
        # Outer variables: those whose name does not depend on the index.
        indexed = self.indexed_vars()
        return {v for v in self.instance.free_vars() if v not in indexed}

    def indexed_base_names(self) -> set[str]:
        """Family base names bound by this collect (e.g. ``read_value``)."""
        return {_family_base(name) for name in self.indexed_vars()}


@dataclass
class LNative:
    """A native (Python-implemented) constraint such as Concat or
    KernelFunction. ``args`` maps declared argument names to resolved
    flattened variable names."""

    name: str
    args: dict[str, str]
    impl: object  # NativeConstraint

    def free_vars(self) -> set[str]:
        return set(self.args.values())


@dataclass
class LMemo:
    """A memoized sub-constraint reference (e.g. ``inherits For``).

    The named specification is lowered once in its own canonical frame
    (``canonical``); every inheritance site shares that lowering and only
    records ``mapping`` — canonical variable name → flattened name at the
    site. The solver enumerates the canonical solution set once per
    function (cached on :class:`FunctionAnalyses`), then replays it through
    the mapping at each site instead of re-deriving the sub-constraint
    inside every idiom. ``plan`` is the canonical execution plan, attached
    by the plan compiler.
    """

    name: str
    key: str
    canonical: object
    mapping: dict[str, str]
    plan: object = None

    def free_vars(self) -> set[str]:
        return set(self.mapping.values())

    def __repr__(self) -> str:
        return f"LMemo({self.name} -> {len(self.mapping)} vars)"


def _family_base(name: str) -> str:
    """``read[0].value`` → ``read``; ``read_value[2]`` → ``read_value``."""
    idx = name.find("[")
    return name[:idx] if idx >= 0 else name


# ---------------------------------------------------------------------------
# Native constraint declaration
# ---------------------------------------------------------------------------

class NativeConstraint:
    """Base class for natively implemented constraints.

    Subclasses declare ``arg_names`` (resolved through rename/rebase like
    IDL variables) and implement ``solve(env, args, context)`` yielding
    extended environments.
    """

    name = "native"
    arg_names: tuple[str, ...] = ()

    def solve(self, env: dict, args: dict[str, str], context):
        raise NotImplementedError

    def planned_bindings(self, args: dict[str, str],
                         bound: frozenset) -> frozenset:
        """Names this constraint binds when solved, for plan compilation.

        The default is conservative (binds nothing); constraints that
        extend the environment (e.g. Concat's output family) override it so
        static plans can schedule their consumers afterwards.
        """
        return frozenset()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class Registry:
    """Holds named IDL specifications and native constraints."""

    def __init__(self) -> None:
        self._specs: dict[str, Specification] = {}
        self._natives: dict[str, NativeConstraint] = {}

    def add_spec(self, spec: Specification) -> None:
        if spec.name in self._specs or spec.name in self._natives:
            raise IDLError(f"duplicate constraint name {spec.name!r}")
        self._specs[spec.name] = spec

    def add_native(self, native: NativeConstraint) -> None:
        if native.name in self._specs or native.name in self._natives:
            raise IDLError(f"duplicate constraint name {native.name!r}")
        self._natives[native.name] = native

    def spec(self, name: str) -> Specification:
        try:
            return self._specs[name]
        except KeyError:
            raise IDLError(f"unknown constraint {name!r}") from None

    def native(self, name: str) -> NativeConstraint | None:
        return self._natives.get(name)

    def names(self) -> list[str]:
        return sorted(list(self._specs) + list(self._natives))


# ---------------------------------------------------------------------------
# Lowering context and algorithm
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    """One lexical layer of variable resolution.

    ``translation`` maps an inner name prefix to an *absolute* outer name
    (already resolved against the parent chain). ``prefix`` is the *raw*
    rebase prefix relative to the parent — after prefixing, resolution
    continues up the parent chain so nested rebases compose
    (``a.b.c`` style names, as in the paper's ``inner.iterator``).
    """

    params: dict[str, int]
    translation: dict[str, str]
    prefix: str | None
    parent: "_Context | None" = None


class Lowerer:
    """Lowers named specifications to solvable trees.

    ``memo_specs`` names building-block constraints (e.g. ``For``) whose
    inheritance sites lower to :class:`LMemo` references against one shared
    canonical lowering, so the solver can enumerate them once per function
    instead of once per enclosing idiom. Only pure atom/and/or constraints
    are memoizable; anything containing collects or natives falls back to
    inline lowering.
    """

    def __init__(self, registry: Registry,
                 memo_specs: frozenset[str] | set[str] = frozenset()):
        self.registry = registry
        self.memo_specs = frozenset(memo_specs)
        self._depth = 0
        self._canonical_cache: dict[tuple, object] = {}
        self._memo_in_progress: set[str] = set()

    # -- variable flattening -------------------------------------------------
    def flatten_var(self, var: VarRef, ctx: _Context) -> str:
        parts: list[str] = []
        for comp in var.components:
            if comp.index_hi is not None:
                raise IDLError(
                    f"range reference {var} outside a variable list")
            if comp.index is not None:
                idx = evaluate_calc(comp.index, ctx.params)
                parts.append(f"{comp.name}[{idx}]")
            else:
                parts.append(comp.name)
        return self.resolve_name(".".join(parts), ctx)

    def resolve_name(self, name: str, ctx: _Context | None) -> str:
        """Apply rename dictionaries (longest dotted prefix) and rebase
        prefixes up the context chain."""
        while ctx is not None:
            segments = name.split(".")
            for cut in range(len(segments), 0, -1):
                key = ".".join(segments[:cut])
                if key in ctx.translation:
                    rest = segments[cut:]
                    # Translation targets are absolute: resolution stops.
                    return ".".join([ctx.translation[key]] + rest)
            if ctx.prefix is not None:
                name = f"{ctx.prefix}.{name}"
            ctx = ctx.parent
        return name

    def flatten_varlist(self, refs: list[VarRef], ctx: _Context) -> list[str]:
        names: list[str] = []
        for ref in refs:
            if ref.is_range():
                names.extend(self._expand_range(ref, ctx))
            else:
                names.append(self.flatten_var(ref, ctx))
        return names

    def _expand_range(self, ref: VarRef, ctx: _Context) -> list[str]:
        ranged = [i for i, c in enumerate(ref.components)
                  if c.index_hi is not None]
        if len(ranged) != 1:
            raise IDLError(f"variable {ref} must contain exactly one range")
        pos = ranged[0]
        comp = ref.components[pos]
        lo = evaluate_calc(comp.index, ctx.params)
        hi = evaluate_calc(comp.index_hi, ctx.params)
        names = []
        for i in range(lo, hi + 1):
            parts = []
            for j, c in enumerate(ref.components):
                if j == pos:
                    parts.append(f"{c.name}[{i}]")
                elif c.index is not None:
                    parts.append(
                        f"{c.name}[{evaluate_calc(c.index, ctx.params)}]")
                else:
                    parts.append(c.name)
            names.append(self.resolve_name(".".join(parts), ctx))
        return names

    # -- node lowering -------------------------------------------------------------
    def lower_spec(self, name: str, params: dict[str, int] | None = None):
        """Lower a named specification to a solvable tree."""
        ctx = _Context(dict(params or {}), {}, None, None)
        lowered = self._lower_named(name, ctx)
        _check_collects_bound(lowered, frozenset(), name)
        return lowered

    def _lower_named(self, name: str, ctx: _Context):
        native = self.registry.native(name)
        if native is not None:
            args = {arg: self.resolve_name(arg, ctx)
                    for arg in native.arg_names}
            return LNative(name, args, native)
        if name in self.memo_specs and name not in self._memo_in_progress:
            memo = self._lower_memo(name, ctx)
            if memo is not None:
                return memo
        spec = self.registry.spec(name)
        self._depth += 1
        if self._depth > 64:
            raise IDLError(f"inheritance too deep (cycle through {name!r}?)")
        try:
            return self.lower(spec.constraint, ctx)
        finally:
            self._depth -= 1

    def _lower_memo(self, name: str, ctx: _Context) -> "LMemo | None":
        """Build an LMemo reference for ``name``, or None if unmemoizable."""
        key_params = tuple(sorted(ctx.params.items()))
        cache_key = (name, key_params)
        canonical = self._canonical_cache.get(cache_key)
        if canonical is None:
            self._memo_in_progress.add(name)
            try:
                canonical = self._lower_named(
                    name, _Context(dict(ctx.params), {}, None, None))
            finally:
                self._memo_in_progress.discard(name)
            if not _memoizable(canonical):
                canonical = False
            self._canonical_cache[cache_key] = canonical
        if canonical is False:
            return None
        mapping = {v: self.resolve_name(v, ctx)
                   for v in sorted(canonical.free_vars())}
        params_text = ",".join(f"{k}={v}" for k, v in key_params)
        return LMemo(name, f"{name}({params_text})", canonical, mapping)

    def lower(self, node, ctx: _Context):
        if isinstance(node, Atom):
            return LAtom(node.kind,
                         [self.flatten_var(v, ctx) for v in node.vars],
                         dict(node.extra),
                         [self.flatten_varlist(vl, ctx)
                          for vl in node.varlists])
        if isinstance(node, Conjunction):
            return LAnd([self.lower(c, ctx) for c in node.children])
        if isinstance(node, Disjunction):
            return LOr([self.lower(c, ctx) for c in node.children])
        if isinstance(node, Inheritance):
            translation = {}
            for outer, inner in node.renames:
                inner_name = self._plain_name(inner, ctx)
                translation[inner_name] = self.flatten_var(outer, ctx)
            prefix = self._plain_name(node.base, ctx) if node.base else None
            params = {k: evaluate_calc(v, ctx.params)
                      for k, v in node.params.items()}
            child = _Context(params, translation, prefix, parent=ctx)
            return self._lower_named(node.name, child)
        if isinstance(node, Rename):
            translation = {}
            for outer, inner in node.renames:
                inner_name = self._plain_name(inner, ctx)
                translation[inner_name] = self.flatten_var(outer, ctx)
            prefix = self._plain_name(node.base, ctx) if node.base else None
            child = _Context(dict(ctx.params), translation, prefix, parent=ctx)
            return self.lower(node.constraint, child)
        if isinstance(node, ForAll):
            return LAnd(self._expand_quantifier(node, ctx))
        if isinstance(node, ForSome):
            return LOr(self._expand_quantifier(node, ctx))
        if isinstance(node, ForOne):
            params = dict(ctx.params)
            params[node.name] = evaluate_calc(node.value, ctx.params)
            return self.lower(
                node.constraint,
                _Context(params, ctx.translation, ctx.prefix, ctx.parent))
        if isinstance(node, If):
            lhs = evaluate_calc(node.lhs, ctx.params)
            rhs = evaluate_calc(node.rhs, ctx.params)
            chosen = node.then if lhs == rhs else node.otherwise
            return self.lower(chosen, ctx)
        if isinstance(node, Collect):
            return self._lower_collect(node, ctx)
        raise IDLError(f"cannot lower node {type(node).__name__}")

    def _plain_name(self, var: VarRef, ctx: _Context) -> str:
        """Flatten an *inner* rename target without applying translations."""
        parts = []
        for comp in var.components:
            if comp.index is not None:
                idx = evaluate_calc(comp.index, ctx.params)
                parts.append(f"{comp.name}[{idx}]")
            else:
                parts.append(comp.name)
        return ".".join(parts)

    def _expand_quantifier(self, node, ctx: _Context) -> list:
        lo = evaluate_calc(node.lo, ctx.params)
        hi = evaluate_calc(node.hi, ctx.params)
        children = []
        for i in range(lo, hi + 1):
            params = dict(ctx.params)
            params[node.index] = i
            children.append(self.lower(
                node.constraint,
                _Context(params, ctx.translation, ctx.prefix, ctx.parent)))
        return children

    def _lower_collect(self, node: Collect, ctx: _Context) -> LCollect:
        limit = min(node.limit, MAX_COLLECT_LIMIT)
        instances = []
        for k in range(limit):
            params = dict(ctx.params)
            params[node.index] = k
            instances.append(self.lower(
                node.constraint,
                _Context(params, ctx.translation, ctx.prefix, ctx.parent)))
        if not instances:
            raise IDLError("collect with zero limit")
        index_names: list[dict[str, str]] = []
        for k in range(limit):
            pairs = list(zip(_positional_vars(instances[0]),
                             _positional_vars(instances[k])))
            mapping = {v0: vk for v0, vk in pairs if v0 != vk}
            index_names.append(mapping)
        if limit > 1 and not index_names[1]:
            # The index never appears in a variable name: nothing to bind.
            raise IDLError(
                f"collect index {node.index!r} unused in variable names")
        return LCollect(node.index, limit, instances[0], index_names)


def _check_collects_bound(node, bound: frozenset, name: str) -> None:
    """Reject a ``collect`` whose outer variables nothing binds: it has
    no enclosing search to enumerate for, and the execution strategies
    disagree on its meaning. An outer variable is bound by a non-collect
    sibling in an enclosing conjunction, or, for a nested collect, by
    being an outer variable of the collect around it."""
    if isinstance(node, LAnd):
        children = node.children
        bound = bound.union(*[child.free_vars() for child in children
                              if not isinstance(child, LCollect)])
    elif isinstance(node, LOr):
        children = node.children
    elif isinstance(node, LCollect):
        unbound = sorted(node.free_vars() - bound)
        if unbound:
            raise IDLError(
                f"idiom {name!r}: collect over {node.index!r} uses outer "
                f"variable {{{unbound[0]}}}, which no enclosing conjunct "
                f"binds")
        children = [node.instance]
        bound = bound | node.free_vars()
    else:
        return
    for child in children:
        _check_collects_bound(child, bound, name)


def _memoizable(lowered) -> bool:
    """Memoized solution replay supports plain atom/and/or trees only:
    collects and natives extend the environment in ways a cached canonical
    solution set cannot represent (``#len`` markers, family bindings)."""
    if isinstance(lowered, LAtom):
        return True
    if isinstance(lowered, (LAnd, LOr)):
        return all(_memoizable(c) for c in lowered.children)
    return False


def _positional_vars(node) -> list[str]:
    """Variable names of a lowered tree in deterministic structural order.

    Two lowerings of the same AST produce structurally identical trees, so
    positional alignment gives an exact name correspondence between collect
    instances (robust against lexicographic quirks like read[10] < read[2]).
    """
    names: list[str] = []
    if isinstance(node, LAtom):
        names.extend(node.vars)
        for vl in node.varlists:
            names.extend(vl)
    elif isinstance(node, (LAnd, LOr)):
        for child in node.children:
            names.extend(_positional_vars(child))
    elif isinstance(node, LCollect):
        names.extend(sorted(node.free_vars()))
    elif isinstance(node, LNative):
        for arg in sorted(node.args):
            names.append(node.args[arg])
    elif isinstance(node, LMemo):
        for cname in sorted(node.mapping):
            names.append(node.mapping[cname])
    return names
