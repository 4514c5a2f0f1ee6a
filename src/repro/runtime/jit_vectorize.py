"""Affine loop batching for the JIT tier: guarded numpy kernels.

Two kernel shapes are planned, each emitted once at the top of its
header's dispatch arm, so it runs on every entry into the loop — from a
call or from an on-stack entry at the header, for the iterations that
remain.

*Loop kernels* batch an innermost counted loop of the canonical two-block
shape (header: phis + icmp + conditional branch; body: straight-line code
with an unconditional latch) whose memory traffic is affine in the
induction variable and whose arithmetic is float elementwise work plus
optional float reductions. The kernel computes the trip count,
materializes every access as a ``(array, start, stride)`` triple, and
asks :func:`repro.runtime.jit._vec_guard` whether batching is safe
(bounds, no zero-stride store, no partially-overlapping store). If yes,
the whole loop runs as numpy slice arithmetic — loads first, then stores
in program order, then bit-exact sequential reduction folds — and the
block counts / step budget advance by the batched trip count.

*Nest kernels* batch a counted parent loop whose body is such an inner
loop (without reductions or gathers) plus straight-line pre- and
post-blocks of side-effect-free address arithmetic, provided the nest is
rectangular (the inner trip does not depend on the outer induction
variable). Every access is then a 2-D lattice ``start + o * outer stride
+ k * stride`` over the remaining outer iterations ``o`` and the inner
iterations ``k``; one guard, hoisted to the parent header, checks all of
them at once (bounds at both extremes, injective stores, a store shares
its array only with an identical lattice or a disjoint range), and the
nest runs as element-wise kernels over 2-D strided views. Block counts,
steps and the outer induction variable advance in closed form.

If a guard fails (or a gather's realized indices are out of bounds;
every load precedes every store, so nothing has been written yet), the
failure is recorded in ``vm.deopt_count``/``vm.deopt_sites`` and the
loop runs in the specialized code that follows: a failed nest falls back
to the per-entry loop kernels of its inner loop, a failed loop kernel to
the scalar loop, which reproduces faults and index wrapping exactly.
Below a measured minimum trip (:data:`MIN_KERNEL_TRIP`,
:data:`MIN_GATHER_TRIP`) the kernel is not attempted at all.

Bit-identity notes: elementwise float64 numpy arithmetic rounds exactly
like the scalar Python operators; reductions are *not* reassociated — the
elementwise operand array is folded left-to-right through Python floats in
loop order; ``fdiv`` uses a vector twin of the scalar copysign(inf)
semantics; only ``sqrt``/``fabs`` natives are batched (their numpy
counterparts match the interpreter's safe variants).
"""

from __future__ import annotations

from ..ir.instructions import (
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable
from .memory import scalar_count

_PRED_MAP = {"slt": "<", "ult": "<", "sle": "<=", "ule": "<=",
             "sgt": ">", "ugt": ">", "sge": ">=", "uge": ">="}
_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_INVERT = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Below this many batched elements a strided kernel is skipped and the
#: loop runs in specialized scalar code: the guard, slice setup and numpy
#: dispatch cost a fixed 5-20 us per entry, which the scalar iterations
#: they replace only repay from about 12 on (EXPERIMENTS.md "Kernel trip
#: crossover"). NAS sweeps are full of fixed 5-element inner loops; they
#: are batched as nests instead.
MIN_KERNEL_TRIP = 12
#: Gather kernels also bounds-check and fancy-index every realized index
#: vector, so they break even later (same sweep).
MIN_GATHER_TRIP = 22

#: Casts that never fault: batched on demand in a loop body, and allowed
#: as straight-line arithmetic in a nest's outer blocks.
_SAFE_CASTS = ("sext", "zext", "sitofp", "fpext", "fptrunc")
#: Arithmetic a nest's outer blocks may hold: it cannot fault, so running
#: it symbolically inside the kernel instead of once per outer iteration
#: is unobservable.
_NEST_OPS = ("add", "sub", "mul", "fadd", "fsub", "fmul", "fdiv")


class _Reject(Exception):
    """Loop shape outside the vectorizable subset; plan abandoned."""


#: ``body_lines`` indent marking a gather bounds check: its text is the
#: in-bounds condition, and every later line of the kernel nests under it.
GATHER_CHECK = None


class LoopPlan:
    """Everything needed to emit one kernel at its header's arm.

    ``trip_expr`` is the trip of the loop whose header holds the kernel
    (``_t``); a nest kernel also has ``inner_trip_expr`` (``_ti``).
    ``count_lines`` are ``(block index, batched edge count)`` pairs and
    ``steps_expr`` the batched step charge, both in ``_t``/``_ti``.
    """

    __slots__ = ("header_index", "trip_expr", "inner_trip_expr", "min_trip",
                 "setup_lines", "guard_expr", "body_lines", "count_lines",
                 "steps_expr")

    def __init__(self):
        self.inner_trip_expr: str | None = None
        self.setup_lines: list[str] = []
        #: (relative indent, text); indent 1 is inside the reduction fold,
        #: indent GATHER_CHECK a gather bounds check.
        self.body_lines: list[tuple[int | None, str]] = []
        self.count_lines: list[tuple[int, str]] = []


def build_loop_plans(spec) -> dict:
    """Map of header block index -> :class:`LoopPlan` for one function."""
    from ..analysis.loops import LoopInfo

    plans: dict[int, LoopPlan] = {}
    index_of = {id(b): i for i, b in enumerate(spec.bc.blocks)}
    try:
        info = LoopInfo(spec.function)
    except Exception:
        return plans
    for loop in info.loops:
        try:
            plan = _Planner(spec, loop, index_of).build()
        except _Reject:
            continue
        plans[plan.header_index] = plan
    return plans


def emit_kernel(spec, plan: LoopPlan, depth: int) -> None:
    """Emit the kernel at the top of the loop header's dispatch arm. Any
    failed check falls through to the code after it."""
    emit = spec.lines.append
    site = f"{spec.bc.name}:{plan.header_index}"
    emit((depth, f"_t = {plan.trip_expr}"))
    if plan.inner_trip_expr is None:
        size = "_t"
    else:
        emit((depth, f"_ti = {plan.inner_trip_expr}"))
        size = "_ti > 0 and _t * _ti"
    emit((depth, f"if {size} >= {plan.min_trip} "
                 f"and not vm.deopt_sites.get({site!r}):"))
    d1 = depth + 1
    for line in plan.setup_lines:
        emit((d1, line))
    emit((d1, f"if steps + {plan.steps_expr} <= max_steps "
              f"and {plan.guard_expr}:"))
    d = d1 + 1
    for rel, line in plan.body_lines:
        if rel is GATHER_CHECK:
            emit((d, f"if {line}:"))
            d += 1
        else:
            emit((d + rel, line))
    if spec.profiling:
        for index, count in plan.count_lines:
            emit((d, f"counts[{index}] += {count}"))
    emit((d, f"steps += {plan.steps_expr}"))
    # Out-of-bounds gather indices may be fine on the next entry: count
    # the failure but do not blacklist the site.
    while d > d1 + 1:
        d -= 1
        emit((d, "else:"))
        emit((d + 1, "vm.deopt_count += 1"))
    emit((d1, "else:"))
    emit((d1 + 1, f"vm.deopt_sites[{site!r}] = True"))
    emit((d1 + 1, "vm.deopt_count += 1"))


# -- token arithmetic (fold to int literals when possible) -------------------

def _tok_int(tok: str):
    try:
        return int(tok)
    except ValueError:
        return None


def _tok_add(a: str, b: str) -> str:
    ia, ib = _tok_int(a), _tok_int(b)
    if ia is not None and ib is not None:
        return str(ia + ib)
    if ia == 0:
        return b
    if ib == 0:
        return a
    return f"({a}) + ({b})"


def _tok_sub(a: str, b: str) -> str:
    ia, ib = _tok_int(a), _tok_int(b)
    if ia is not None and ib is not None:
        return str(ia - ib)
    if ib == 0:
        return a
    return f"({a}) - ({b})"


def _tok_mul(a: str, b: str) -> str:
    ia, ib = _tok_int(a), _tok_int(b)
    if ia is not None and ib is not None:
        return str(ia * ib)
    if ia == 0 or ib == 0:
        return "0"
    if ia == 1:
        return b
    if ib == 1:
        return a
    return f"({a}) * ({b})"


# Affine forms are (base, inner stride, outer stride) token triples: the
# value at inner iteration k and outer iteration o of the kernel is
# base + k * inner + o * outer (the outer stride is "0" in a loop kernel).

def _aff_add(a: tuple, b: tuple) -> tuple:
    return tuple(_tok_add(x, y) for x, y in zip(a, b))


def _aff_sub(a: tuple, b: tuple) -> tuple:
    return tuple(_tok_sub(x, y) for x, y in zip(a, b))


def _aff_scale(a: tuple, k: str) -> tuple:
    return tuple(_tok_mul(x, k) for x in a)


def _trip_expr(pred: str, start: str, bound: str, step: int) -> str:
    """Iterations left of ``for (i = start; i pred bound; i += step)``;
    zero or negative when none are."""
    if pred == "<":
        return f"(({bound}) - ({start}) + ({step - 1})) // {step}"
    if pred == "<=":
        return f"(({bound}) - ({start})) // {step} + 1"
    if pred == ">":
        return f"(({bound}) - ({start}) + ({step + 1})) // ({step})"
    return f"(({bound}) - ({start})) // ({step}) + 1"   # >=


class _Planner:
    """Builds one loop's plan, raising :class:`_Reject` on any obstacle.

    A loop without sub-loops gets a loop kernel; a loop with exactly one,
    canonical, sub-loop gets a nest kernel (``self.outer`` set)."""

    def __init__(self, spec, loop, index_of):
        self.spec = spec
        self.loop = loop
        self.index_of = index_of
        #: Blocks whose values vary inside the kernel.
        self.blocks = {id(b) for b in loop.blocks}
        self.plan = LoopPlan()
        self.vec_memo: dict[int, str] = {}
        self.aff_memo: dict[int, tuple | None] = {}
        self.accesses: list[str] = []    # guard tuple fragments
        #: (relative indent, text), including gather bounds checks.
        self.load_lines: list[tuple[int | None, str]] = []
        self.compute_lines: list[str] = []
        #: (data token, load_lines index) per strided load; if the same
        #: array is also stored, _assemble upgrades the view to a copy.
        self.slice_loads: list[tuple[str, int]] = []
        self.store_dtoks: set[str] = set()
        self.n_expr = 0
        self.n_gather = 0
        self.has_gather = False
        self.uses_kv = False
        self.uses_ko = False
        self.outer = None
        self.ind_phi = self.outer_phi = None
        self.global_slot = {g: s for s, g in spec.bc.global_consts}

    # -- entry ---------------------------------------------------------------
    def build(self) -> LoopPlan:
        loop = self.loop
        if len(loop.children) == 1:
            self.outer = loop
            inner = loop.children[0]
        elif not loop.children:
            inner = loop
        else:
            raise _Reject
        cmp_inst, body_on_true, exit_b = self._canonical(inner)
        plan = self.plan
        plan.header_index = self.index_of[id(loop.header)]
        body_index = self.index_of[id(self.body)]
        if self.outer is not None:
            pre, post = self._nest_shape(inner, exit_b)
        phi, step, back, pred, bound = self._induction(
            inner, cmp_inst, body_on_true, self.body)
        self.ind_phi, self.step, self.back_add = phi, step, back
        if self.outer is None:
            self.ind_start = self._tok(phi)
            plan.trip_expr = _trip_expr(pred, self.ind_start,
                                        self._scalar(bound), step)
            plan.count_lines = [(plan.header_index, "_t"),
                                (body_index, "_t")]
            plan.steps_expr = "_t * 2"
        else:
            # Rectangular: the inner loop starts and ends at the same
            # place on every outer iteration.
            start = next(v for v, b in phi.incoming
                         if not inner.contains_block(b))
            self.ind_start = self._scalar(start)
            plan.inner_trip_expr = _trip_expr(pred, self.ind_start,
                                              self._scalar(bound), step)
            inner_index = self.index_of[id(inner.header)]
            plan.count_lines = (
                [(plan.header_index, "_t")]
                + [(self.index_of[id(b)], "_t") for b in pre]
                + [(inner_index, "_t * (_ti + 1)"), (body_index, "_t * _ti")]
                + [(self.index_of[id(b)], "_t") for b in post])
            plan.steps_expr = f"_t * (_ti * 2 + {len(pre) + len(post) + 2})"
        reductions = self._find_reductions()
        self._walk_body(reductions)
        self._assemble(reductions)
        plan.min_trip = MIN_GATHER_TRIP if self.has_gather \
            else MIN_KERNEL_TRIP
        return plan

    # -- skeleton ------------------------------------------------------------
    def _canonical(self, loop):
        """Check ``loop`` has the two-block shape; returns its header's
        compare, whether the body is on the true edge, and its exit."""
        if len(loop.blocks) != 2:
            raise _Reject
        header = loop.header
        body = next(b for b in loop.blocks if b is not header)
        if len(loop.latches) != 1 or loop.latches[0] is not body:
            raise _Reject
        if len(body.predecessors()) != 1 or len(header.predecessors()) != 2:
            raise _Reject
        if any(True for _ in body.phis()):
            raise _Reject
        self.header, self.body = header, body

        non_phi = [i for i in header.instructions
                   if not isinstance(i, PhiInst)]
        if (len(non_phi) != 2 or not isinstance(non_phi[0], ICmpInst)
                or not isinstance(non_phi[1], BranchInst)):
            raise _Reject
        cmp_inst, br = non_phi
        body_on_true, exit_b = self._exit_of(loop, br, cmp_inst)
        if br.targets()[0 if body_on_true else 1] is not body:
            raise _Reject
        term = body.terminator
        if (not isinstance(term, BranchInst) or term.is_conditional()
                or term.targets()[0] is not header):
            raise _Reject
        return cmp_inst, body_on_true, exit_b

    @staticmethod
    def _exit_of(loop, br, cmp_inst):
        """(whether the loop continues on the true edge, exit block) of a
        header branch on ``cmp_inst``."""
        if not br.is_conditional() or br.condition is not cmp_inst:
            raise _Reject
        then_b, else_b = br.targets()
        if loop.contains_block(then_b) and not loop.contains_block(else_b):
            return True, else_b
        if loop.contains_block(else_b) and not loop.contains_block(then_b):
            return False, then_b
        raise _Reject

    def _induction(self, loop, cmp_inst: ICmpInst, body_on_true: bool,
                   *latch_blocks):
        """(phi, step, back-edge add, predicate, bound) of ``loop``'s
        counted induction; the add must sit in one of ``latch_blocks``."""
        phi = loop.induction_phi()
        if phi is None:
            raise _Reject
        back = None
        for value, block in phi.incoming:
            if loop.contains_block(block):
                back = value
        if (not isinstance(back, BinaryOperator) or back.opcode != "add"
                or not any(back.parent is b for b in latch_blocks)):
            raise _Reject
        if back.lhs is phi and isinstance(back.rhs, ConstantInt):
            step = back.rhs.value
        elif back.rhs is phi and isinstance(back.lhs, ConstantInt):
            step = back.lhs.value
        else:
            raise _Reject
        if step == 0:
            raise _Reject

        if cmp_inst.lhs is phi:
            pred = _PRED_MAP.get(cmp_inst.predicate)
            bound = cmp_inst.rhs
        elif cmp_inst.rhs is phi:
            pred = _PRED_MAP.get(cmp_inst.predicate)
            pred = _SWAP.get(pred) if pred else None
            bound = cmp_inst.lhs
        else:
            raise _Reject
        if pred is None:
            raise _Reject
        if not body_on_true:
            pred = _INVERT[pred]
        if pred in ("<", "<=") and step < 0:
            raise _Reject
        if pred in (">", ">=") and step > 0:
            raise _Reject
        return phi, step, back, pred, bound

    def _nest_shape(self, inner, inner_exit):
        """Check the parent loop is its counted header, straight-line
        pre-blocks, ``inner`` and straight-line post-blocks, in that
        cycle, and plan its trip; returns (pre-blocks, post-blocks)."""
        outer = self.outer
        head = outer.header
        if len(head.predecessors()) != 2:
            raise _Reject
        br = head.terminator
        if not isinstance(br, BranchInst) or not br.is_conditional():
            raise _Reject
        cmp_inst = br.condition
        if not isinstance(cmp_inst, ICmpInst) or cmp_inst.parent is not head:
            raise _Reject
        body_on_true, _ = self._exit_of(outer, br, cmp_inst)
        pre = self._chain(br.targets()[0 if body_on_true else 1],
                          inner.header)
        post = self._chain(inner_exit, head)
        latch = post[-1] if post else inner.header
        if len(outer.latches) != 1 or outer.latches[0] is not latch:
            raise _Reject
        if len(outer.blocks) != len(pre) + len(post) + 3:
            raise _Reject
        skeleton = {id(cmp_inst), id(br)}
        skeleton.update(id(b.terminator) for b in pre + post)
        for block in [head] + pre + post:
            for inst in block.instructions:
                if id(inst) in skeleton or isinstance(inst, PhiInst):
                    continue   # header phis are checked below
                if isinstance(inst, GEPInst):
                    continue
                if isinstance(inst, BinaryOperator) \
                        and inst.opcode in _NEST_OPS:
                    continue
                if isinstance(inst, CastInst) and inst.opcode in _SAFE_CASTS:
                    continue
                raise _Reject
        phi, step, _back, pred, bound = self._induction(
            outer, cmp_inst, body_on_true, head, *pre, *post)
        if any(p is not phi for p in head.phis()):
            raise _Reject
        self.outer_phi, self.outer_step = phi, step
        self.plan.trip_expr = _trip_expr(pred, self._tok(phi),
                                         self._scalar(bound), step)
        return pre, post

    def _chain(self, block, end) -> list:
        """Blocks from ``block`` up to (excluding) ``end``: each must be a
        phi-free, single-predecessor block of the parent loop ending in an
        unconditional branch to the next."""
        chain = []
        while block is not end:
            term = block.terminator
            if (not self.outer.contains_block(block)
                    or len(block.predecessors()) != 1
                    or any(True for _ in block.phis())
                    or not isinstance(term, BranchInst)
                    or term.is_conditional()):
                raise _Reject
            chain.append(block)
            block = term.targets()[0]
        return chain

    def _find_reductions(self) -> list[tuple]:
        """[(phi slot token, "+"|"-", operand value, back inst)] — every
        header phi must be the induction or a float reduction. A nest's
        inner loop has none: reductions stay 1-D."""
        reductions = []
        for phi in self.header.phis():
            if phi is self.ind_phi:
                continue
            if not phi.type.is_float() or self.outer is not None:
                raise _Reject
            back = None
            for value, block in phi.incoming:
                if block is self.body:
                    back = value
            if (not isinstance(back, BinaryOperator)
                    or back.parent is not self.body
                    or back.opcode not in ("fadd", "fsub")):
                raise _Reject
            if back.opcode == "fadd":
                if back.lhs is phi:
                    operand = back.rhs
                elif back.rhs is phi:
                    operand = back.lhs
                else:
                    raise _Reject
            else:
                if back.lhs is not phi:
                    raise _Reject
                operand = back.rhs
            # The partial sum must feed only the phi, or a stale value
            # would be observable after the batched fold.
            if any(u.user is not phi for u in back.uses):
                raise _Reject
            op = "+" if back.opcode == "fadd" else "-"
            reductions.append((self._tok(phi), op, operand, back))
        return reductions

    # -- body scan -----------------------------------------------------------
    def _walk_body(self, reductions) -> None:
        skeleton = {id(self.back_add), id(self.body.terminator)}
        skeleton.update(id(r[3]) for r in reductions)
        seen_store = False
        for inst in self.body.instructions:
            if id(inst) in skeleton:
                continue
            if isinstance(inst, LoadInst):
                if seen_store:
                    raise _Reject
                self._vec_load(inst)
            elif isinstance(inst, StoreInst):
                if self.has_gather:
                    # Gather loops stay read-only: a data-dependent index
                    # could alias any lattice, defeating the overlap guard.
                    raise _Reject
                if inst.value.type.is_float():
                    expr = self._vexpr(inst.value)
                elif inst.value.type.is_integer():
                    expr = self._affine_vec(self._affine(inst.value))
                else:
                    raise _Reject
                # The guard rejects zero-stride stores, so the view is a
                # writable window onto the array.
                k, dtok = self._access(inst.pointer, writes=True)[1:]
                self.compute_lines.append(
                    f"{self._view(k, dtok)}[...] = {expr}")
                self.store_dtoks.add(dtok)
                seen_store = True
            elif isinstance(inst, GEPInst):
                for use in inst.uses:
                    u = use.user
                    if isinstance(u, LoadInst):
                        continue
                    if isinstance(u, StoreInst) and u.pointer is inst:
                        continue
                    if isinstance(u, GEPInst) and u.pointer is inst:
                        continue
                    raise _Reject
            elif isinstance(inst, BinaryOperator):
                if inst.type.is_float():
                    continue  # emitted on demand by _vexpr
                try:
                    self._affine(inst)
                except _Reject:
                    self._ivexpr(inst)  # must at least vectorize as a gather
            elif isinstance(inst, CastInst):
                if inst.opcode in _SAFE_CASTS:
                    continue  # on demand
                raise _Reject
            elif isinstance(inst, CallInst):
                if inst.callee not in ("sqrt", "fabs"):
                    raise _Reject
            else:
                raise _Reject

    def _assemble(self, reductions) -> None:
        # A strided load is a *view*; when the same array is also written
        # by this kernel, a later compute reading the view would see the
        # stored values instead of the pre-loop ones (the scalar loop
        # reads every load before any same-index store — the guard
        # admits only such lattices). Materialize those loads.
        for dtok, i in self.slice_loads:
            if dtok in self.store_dtoks:
                rel, line = self.load_lines[i]
                self.load_lines[i] = (rel, line + ".copy()")
        body = self.plan.body_lines
        body.extend(self.load_lines)
        body.extend((0, line) for line in self.compute_lines)
        self.compute_lines.clear()
        for rtok, op, operand, _back in reductions:
            expr = self._vexpr(operand)
            # _vexpr may have appended CSE lines for the operand.
            body.extend((0, line) for line in self.compute_lines)
            self.compute_lines.clear()
            body.append((0, f"_acc = {rtok}"))
            body.append((0, f"for _x in _vlist({expr}, _t):"))
            body.append((1, f"_acc = _acc {op} _x"))
            body.append((0, f"{rtok} = _acc"))
        if self.outer is None:
            phi, step, inner_n, guard_n = self.ind_phi, self.step, "_t", "_t"
        else:
            phi, step, inner_n, guard_n = \
                self.outer_phi, self.outer_step, "_ti", "_ti, _t"
        itok = self._tok(phi)
        body.append((0, f"{itok} = {itok} + _t * ({step})"))
        # Prepended last: vectorizing the reduction operands above may be
        # the first thing that sets uses_kv (e.g. sitofp of an
        # induction-affine value), so the decision cannot be made before
        # every expression has been emitted.
        if self.uses_ko:
            body.insert(0, (0, "_ko = np.arange(_t, dtype=np.int64)"
                               "[:, None]"))
        if self.uses_kv:
            body.insert(0, (0, f"_kv = np.arange({inner_n}, "
                               "dtype=np.int64)"))
        self.plan.guard_expr = \
            f"_vec_guard(({', '.join(self.accesses)},), {guard_n})"

    # -- value classification ------------------------------------------------
    def _invariant(self, value) -> bool:
        """Defined outside the kernel's loop (so one register value)."""
        return not isinstance(value, Instruction) \
            or id(value.parent) not in self.blocks

    def _tok(self, value) -> str:
        """Scalar source token for an invariant value or a header phi."""
        from .jit import _literal_token
        if isinstance(value, (ConstantInt, ConstantFloat)):
            return _literal_token(value.value)
        slot = self.spec.bc.value_slots.get(id(value))
        if slot is None:
            raise _Reject
        return self.spec.names[slot]

    def _scalar(self, value) -> str:
        """Source expression for an integer that stays fixed for the whole
        kernel (evaluated at its header)."""
        base, inner, outer = self._affine(value)
        if inner != "0" or outer != "0":
            raise _Reject
        return base

    def _affine(self, value) -> tuple:
        """(base, inner stride, outer stride) tokens if ``value`` is
        linear in the induction phis."""
        memo = self.aff_memo
        if id(value) in memo:
            result = memo[id(value)]
            if result is None:
                raise _Reject
            return result
        memo[id(value)] = None  # cycle guard
        result = self._affine_inner(value)
        memo[id(value)] = result
        return result

    def _affine_inner(self, value) -> tuple:
        if value is self.ind_phi:
            return self.ind_start, str(self.step), "0"
        if value is self.outer_phi:
            return self._tok(value), "0", str(self.outer_step)
        if isinstance(value, ConstantInt):
            return str(value.value), "0", "0"
        if self._invariant(value):
            return self._tok(value), "0", "0"
        if isinstance(value, CastInst) and value.opcode in ("sext", "zext"):
            return self._affine(value.value)
        if isinstance(value, BinaryOperator):
            if value.opcode == "add":
                return _aff_add(self._affine(value.lhs),
                                self._affine(value.rhs))
            if value.opcode == "sub":
                return _aff_sub(self._affine(value.lhs),
                                self._affine(value.rhs))
            if value.opcode == "mul":
                a = self._affine(value.lhs)
                b = self._affine(value.rhs)
                if b[1:] == ("0", "0"):
                    return _aff_scale(a, b[0])
                if a[1:] == ("0", "0"):
                    return _aff_scale(b, a[0])
        raise _Reject

    def _affine_vec(self, aff: tuple) -> str:
        """Integer expression of an affine form: a scalar, or an int64
        vector over the kernel's iterations."""
        base, inner, outer = aff
        parts = [f"({base})"]
        if inner != "0":
            self.uses_kv = True
            parts.append(f"_kv * ({inner})")
        if outer != "0":
            self.uses_ko = True
            parts.append(f"_ko * ({outer})")
        return f"({' + '.join(parts)})" if len(parts) > 1 else parts[0]

    # -- memory --------------------------------------------------------------
    def _gep_parts(self, gep: GEPInst):
        ty = gep.pointer.type
        scales = [scalar_count(ty.pointee)]
        current = ty.pointee
        for _ in gep.indices[1:]:
            current = current.element
            scales.append(scalar_count(current))
        return list(zip(gep.indices, scales))

    def _access(self, pointer, writes: bool) -> tuple:
        """Register one access. Returns ``("s", index, data token)`` for a
        strided lattice or ``("g", index expr, data token)`` for a gather
        (loop-kernel loads only: any affine component folds into
        start/stride, the data-dependent remainder becomes a fancy-index
        vector)."""
        lattice = ("0", "0", "0")
        vec_parts: list[tuple[str, int]] = []
        cur = pointer
        while isinstance(cur, GEPInst) and not self._invariant(cur):
            for index, scale in self._gep_parts(cur):
                try:
                    aff = self._affine(index)
                except _Reject:
                    if writes or self.outer is not None:
                        raise
                    vec_parts.append((self._ivexpr(index), scale))
                    continue
                lattice = _aff_add(lattice, _aff_scale(aff, str(scale)))
            cur = cur.pointer
        if isinstance(cur, GlobalVariable):
            slot = self.global_slot.get(cur.name)
        else:
            if not self._invariant(cur):
                raise _Reject
            slot = self.spec.bc.value_slots.get(id(cur))
        if slot is None:
            raise _Reject
        dtok, otok = self.spec._data_tok(slot)
        start, stride, ostride = lattice
        if otok:
            start = _tok_add(otok, start)
        if not vec_parts:
            k = len(self.accesses)
            setup = self.plan.setup_lines
            setup.append(f"_b{k} = {start}")
            setup.append(f"_s{k} = {stride}")
            if self.outer is None:
                self.accesses.append(f"({dtok}, _b{k}, _s{k}, {int(writes)})")
            else:
                setup.append(f"_o{k} = {ostride}")
                self.accesses.append(
                    f"({dtok}, _b{k}, _s{k}, _o{k}, {int(writes)})")
            return "s", k, dtok
        parts = []
        if stride != "0":
            self.uses_kv = True
            parts.append(f"(({start}) + _kv * ({stride}))")
        elif start != "0":
            parts.append(f"({start})")
        for ivtok, scale in vec_parts:
            parts.append(ivtok if scale == 1 else f"({ivtok}) * {scale}")
        return "g", " + ".join(parts), dtok

    def _view(self, k: int, dtok: str) -> str:
        """Array view of strided access ``k`` over the kernel's
        iterations."""
        if self.outer is None:
            return f"_vslice({dtok}, _b{k}, _s{k}, _t)"
        return f"_vview({dtok}, _b{k}, _s{k}, _o{k}, _ti, _t)"

    def _vec_load(self, inst: LoadInst) -> str:
        tok = self.vec_memo.get(id(inst))
        if tok is not None:
            return tok
        kind = self._access(inst.pointer, writes=False)
        if kind[0] == "s":
            _, k, dtok = kind
            tok = f"_v{k}"
            self.slice_loads.append((dtok, len(self.load_lines)))
            self.load_lines.append((0, f"{tok} = {self._view(k, dtok)}"))
        else:
            # Gather: bounds are data, not a closed form — check the
            # realized index vector; out of bounds, the scalar loop
            # reproduces the semantics (negative wrap, or fault) exactly.
            _, idx_expr, dtok = kind
            g = self.n_gather
            self.n_gather += 1
            self.has_gather = True
            tok = f"_gv{g}"
            self.load_lines.append((0, f"_gi{g} = {idx_expr}"))
            self.load_lines.append(
                (GATHER_CHECK, f"int(_gi{g}.min()) >= 0 "
                               f"and int(_gi{g}.max()) < {dtok}.size"))
            self.load_lines.append((0, f"{tok} = {dtok}[_gi{g}]"))
        self.vec_memo[id(inst)] = tok
        return tok

    def _ivexpr(self, value) -> str:
        """Integer *vector* expression (numpy int64) for a non-affine
        index term, e.g. ``col[j]`` or ``i * i``. Every successful result
        contains at least one vectorized load or the product of two
        induction-varying terms, so it is always an ndarray."""
        try:
            aff = self._affine(value)
        except _Reject:
            pass
        else:
            return self._affine_vec(aff)
        if isinstance(value, LoadInst):
            if not value.type.is_integer():
                raise _Reject
            return self._vec_load(value)
        if isinstance(value, CastInst) and value.opcode in ("sext", "zext"):
            return self._ivexpr(value.value)
        if isinstance(value, BinaryOperator) and value.type.is_integer() \
                and value.opcode in ("add", "sub", "mul"):
            a = self._ivexpr(value.lhs)
            b = self._ivexpr(value.rhs)
            op = {"add": "+", "sub": "-", "mul": "*"}[value.opcode]
            return f"({a} {op} {b})"
        raise _Reject

    # -- elementwise expressions ---------------------------------------------
    def _vexpr(self, value) -> str:
        tok = self.vec_memo.get(id(value))
        if tok is not None:
            return tok
        if isinstance(value, (ConstantInt, ConstantFloat)) \
                or self._invariant(value):
            return self._tok(value)
        if isinstance(value, LoadInst):
            return self._vec_load(value)
        if isinstance(value, BinaryOperator) and value.type.is_float():
            a = self._vexpr(value.lhs)
            b = self._vexpr(value.rhs)
            if value.opcode == "fadd":
                expr = f"{a} + {b}"
            elif value.opcode == "fsub":
                expr = f"{a} - {b}"
            elif value.opcode == "fmul":
                expr = f"{a} * {b}"
            elif value.opcode == "fdiv":
                expr = f"_vfdiv({a}, {b})"
            else:
                raise _Reject
            return self._cse(value, expr)
        if isinstance(value, CallInst) and value.callee == "sqrt":
            return self._cse(value, f"_vsqrt({self._vexpr(value.args[0])})")
        if isinstance(value, CallInst) and value.callee == "fabs":
            return self._cse(value, f"np.abs({self._vexpr(value.args[0])})")
        if isinstance(value, CastInst):
            if value.opcode == "sitofp":
                try:
                    aff = self._affine(value.value)
                except _Reject:
                    inner = self._ivexpr(value.value)
                    return self._cse(value, f"np.asarray({inner})"
                                            ".astype(np.float64)")
                if aff[1:] == ("0", "0"):
                    return self._cse(value, f"float({aff[0]})")
                return self._cse(value, f"{self._affine_vec(aff)}"
                                        ".astype(np.float64)")
            if value.opcode in ("fpext", "fptrunc", "sext", "zext"):
                return self._vexpr(value.value)
        raise _Reject

    def _cse(self, value, expr: str) -> str:
        tok = f"_e{self.n_expr}"
        self.n_expr += 1
        self.compute_lines.append(f"{tok} = {expr}")
        self.vec_memo[id(value)] = tok
        return tok
