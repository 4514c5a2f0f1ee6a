"""Affine loop batching for the JIT tier: guarded numpy kernels.

Recognizes innermost counted loops of the canonical two-block shape
(header: phis + icmp + conditional branch; body: straight-line code with
an unconditional latch) whose memory traffic is affine in the induction
variable and whose arithmetic is float elementwise work plus optional
float reductions. Each such loop gets a *kernel*, emitted once at the top
of the header's dispatch arm, so it runs on every entry into the loop —
from a call or from an on-stack entry at the header, for the iterations
that remain. It computes the trip count, materializes every access as a
``(array, start, stride)`` triple, and asks :func:`repro.runtime.jit
._vec_guard` whether batching is safe (bounds, no zero-stride store, no
partially-overlapping store). If yes, the whole loop runs as numpy slice
arithmetic — loads first, then stores in program order, then bit-exact
sequential reduction folds — and the block counts / step budget advance
by the batched trip count. If no (or a gather's realized indices are out
of bounds; every load precedes every store, so nothing has been written
yet), the failure is recorded in ``vm.deopt_count``/``vm.deopt_sites`` and
the loop runs in the specialized scalar code that follows, which
reproduces faults and index wrapping exactly.

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

#: Below this trip count the kernel is skipped and the loop runs in the
#: specialized scalar code: guard + slice setup costs more than it saves
#: (NAS kernels are full of fixed 5-element inner loops).
MIN_KERNEL_TRIP = 4


class _Reject(Exception):
    """Loop shape outside the vectorizable subset; plan abandoned."""


#: ``body_lines`` indent marking a gather bounds check: its text is the
#: in-bounds condition, and every later line of the kernel nests under it.
GATHER_CHECK = None


class LoopPlan:
    """Everything needed to emit one loop's kernel at its header's arm."""

    __slots__ = ("header_index", "body_index", "trip_expr",
                 "setup_lines", "guard_expr", "body_lines")

    def __init__(self):
        self.setup_lines: list[str] = []
        #: (relative indent, text); indent 1 is inside the reduction fold,
        #: indent GATHER_CHECK a gather bounds check.
        self.body_lines: list[tuple[int | None, str]] = []


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
    failed check falls through to the scalar loop after it."""
    emit = spec.lines.append
    site = f"{spec.bc.name}:{plan.header_index}"
    emit((depth, f"_t = {plan.trip_expr}"))
    emit((depth, f"if _t >= {MIN_KERNEL_TRIP} "
                 f"and not vm.deopt_sites.get({site!r}):"))
    d1 = depth + 1
    for line in plan.setup_lines:
        emit((d1, line))
    emit((d1, f"if steps + _t * 2 <= max_steps and {plan.guard_expr}:"))
    d = d1 + 1
    for rel, line in plan.body_lines:
        if rel is GATHER_CHECK:
            emit((d, f"if {line}:"))
            d += 1
        else:
            emit((d + rel, line))
    if spec.profiling:
        emit((d, f"counts[{plan.header_index}] += _t"))
        emit((d, f"counts[{plan.body_index}] += _t"))
    emit((d, "steps += _t * 2"))
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


class _Planner:
    """Builds one loop's plan, raising :class:`_Reject` on any obstacle."""

    def __init__(self, spec, loop, index_of):
        self.spec = spec
        self.loop = loop
        self.index_of = index_of
        self.plan = LoopPlan()
        self.vec_memo: dict[int, str] = {}
        self.aff_memo: dict[int, tuple[str, str] | None] = {}
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
        self.global_slot = {g: s for s, g in spec.bc.global_consts}

    # -- entry ---------------------------------------------------------------
    def build(self) -> LoopPlan:
        loop, spec = self.loop, self.spec
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
        if not br.is_conditional() or br.condition is not cmp_inst:
            raise _Reject
        then_b, else_b = br.targets()
        if then_b is body:
            body_on_true, exit_b = True, else_b
        elif else_b is body:
            body_on_true, exit_b = False, then_b
        else:
            raise _Reject
        if loop.contains_block(exit_b):
            raise _Reject
        term = body.terminator
        if (not isinstance(term, BranchInst) or term.is_conditional()
                or term.targets()[0] is not header):
            raise _Reject

        plan = self.plan
        plan.header_index = self.index_of[id(header)]
        plan.body_index = self.index_of[id(body)]
        self._find_induction(cmp_inst, body_on_true)
        reductions = self._find_reductions()
        self._walk_body(reductions)
        self._assemble(reductions)
        return plan

    # -- skeleton ------------------------------------------------------------
    def _find_induction(self, cmp_inst: ICmpInst, body_on_true: bool):
        phi = self.loop.induction_phi()
        if phi is None:
            raise _Reject
        back = None
        for value, block in phi.incoming:
            if self.loop.contains_block(block):
                back = value
        if (not isinstance(back, BinaryOperator) or back.opcode != "add"
                or back.parent is not self.body):
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
        if not self._invariant(bound):
            raise _Reject

        self.ind_phi = phi
        self.step = step
        self.back_add = back
        i = self._tok(phi)
        n = self._tok(bound)
        if pred == "<":
            self.plan.trip_expr = f"(({n}) - ({i}) + ({step - 1})) // {step}"
        elif pred == "<=":
            self.plan.trip_expr = f"(({n}) - ({i})) // {step} + 1"
        elif pred == ">":
            self.plan.trip_expr = \
                f"(({n}) - ({i}) + ({step + 1})) // ({step})"
        else:  # >=
            self.plan.trip_expr = f"(({n}) - ({i})) // ({step}) + 1"

    def _find_reductions(self) -> list[tuple]:
        """[(phi slot token, "+"|"-", operand value, back inst)] — every
        header phi must be the induction or a float reduction."""
        reductions = []
        for phi in self.header.phis():
            if phi is self.ind_phi:
                continue
            if not phi.type.is_float():
                raise _Reject
            back = None
            for value, block in phi.incoming:
                if self.loop.contains_block(block):
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
        self.stores: list[str] = []
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
                    b, s = self._affine(inst.value)
                    if s == "0":
                        expr = f"({b})"
                    else:
                        self.uses_kv = True
                        expr = f"(({b}) + _kv * ({s}))"
                else:
                    raise _Reject
                _, k, dtok = self._access(inst.pointer, writes=True)
                self.compute_lines.append(
                    f"_vstore({dtok}, _b{k}, _s{k}, _t, {expr})")
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
                if inst.opcode in ("sext", "zext", "sitofp",
                                   "fpext", "fptrunc"):
                    continue  # on demand
                raise _Reject
            elif isinstance(inst, CallInst):
                if inst.callee not in ("sqrt", "fabs"):
                    raise _Reject
            else:
                raise _Reject

    def _assemble(self, reductions) -> None:
        # _vslice returns a *view*; when the same array is also written
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
            body.append((0, f"for _x in np.broadcast_to(np.asarray({expr}),"
                            " (_t,)).tolist():"))
            body.append((1, f"_acc = _acc {op} _x"))
            body.append((0, f"{rtok} = _acc"))
        itok = self._tok(self.ind_phi)
        body.append((0, f"{itok} = {itok} + _t * ({self.step})"))
        # Prepended last: vectorizing the reduction operands above may be
        # the first thing that sets uses_kv (e.g. sitofp of an
        # induction-affine value), so the decision cannot be made before
        # every expression has been emitted.
        if self.uses_kv:
            body.insert(0, (0, "_kv = np.arange(_t, dtype=np.int64)"))
        self.plan.guard_expr = \
            f"_vec_guard(({', '.join(self.accesses)},), _t)"

    # -- value classification ------------------------------------------------
    def _invariant(self, value) -> bool:
        from ..ir.instructions import Instruction
        if not isinstance(value, Instruction):
            return True
        return value.parent is not self.header \
            and value.parent is not self.body

    def _tok(self, value) -> str:
        """Scalar source token for an invariant value or a header phi."""
        from .jit import _literal_token
        if isinstance(value, (ConstantInt, ConstantFloat)):
            return _literal_token(value.value)
        slot = self.spec.bc.value_slots.get(id(value))
        if slot is None:
            raise _Reject
        return self.spec.names[slot]

    def _affine(self, value):
        """(base token, stride token) if linear in the induction phi."""
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

    def _affine_inner(self, value):
        if value is self.ind_phi:
            return self._tok(value), str(self.step)
        if isinstance(value, ConstantInt):
            return str(value.value), "0"
        if self._invariant(value):
            return self._tok(value), "0"
        if isinstance(value, CastInst) and value.opcode in ("sext", "zext"):
            return self._affine(value.value)
        if isinstance(value, BinaryOperator):
            if value.opcode == "add":
                a = self._affine(value.lhs)
                b = self._affine(value.rhs)
                return _tok_add(a[0], b[0]), _tok_add(a[1], b[1])
            if value.opcode == "sub":
                a = self._affine(value.lhs)
                b = self._affine(value.rhs)
                return _tok_sub(a[0], b[0]), _tok_sub(a[1], b[1])
            if value.opcode == "mul":
                a = self._affine(value.lhs)
                b = self._affine(value.rhs)
                if b[1] == "0":
                    return _tok_mul(a[0], b[0]), _tok_mul(a[1], b[0])
                if a[1] == "0":
                    return _tok_mul(a[0], b[0]), _tok_mul(b[1], a[0])
        raise _Reject

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
        (loads only: any affine component folds into start/stride, the
        data-dependent remainder becomes a fancy-index vector)."""
        start, stride = "0", "0"
        vec_parts: list[tuple[str, int]] = []
        cur = pointer
        while isinstance(cur, GEPInst) and not self._invariant(cur):
            for index, scale in self._gep_parts(cur):
                try:
                    b, s = self._affine(index)
                except _Reject:
                    if writes:
                        raise
                    vec_parts.append((self._ivexpr(index), scale))
                    continue
                start = _tok_add(start, _tok_mul(b, str(scale)))
                stride = _tok_add(stride, _tok_mul(s, str(scale)))
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
        if otok:
            start = _tok_add(otok, start)
        if not vec_parts:
            k = len(self.accesses)
            self.plan.setup_lines.append(f"_b{k} = {start}")
            self.plan.setup_lines.append(f"_s{k} = {stride}")
            self.accesses.append(f"({dtok}, _b{k}, _s{k}, {int(writes)})")
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

    def _vec_load(self, inst: LoadInst) -> str:
        tok = self.vec_memo.get(id(inst))
        if tok is not None:
            return tok
        kind = self._access(inst.pointer, writes=False)
        if kind[0] == "s":
            _, k, dtok = kind
            tok = f"_v{k}"
            self.slice_loads.append((dtok, len(self.load_lines)))
            self.load_lines.append(
                (0, f"{tok} = _vslice({dtok}, _b{k}, _s{k}, _t)"))
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
            b, s = self._affine(value)
        except _Reject:
            pass
        else:
            if s == "0":
                return f"({b})"
            self.uses_kv = True
            return f"(({b}) + _kv * ({s}))"
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
                    base, step = self._affine(value.value)
                except _Reject:
                    inner = self._ivexpr(value.value)
                    return self._cse(value, f"np.asarray({inner})"
                                            ".astype(np.float64)")
                if step == "0":
                    return self._cse(value, f"float({base})")
                self.uses_kv = True
                return self._cse(value, f"(({base}) + _kv * ({step}))"
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
