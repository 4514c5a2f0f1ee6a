"""JIT tier: specialized-Python compilation of hot functions.

Third execution tier above the reference interpreter and the register VM.
Functions start in the VM. A function's *heat* is its calls plus its loop
back edges (policy in :mod:`repro.runtime.profile`); when it crosses the
threshold its bytecode is walked once and turned into *specialized Python
source*: register slots become local variables, PC-resolved branches
become real ``while``/``if`` control flow, phi edge move-lists collapse to
tuple assignments, and constants / GEP scales are folded into the text.
CPython then executes whole basic blocks per dispatch instead of one
instruction tuple each.

Generated code has two entries. A call enters at block 0. A VM frame
whose back edge crossed the threshold enters at that loop header
(on-stack entry): it passes its register list and allocas, the code
unpacks them into locals and rebinds its array base caches, and the frame
finishes in compiled code.

On top of the scalar specialization, counted loops whose bodies are
affine array traversals are batched into vectorized numpy kernels
(:mod:`repro.runtime.jit_vectorize`): an innermost loop gets a loop
kernel, and a rectangular two-deep nest also gets a nest kernel at its
parent loop's header, which runs every remaining outer iteration at once
behind one hoisted guard. Each kernel is placed at the top of its
header's dispatch arm so every entry into the loop (a call's or an
on-stack one) runs it. A runtime guard checks bounds, aliasing and stride
preconditions first; when it fails, the failure is recorded
(``deopt_count``, ``deopt_sites``) and the loop runs in the specialized
code instead — a nest its inner loop's kernel per outer iteration, an
innermost loop its scalar code. The VM is only ever the tier that runs
functions which are cold, uncompilable or blacklisted.

Observability contract: the generated code increments the same dense
per-block count arrays the VM uses (one increment per taken CFG edge; a
kernel adds its batched trip count), charges the same step budget, and
returns bit-identical results — profiles and outputs are indistinguishable
across ``reference``/``vm``/``jit``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ..errors import InterpreterError
from ..reliability import faults
from .bytecode import (
    BIN_FNS,
    FCMP_FNS,
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
    OP_UNREACHABLE,
    _fdiv,
    _frem,
    _NATIVE_FNS,
    _sdiv,
    _srem,
    BytecodeFunction,
)
from .memory import Buffer, Pointer
from .profile import (
    DEFAULT_JIT_THRESHOLD,
    GLOBAL_CODE_CACHE,
    HotnessTracker,
    jit_fingerprint,
)
from .vm import _BUDGET_MSG, STAY_IN_VM, VirtualMachine

# ---------------------------------------------------------------------------
# Reverse operator maps: bound callable -> source text
# ---------------------------------------------------------------------------

#: Callables whose semantics are exactly a Python infix operator. The
#: ordered fcmp predicates (except ``one``) belong here: Python comparisons
#: on NaN yield False, which is precisely their on-NaN result.
_INLINE_BIN = {
    id(operator.add): "+", id(operator.sub): "-", id(operator.mul): "*",
    id(operator.and_): "&", id(operator.or_): "|", id(operator.xor): "^",
    id(operator.lshift): "<<", id(operator.rshift): ">>",
    id(operator.eq): "==", id(operator.ne): "!=",
    id(operator.lt): "<", id(operator.le): "<=",
    id(operator.gt): ">", id(operator.ge): ">=",
}
for _pred, _sym in (("oeq", "=="), ("olt", "<"), ("ole", "<="),
                    ("ogt", ">"), ("oge", ">=")):
    _INLINE_BIN[id(FCMP_FNS[_pred])] = _sym

_LSHR = BIN_FNS["lshr"]


def _csinf(a):
    return math.copysign(math.inf, a)


# -- numpy kernel runtime helpers -------------------------------------------

def _vslice(d, start, step, n):
    """``n`` elements of flat array ``d`` starting at ``start`` with stride
    ``step``, as a view kernel stores write through; a zero stride
    broadcasts the single element (read-only)."""
    if step == 0:
        return np.broadcast_to(d[start], (n,))
    stop = start + step * n
    if step > 0:
        return d[start:stop:step]
    return d[start:stop if stop >= 0 else None:step]


def _vlist(x, n):
    """The ``n`` operands of a reduction as Python numbers, in loop order:
    a vector's elements, or a scalar operand repeated."""
    a = np.asarray(x)
    return a.tolist() if a.ndim else [a.item()] * n


def _vfdiv(a, b):
    """Vector twin of bytecode._fdiv: x/0 yields copysign(inf, x)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.true_divide(a, b)
        return np.where(b == 0, np.copysign(np.inf, a), q)


def _vsqrt(a):
    """Vector twin of the interpreter's _safe_sqrt (negative -> nan)."""
    with np.errstate(invalid="ignore"):
        return np.sqrt(a)


def _vview(d, start, step, ostep, n, m):
    """``m`` x ``n`` view of flat array ``d`` whose element ``[o, k]`` is
    ``d[start + o * ostep + k * step]``; writes go through to ``d``, zero
    strides broadcast (read-only use). numpy refuses a view reaching
    outside ``d``, but only :func:`_vec_guard` makes it the right one."""
    size = d.itemsize
    return np.ndarray((m, n), d.dtype, d, start * size,
                      (ostep * size, step * size))


def _ranges_disjoint(a0, sa, b0, sb, n):
    """True if two strided index sets of length ``n`` are shown to share
    no element. False when that cannot be shown, which is safe (the loop
    runs scalar); True for sets that do share one would not be."""
    a_lo = min(a0, a0 + sa * (n - 1))
    a_hi = max(a0, a0 + sa * (n - 1))
    b_lo = min(b0, b0 + sb * (n - 1))
    b_hi = max(b0, b0 + sb * (n - 1))
    if a_hi < b_lo or b_hi < a_lo:
        return True
    if sa == sb and sa != 0 and (a0 - b0) % sa != 0:
        return True
    return False


def _vec_guard(accesses, n, outer=None):
    """All preconditions for running a batched kernel of ``n`` iterations
    (a loop kernel), or of ``outer`` x ``n`` iterations (a nest kernel,
    see :func:`_nest_guard`).

    ``accesses`` is a tuple of ``(flat array, start, stride, writes)``.
    Checks, in order: every touched index in bounds (scalar loads wrap on
    negatives and fault past the end — both must run scalar), no
    zero-stride store, and for every store/other pair on the same array:
    identical index lattices are fine (the kernel preserves program order
    there), a load whose equal-stride lattice runs strictly *ahead* of the
    store is fine (iteration k reads indices no earlier iteration wrote,
    so both orders observe pre-loop values), anything else must be
    range-disjoint.
    """
    if outer is not None:
        return _nest_guard(accesses, n, outer)
    for d, start, stride, _w in accesses:
        lo = min(start, start + stride * (n - 1))
        hi = max(start, start + stride * (n - 1))
        if lo < 0 or hi >= d.size:
            return False
    for i, (d, start, stride, writes) in enumerate(accesses):
        if not writes:
            continue
        if stride == 0:
            return False
        for j, (d2, start2, stride2, w2) in enumerate(accesses):
            if j == i or d2 is not d:
                continue
            if start2 == start and stride2 == stride:
                continue
            if stride2 == stride:
                delta = start2 - start
                if delta % stride != 0:
                    continue    # interleaved lattices never collide
                if not w2 and delta // stride > 0:
                    continue    # reads stay ahead of the writes
            if not _ranges_disjoint(start, stride, start2, stride2, n):
                return False
    return True


def _nest_guard(accesses, n, m):
    """The hoisted guard of a nest kernel: ``m`` outer by ``n`` inner
    iterations, each access a ``(flat array, start, stride, outer stride,
    writes)`` lattice ``start + o * outer stride + k * stride``.

    Every touched index is in bounds (both extremes of the lattice); every
    store lattice is injective, so no two iterations write one element;
    and a store shares its array only with an identical lattice (each
    element is then read and written by one iteration alone, loads
    first) or with a disjoint index range. Anything else, such as a
    recurrence carried across outer iterations, fails.
    """
    extents = []
    for d, start, stride, ostride, _w in accesses:
        lo = start + min(0, stride * (n - 1)) + min(0, ostride * (m - 1))
        hi = start + max(0, stride * (n - 1)) + max(0, ostride * (m - 1))
        if lo < 0 or hi >= d.size:
            return False
        extents.append((lo, hi))
    for i, (d, start, stride, ostride, writes) in enumerate(accesses):
        if not writes:
            continue
        if not _lattice_injective(stride, n, ostride, m):
            return False
        lo, hi = extents[i]
        for j, (d2, start2, stride2, ostride2, _w2) in enumerate(accesses):
            if j == i or d2 is not d:
                continue
            if (start2, stride2, ostride2) == (start, stride, ostride):
                continue
            lo2, hi2 = extents[j]
            if not (hi < lo2 or hi2 < lo):
                return False
    return True


def _lattice_injective(stride, n, ostride, m):
    """Whether ``(o, k) -> o * ostride + k * stride`` is one-to-one over
    ``m`` x ``n``. Sufficient test: one stride spans the other's whole
    extent; False negatives are safe."""
    if n == 1:
        return m == 1 or ostride != 0
    if m == 1:
        return stride != 0
    a, b = abs(stride), abs(ostride)
    return a != 0 and b != 0 and (b >= a * n or a >= b * m)


#: Names under which non-inlinable callables appear in generated source.
_CALL_NAMES = {id(_sdiv): "_sdiv", id(_srem): "_srem", id(_frem): "_frem"}

#: Execution namespace shared by every generated module (read-only).
_STATIC_NS = {
    "InterpreterError": InterpreterError, "_BUDGET_MSG": _BUDGET_MSG,
    "Pointer": Pointer, "Buffer": Buffer, "np": np,
    "NAN": math.nan, "INF": math.inf,
    "_sdiv": _sdiv, "_srem": _srem, "_frem": _frem, "_csinf": _csinf,
    "_vslice": _vslice, "_vfdiv": _vfdiv,
    "_vsqrt": _vsqrt, "_vec_guard": _vec_guard, "_vview": _vview,
    "_vlist": _vlist,
}
for _pred, _fn in FCMP_FNS.items():
    if id(_fn) not in _INLINE_BIN:
        _CALL_NAMES[id(_fn)] = f"fcmp_{_pred}"
        _STATIC_NS[f"fcmp_{_pred}"] = _fn
for _name, _fn in _NATIVE_FNS.items():
    if id(_fn) not in _CALL_NAMES:
        _CALL_NAMES[id(_fn)] = f"nat_{_name}"
        _STATIC_NS[f"nat_{_name}"] = _fn


def _literal_token(value) -> str:
    """Source text for a folded constant (round-trips bit-exactly)."""
    if value is None:
        return "None"
    if isinstance(value, float):
        if math.isnan(value):
            return "NAN"
        if math.isinf(value):
            return "INF" if value > 0 else "(-INF)"
        r = repr(value)
        return f"({r})" if r.startswith("-") else r
    return f"({value!r})" if value < 0 else repr(value)


# ---------------------------------------------------------------------------
# The specializer: one bytecode function -> Python source text
# ---------------------------------------------------------------------------

class _Unsupported(Exception):
    """Raised during codegen for shapes the specializer does not handle;
    the caller falls back to the VM for this function permanently."""


class _Specializer:
    """Emits ``def _jitfn(vm, args, bx=0, regs=None, allocas=None)``
    source for one bytecode function.

    Dispatch structure: an outer ``while True`` over a block index ``bx``
    with one ``if bx == N`` arm per *join* block; single-predecessor blocks
    are inlined into their predecessor's arm (superblock formation), and a
    back edge to the arm's own root becomes an inner ``while True``. Arms
    are ordered hottest-first using the VM's per-block counts when warm,
    else by static loop depth. Every loop header is a join block, so an
    on-stack entry (``regs`` given) starts at the header's arm.
    """

    def __init__(self, function, bc: BytecodeFunction, vm: VirtualMachine,
                 vectorize: bool = True):
        self.function = function
        self.bc = bc
        self.vm = vm
        self.vectorize = vectorize
        self.profiling = vm.profiling
        n = len(bc.blocks)
        starts = bc.block_starts
        ends = list(starts[1:]) + [len(bc.code)]
        self.block_code = [bc.code[starts[i]:ends[i]] for i in range(n)]
        self.block_edges: list[list] = []
        for i in range(n):
            term = self.block_code[i][-1]
            if term[0] in (OP_BR, OP_LOOPBR):
                self.block_edges.append([term[2], term[3]])
            elif term[0] in (OP_JMP, OP_LOOP):
                self.block_edges.append([term[1]])
            else:
                self.block_edges.append([])
        # Register name tokens: literals fold into the text.
        self.names = [f"r{s}" for s in range(bc.n_regs)]
        for slot, value in bc.literal_consts:
            self.names[slot] = _literal_token(value)
        self.global_slots = {slot: gname
                             for slot, gname in bc.global_consts}
        # Slots whose pointee array is stable for the whole frame (args,
        # globals, alloca results): memory ops through them read a cached
        # ``d<slot>`` flat array instead of ``r.buffer.data``.
        self.stable = set(bc.arg_slots) | set(self.global_slots)
        self.arg_base = set(bc.arg_slots)
        for inst in bc.code:
            if inst[0] == OP_ALLOCA:
                self.stable.add(inst[1])
        self.used_bases: set[int] = set()
        self.uses_rand = any(inst[0] == OP_RAND for inst in bc.code)
        self.atypes = {}
        for inst in bc.code:
            if inst[0] == OP_ALLOCA:
                self.atypes[inst[2]] = inst[4]
        self.lines: list[tuple[int, str]] = []
        self.plans: dict[int, object] = {}   # header block index -> plan
        if vectorize:
            self._build_plans()

    def _build_plans(self) -> None:
        """Populated by the vectorizer (separate section below)."""
        from .jit_vectorize import build_loop_plans
        self.plans = build_loop_plans(self)

    # -- small emission helpers --------------------------------------------
    def _use_base(self, slot: int) -> None:
        self.used_bases.add(slot)

    def _data_tok(self, p: int) -> tuple[str, str]:
        """(flat-array text, base-offset text) for pointer slot ``p``."""
        if p in self.stable:
            self._use_base(p)
            if p in self.arg_base:
                return f"d{p}", f"o{p}"
            return f"d{p}", ""
        t = self.names[p]
        return f"{t}.buffer.data", f"{t}.offset"

    def _addr(self, base_off: str, pairs, add: int) -> str:
        parts = [base_off] if base_off else []
        for s, scale in pairs:
            t = self.names[s]
            parts.append(t if scale == 1 else f"{t} * {scale}")
        if add or not parts:
            parts.append(str(add))
        return " + ".join(parts)

    def _bin_expr(self, fn, a: str, b: str) -> str:
        sym = _INLINE_BIN.get(id(fn))
        if sym is not None:
            return f"{a} {sym} {b}"
        if fn is _fdiv:
            return f"{a} / {b} if {b} != 0 else _csinf({a})"
        if fn is _LSHR:
            return f"(({a}) & 0xFFFFFFFFFFFFFFFF) >> ({b})"
        name = _CALL_NAMES.get(id(fn))
        if name is None:
            raise _Unsupported(f"no source form for {fn!r}")
        return f"{name}({a}, {b})"

    # -- structure ----------------------------------------------------------
    def _in_edges(self) -> list[int]:
        counts = [0] * len(self.bc.blocks)
        counts[0] += 1
        for edges in self.block_edges:
            for _pc, _moves, t in edges:
                counts[t] += 1
        return counts

    def _arm_order(self, roots: list[int]) -> list[int]:
        dyn = self.vm._counts.get(self.bc.name)
        if dyn is not None and any(dyn):
            return sorted(roots, key=lambda b: (-dyn[b], b))
        from ..analysis.loops import LoopInfo
        info = LoopInfo(self.function)
        depth = {}
        for i, block in enumerate(self.bc.blocks):
            loop = info.loop_of_block(block)
            depth[i] = loop.depth if loop is not None else 0
        return sorted(roots, key=lambda b: (-depth[b], b))

    def _inline_closure(self, root: int, inlinable: list[bool]) -> set:
        seen = {root}
        stack = [root]
        while stack:
            b = stack.pop()
            for _pc, _moves, t in self.block_edges[b]:
                if inlinable[t] and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    # -- top level -----------------------------------------------------------
    def generate(self) -> str:
        bc = self.bc
        in_edges = self._in_edges()
        inlinable = [n == 1 and i != 0 for i, n in enumerate(in_edges)]
        roots = [i for i in range(len(bc.blocks)) if not inlinable[i]]

        body: list[tuple[int, str]] = []
        self.lines = body
        first = True
        for root in self._arm_order(roots):
            closure = self._inline_closure(root, inlinable)
            wrapper = any(t == root
                          for b in closure
                          for _pc, _m, t in self.block_edges[b])
            kw = "if" if first else "elif"
            first = False
            body.append((3, f"{kw} bx == {root}:"))
            plan = self.plans.get(root)
            if plan is not None:
                from .jit_vectorize import emit_kernel
                emit_kernel(self, plan, 4)
            depth = 5 if wrapper else 4
            if wrapper:
                body.append((4, "while True:"))
            self._emit_block(root, root, wrapper, depth, {root})
            if wrapper:
                body.append((4, "continue"))
        body.append((3, "else:"))
        body.append((4, "raise InterpreterError('jit dispatch corrupted "
                        f"in @{bc.name}')"))

        # Preamble is assembled last: it depends on which caches are used.
        # Without ``regs`` this is a call entry; with them, an on-stack
        # entry at loop header ``bx`` whose edge the VM already counted
        # and stepped.
        pre: list[tuple[int, str]] = []
        name = bc.name
        pre.append((0, "def _jitfn(vm, args, bx=0, regs=None, allocas=None):"))
        if self.profiling:
            pre.append((1, f"counts = vm._counts[{name!r}]"))
        pre.append((1, "max_steps = vm.max_steps"))
        pre.append((1, "steps = vm.steps"))
        pre.append((1, "try:"))
        pre.append((2, "if regs is None:"))
        pre.append((3, f"if len(args) != {len(bc.arg_slots)}:"))
        pre.append((4, f"raise InterpreterError('@{name} expects "
                       f"{len(bc.arg_slots)} args')"))
        if self.profiling:
            pre.append((3, "counts[0] += 1"))
        pre.append((3, "steps += 1"))
        pre.append((3, "if steps > max_steps:"))
        pre.append((4, "raise InterpreterError(_BUDGET_MSG)"))
        for i, slot in enumerate(bc.arg_slots):
            pre.append((3, f"r{slot} = args[{i}]"))
        for slot, gname in sorted(self.global_slots.items()):
            pre.append((3, f"r{slot} = Pointer(vm.globals[{gname!r}], 0)"))
        uninit = [s for s in range(bc.n_regs)
                  if self.names[s] == f"r{s}"
                  and s not in self.arg_base and s not in self.global_slots]
        for chunk_start in range(0, len(uninit), 12):
            chunk = uninit[chunk_start:chunk_start + 12]
            pre.append((3, " = ".join(f"r{s}" for s in chunk) + " = None"))
        pre.append((3, f"allocas = [None] * {bc.n_allocas}"))
        pre.append((2, "else:"))
        # Literal slots are folded into the text: unpack them into ``_``.
        targets = [f"r{s}" if self.names[s] == f"r{s}" else "_"
                   for s in range(bc.n_regs)]
        rows = [", ".join(targets[i:i + 12]) + ","
                for i in range(0, len(targets), 12)] or ["pass"]
        if targets:
            rows[0] = "(" + rows[0]
            rows[-1] += ") = regs"
        pre.append((3, rows[0]))
        pre.extend((4, row) for row in rows[1:])
        for slot in sorted(inst[1] for inst in bc.code
                           if inst[0] == OP_ALLOCA):
            pre.append((3, f"d{slot} = r{slot}.buffer.data "
                           f"if r{slot} is not None else None"))
        for slot in sorted(self.used_bases):
            if slot in self.global_slots:
                pre.append((2, f"d{slot} = r{slot}.buffer.data"))
            elif slot in self.arg_base:
                # Null-tolerant: a pointer arg may be None on paths that
                # never dereference it; fault only at an actual access.
                pre.append((2, f"d{slot} = r{slot}.buffer.data "
                              f"if r{slot} is not None else None"))
                pre.append((2, f"o{slot} = r{slot}.offset "
                              f"if r{slot} is not None else 0"))
            # alloca bases bind d<slot> at their OP_ALLOCA site (and, on
            # an on-stack entry, above)
        if self.uses_rand:
            pre.append((2, "rng_next = vm.rng.next"))
        pre.append((2, "while True:"))

        post: list[tuple[int, str]] = [
            (1, "except InterpreterError:"),
            (2, "raise"),
            (1, "except (IndexError, AttributeError) as exc:"),
            (2, f"raise InterpreterError('memory access fault in @{name}: '"
                " + str(exc)) from None"),
            (1, "finally:"),
            (2, "if steps > vm.steps:"),
            (3, "vm.steps = steps"),
        ]
        out = [("    " * d) + t for d, t in pre + body + post]
        return "\n".join(out) + "\n"

    # -- blocks and edges ----------------------------------------------------
    def _emit_block(self, b: int, root: int, wrapper: bool, depth: int,
                    path: set) -> None:
        code = self.block_code[b]
        for inst in code[:-1]:
            self._emit_inst(inst, depth)
        term = code[-1]
        op = term[0]
        if op == OP_RET:
            s = term[1]
            self.lines.append(
                (depth, f"return {self.names[s]}" if s >= 0 else
                 "return None"))
        elif op == OP_JMP or op == OP_LOOP:
            self._emit_edge(term[1], root, wrapper, depth, path)
        elif op == OP_BR or op == OP_LOOPBR:
            self.lines.append((depth, f"if {self.names[term[1]]}:"))
            self._emit_edge(term[2], root, wrapper, depth + 1, path)
            self.lines.append((depth, "else:"))
            self._emit_edge(term[3], root, wrapper, depth + 1, path)
        elif op == OP_UNREACHABLE:
            self.lines.append(
                (depth, "raise InterpreterError('reached unreachable')"))
        else:
            self._emit_inst(term, depth)
            raise _Unsupported(f"block {b} has no terminator")

    def _emit_edge(self, edge, root: int, wrapper: bool,
                   depth: int, path: set) -> None:
        _pc, moves, t = edge
        emit = self.lines.append
        if moves:
            env: dict[int, int] = {}
            for d, s in moves:
                env[d] = env.get(s, s)
            dests = ", ".join(f"r{d}" for d in env)
            srcs = ", ".join(self.names[s] for s in env.values())
            emit((depth, f"{dests} = {srcs}"))
        if self.profiling:
            emit((depth, f"counts[{t}] += 1"))
        emit((depth, "steps += 1"))
        emit((depth, "if steps > max_steps:"))
        emit((depth + 1, "raise InterpreterError(_BUDGET_MSG)"))
        if t == root:
            emit((depth, "continue"))
        elif t in path or not self._inlinable_cache[t]:
            emit((depth, f"bx = {t}"))
            emit((depth, "break" if wrapper else "continue"))
        else:
            self._emit_block(t, root, wrapper, depth, path | {t})

    @property
    def _inlinable_cache(self) -> list[bool]:
        cached = getattr(self, "_inl", None)
        if cached is None:
            in_edges = self._in_edges()
            cached = [n == 1 and i != 0 for i, n in enumerate(in_edges)]
            self._inl = cached
        return cached

    # -- instructions --------------------------------------------------------
    def _emit_inst(self, inst, depth: int) -> None:
        emit = self.lines.append
        names = self.names
        op = inst[0]
        if op == OP_BIN:
            emit((depth, f"r{inst[1]} = "
                  f"{self._bin_expr(inst[4], names[inst[2]], names[inst[3]])}"))
        elif op == OP_LOADIDX:
            d, off = self._data_tok(inst[2])
            addr = self._addr(off, ((inst[3], inst[4]),), inst[5])
            emit((depth, f"r{inst[1]} = {d}.item({addr})"))
        elif op == OP_STOREIDX:
            d, off = self._data_tok(inst[2])
            addr = self._addr(off, ((inst[3], inst[4]),), inst[5])
            emit((depth, f"{d}[{addr}] = {names[inst[1]]}"))
        elif op == OP_LOADN:
            d, off = self._data_tok(inst[2])
            addr = self._addr(off, inst[3], inst[4])
            emit((depth, f"r{inst[1]} = {d}.item({addr})"))
        elif op == OP_STOREN:
            d, off = self._data_tok(inst[2])
            addr = self._addr(off, inst[3], inst[4])
            emit((depth, f"{d}[{addr}] = {names[inst[1]]}"))
        elif op == OP_LOAD:
            d, off = self._data_tok(inst[2])
            addr = off or "0"
            emit((depth, f"r{inst[1]} = {d}.item({addr})"))
        elif op == OP_STORE:
            d, off = self._data_tok(inst[2])
            addr = off or "0"
            emit((depth, f"{d}[{addr}] = {names[inst[1]]}"))
        elif op == OP_GEP:
            p = inst[2]
            base = names[p]
            if p in self.stable and p not in self.arg_base:
                addr = self._addr("", inst[3], inst[4])
            else:
                addr = self._addr(f"{base}.offset", inst[3], inst[4])
            emit((depth, f"r{inst[1]} = Pointer({base}.buffer, {addr})"))
        elif op == OP_SELECT:
            emit((depth, f"r{inst[1]} = {names[inst[3]]} "
                  f"if {names[inst[2]]} else {names[inst[4]]}"))
        elif op == OP_UN:
            self._emit_cast(inst, depth)
        elif op == OP_NAT1:
            fn = _CALL_NAMES.get(id(inst[3]))
            if fn is None:
                raise _Unsupported("unknown native")
            emit((depth, f"r{inst[1]} = {fn}({names[inst[2]]})"))
        elif op == OP_NAT2:
            fn = _CALL_NAMES.get(id(inst[4]))
            if fn is None:
                raise _Unsupported("unknown native")
            emit((depth, f"r{inst[1]} = "
                  f"{fn}({names[inst[2]]}, {names[inst[3]]})"))
        elif op == OP_NATN:
            fn = _CALL_NAMES.get(id(inst[3]))
            if fn is None:
                raise _Unsupported("unknown native")
            args = ", ".join(names[s] for s in inst[2])
            emit((depth, f"r{inst[1]} = {fn}({args})"))
        elif op == OP_RAND:
            if inst[1] >= 0:
                emit((depth, f"r{inst[1]} = rng_next()"))
            else:
                emit((depth, "rng_next()"))
        elif op == OP_ALLOCA:
            k, aname = inst[2], inst[3]
            emit((depth, f"_ab = allocas[{k}]"))
            emit((depth, "if _ab is None:"))
            emit((depth + 1,
                  f"_ab = Buffer.for_type({aname!r}, ATYPES[{k}])"))
            emit((depth + 1, f"allocas[{k}] = _ab"))
            emit((depth, f"r{inst[1]} = Pointer(_ab, 0)"))
            # Bind the stable-base array cache here, unconditionally: any
            # later block or kernel may consult d<slot>.
            emit((depth, f"d{inst[1]} = _ab.data"))
            self.used_bases.discard(inst[1])
        elif op == OP_CALL_API:
            cn, slots = inst[2], inst[3]
            emit((depth, "if vm.api_runtime is None:"))
            emit((depth + 1, f"raise InterpreterError('API call {cn} "
                  "with no runtime attached')"))
            args = ", ".join(names[s] for s in slots)
            emit((depth, "vm.steps = steps"))
            target = f"r{inst[1]}" if inst[1] >= 0 else "_r"
            emit((depth, f"{target} = vm.api_runtime.dispatch("
                  f"{cn!r}, [{args}], vm)"))
            emit((depth, "steps = vm.steps"))
        elif op == OP_CALL_FN:
            fname, slots = inst[2], inst[3]
            args = ", ".join(names[s] for s in slots)
            emit((depth, "vm.steps = steps"))
            target = f"r{inst[1]}" if inst[1] >= 0 else "_r"
            emit((depth,
                  f"{target} = vm._dispatch_call({fname!r}, [{args}])"))
            emit((depth, "steps = vm.steps"))
        else:
            raise _Unsupported(f"opcode {op}")

    def _emit_cast(self, inst, depth: int) -> None:
        fn = inst[3]
        a = self.names[inst[2]]
        d = inst[1]
        emit = self.lines.append
        if fn is int:
            emit((depth, f"r{d} = int({a})"))
        elif fn is float:
            emit((depth, f"r{d} = float({a})"))
        elif getattr(fn, "__closure__", None):
            cells = dict(zip(fn.__code__.co_freevars,
                             (c.cell_contents for c in fn.__closure__)))
            mask, wrap, half = cells["mask"], cells["wrap"], cells["half"]
            emit((depth, f"_tc = int({a}) & {mask}"))
            emit((depth, f"r{d} = _tc - {wrap} if _tc >= {half} else _tc"))
        else:  # bitcast identity
            emit((depth, f"r{d} = {a}"))


# ---------------------------------------------------------------------------
# The JIT tier VM
# ---------------------------------------------------------------------------

_UNSEEN = object()


class JitVirtualMachine(VirtualMachine):
    """Three-tier executor: specialized Python for hot functions, register
    VM for cold ones.

    Fully substitutable for :class:`VirtualMachine`: same constructor
    surface plus the tiering knobs, same ``call``/``profile``/``steps``
    contract, bit-identical results and per-block counts.
    """

    def __init__(self, module, api_runtime=None, max_steps: int = 500_000_000,
                 seed: int = 12345, profile: bool = True,
                 jit_threshold: int = DEFAULT_JIT_THRESHOLD,
                 vectorize: bool = True, code_cache=None):
        super().__init__(module, api_runtime, max_steps, seed, profile)
        self.jit_threshold = jit_threshold
        self.vectorize = vectorize
        self.code_cache = code_cache if code_cache is not None \
            else GLOBAL_CODE_CACHE
        self.hotness = HotnessTracker(jit_threshold)
        #: Kernel guards (and gather bounds checks) that failed, after
        #: which the loop ran in specialized scalar code.
        self.deopt_count = 0
        #: "fn:block" sites whose guard failed once; further entries skip
        #: the kernel attempt and stay in specialized scalar code.
        self.deopt_sites: dict[str, bool] = {}
        #: Function name -> specialized code, or None once it is known to
        #: be uncompilable or has been blacklisted.
        self._jit_fns: dict[str, object] = {}
        #: The subset whose call entry is in use: the first call into a
        #: specialization runs under :meth:`_guarded`, later ones go direct.
        self._call_fns: dict[str, object] = {}
        #: Codegen-defect containments: function name -> number of entries
        #: (calls or on-stack loop entries) handed back to the VM tier
        #: after blacklisting its specialization.
        self.codegen_defect_replays: dict[str, int] = {}

    def call(self, name: str, args: list):
        function = self.module.functions.get(name)
        if function is None or function.is_declaration():
            raise InterpreterError(f"cannot call @{name}")
        self._profile_cache = None
        return self._dispatch_call(name, list(args))

    def _dispatch_call(self, name: str, args: list):
        fn = self._call_fns.get(name)
        if fn is not None:
            return fn(self, args)
        bc = self._bc.get(name) or self._compiled(name)
        fn = self._jit_fns.get(name, _UNSEEN)
        if fn is _UNSEEN and self.hotness.note(name):
            fn = self._compile_jit(name, bc)
        if fn is None or fn is _UNSEEN:
            return self._run(bc, args)
        self._call_fns[name] = fn
        result = self._guarded(name, fn, args)
        return self._run(bc, args) if result is STAY_IN_VM else result

    def _back_edge_hook(self, bc: BytecodeFunction, regs: list,
                        allocas: list, bx: int):
        """Tier up a VM frame at loop header ``bx``: count the back edge
        as heat, compile once the function is hot (or fetch its code),
        and finish the frame in compiled code from that header."""
        name = bc.name
        fn = self._jit_fns.get(name, _UNSEEN)
        if fn is _UNSEEN:
            if not self.hotness.note(name):
                return STAY_IN_VM
            fn = self._compile_jit(name, bc)
        if fn is None:
            return STAY_IN_VM
        return self._guarded(name, fn, None, bx, regs, allocas)

    def _guarded(self, name: str, fn, *entry):
        """Safety net around an entry into specialized code: a call's first
        run, and every on-stack entry at a loop header.

        Generated code converts every guest-visible fault to
        :class:`InterpreterError` itself, so any other exception escaping
        it (NameError, TypeError, UnboundLocalError, …) is a codegen
        defect: blacklist the function, restore the step budget, RNG
        state and this function's block counts, and return
        :data:`STAY_IN_VM` so the VM tier replays the call, or continues
        the frame from the loop header it was entered at, instead of
        propagating the raw error. Stores the defective code already made
        into caller-visible buffers are recomputed by the VM rather than
        rolled back.
        """
        steps0, rng0 = self.steps, self.rng.state
        counts0 = self._counts.get(name) if self.profiling else None
        if counts0 is not None:
            counts0 = list(counts0)
        try:
            return fn(self, *entry)
        except InterpreterError:
            raise
        except Exception:
            self._jit_fns[name] = None
            self._call_fns.pop(name, None)
            self.codegen_defect_replays[name] = \
                self.codegen_defect_replays.get(name, 0) + 1
            self.steps, self.rng.state = steps0, rng0
            if counts0 is not None:
                self._counts[name][:] = counts0
            return STAY_IN_VM

    def jit_compiled(self) -> list[str]:
        """Names of functions currently running specialized code."""
        return sorted(n for n, f in self._jit_fns.items() if f is not None)

    def outcome_records(self) -> list[dict]:
        """Per-function reliability records for the JIT tier, mirroring
        the detection session's outcome report: which functions run
        specialized code, which were uncompilable, and which tripped the
        blacklist-and-replay safety net (a contained codegen defect)."""
        out = []
        for name in sorted(set(self._jit_fns) |
                           set(self.codegen_defect_replays)):
            fn = self._jit_fns.get(name)
            replays = self.codegen_defect_replays.get(name, 0)
            if replays:
                status = "blacklisted-replayed"
            elif fn is None:
                status = "uncompilable"
            else:
                status = "specialized"
            out.append({"function": name, "status": status,
                        "codegen_defect_replays": replays})
        return out

    def _compile_jit(self, name: str, bc: BytecodeFunction):
        function = self.module.functions[name]
        fn = None
        try:
            # Fault seam: an injected compile failure must degrade to the
            # VM tier exactly like a genuinely uncompilable function.
            faults.maybe_fire("jit.compile", name)
            fp = jit_fingerprint(function, self.profiling, self.vectorize)
            code = self.code_cache.get(fp)
            if code is None:
                source = _Specializer(function, bc, self,
                                      self.vectorize).generate()
                code = compile(source, f"<jit:{fp[:12]}>", "exec")
                self.code_cache.put(fp, source, code)
            ns = dict(_STATIC_NS)
            ns["ATYPES"] = [self.atypes_of(bc)[k]
                            for k in range(bc.n_allocas)]
            exec(code, ns)
            fn = ns["_jitfn"]
        except (_Unsupported, SyntaxError, faults.InjectedFault):
            fn = None   # permanently uncompilable: the VM runs it
        self._jit_fns[name] = fn
        return fn

    @staticmethod
    def atypes_of(bc: BytecodeFunction) -> dict[int, object]:
        return {inst[2]: inst[4] for inst in bc.code
                if inst[0] == OP_ALLOCA}
