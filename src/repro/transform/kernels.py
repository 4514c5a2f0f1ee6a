"""Kernel extraction: data-flow slices → portable kernel expressions.

The paper cuts the loop body's kernel function out of the IR and hands it
to the DSL backends (§6.2). Here the extracted kernel is an expression
tree (:class:`KExpr`) over the declared inputs plus captured loop-invariant
values. :func:`compile_kernel` turns a tree into a closure that evaluates
it over numpy arrays (vectorised, as the simulated Halide/Lift compilers
run it) or over one element's scalars. Shape recognisers spot
``acc + f(reads)`` / min / max reductions and ``old + delta`` histogram
updates so the runtime can use closed-form numpy implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis.info import FunctionAnalyses
from ..errors import TransformError
from ..ir.instructions import (
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    ICmpInst,
    Instruction,
    PhiInst,
    SelectInst,
)
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    UndefValue,
    Value,
)


# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KConst:
    value: float | int


@dataclass(frozen=True)
class KParam:
    """Reference to kernel input ``index`` (a per-element stream)."""

    index: int


@dataclass(frozen=True)
class KCapture:
    """Reference to a captured loop-invariant scalar."""

    index: int


@dataclass(frozen=True)
class KBin:
    op: str
    lhs: "KExpr"
    rhs: "KExpr"


@dataclass(frozen=True)
class KCmp:
    pred: str
    lhs: "KExpr"
    rhs: "KExpr"


@dataclass(frozen=True)
class KSelect:
    cond: "KExpr"
    on_true: "KExpr"
    on_false: "KExpr"


@dataclass(frozen=True)
class KCast:
    kind: str
    operand: "KExpr"


@dataclass(frozen=True)
class KCall:
    name: str
    args: tuple


KExpr = object  # union of the above


_BIN_NUMPY = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "fadd": np.add, "fsub": np.subtract, "fmul": np.multiply,
    "fdiv": np.divide, "and": np.bitwise_and, "or": np.bitwise_or,
    "xor": np.bitwise_xor, "shl": np.left_shift, "ashr": np.right_shift,
    "srem": np.remainder, "urem": np.remainder,
}

_CMP_NUMPY = {
    "eq": np.equal, "ne": np.not_equal,
    "slt": np.less, "sle": np.less_equal,
    "sgt": np.greater, "sge": np.greater_equal,
    "oeq": np.equal, "one": np.not_equal,
    "olt": np.less, "ole": np.less_equal,
    "ogt": np.greater, "oge": np.greater_equal,
    "ult": np.less, "ule": np.less_equal,
    "ugt": np.greater, "uge": np.greater_equal,
    "une": np.not_equal, "ueq": np.equal,
}

_CALL_NUMPY = {
    "sqrt": np.sqrt, "fabs": np.abs, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "floor": np.floor,
    "ceil": np.ceil, "pow": np.power, "fmax": np.maximum,
    "fmin": np.minimum, "abs": np.abs, "max": np.maximum,
    "min": np.minimum,
}


def compile_kernel(expr: KExpr) -> Callable:
    """Compile ``expr`` once into ``fn(params, captures)``.

    ``params`` holds the per-element streams (numpy arrays, or one
    element's scalars) and ``captures`` the loop-invariant scalars. The
    closure tree makes one numpy call per node, children left to right,
    so a handler pays for the tree walk once per site rather than once
    per dispatch. Nodes or operations with no numpy counterpart raise
    :class:`TransformError` here, before any function is rewritten.
    """
    if isinstance(expr, KConst):
        value = expr.value
        return lambda params, captures: value
    if isinstance(expr, KParam):
        index = expr.index
        return lambda params, captures: params[index]
    if isinstance(expr, KCapture):
        index = expr.index
        return lambda params, captures: captures[index]
    if isinstance(expr, KBin):
        return _compile_bin(expr.op, compile_kernel(expr.lhs),
                            compile_kernel(expr.rhs))
    if isinstance(expr, KCmp) and expr.pred in _CMP_NUMPY:
        cmp = _CMP_NUMPY[expr.pred]
        lhs, rhs = compile_kernel(expr.lhs), compile_kernel(expr.rhs)
        return lambda params, captures: cmp(lhs(params, captures),
                                            rhs(params, captures))
    if isinstance(expr, KSelect):
        cond, on_true, on_false = (compile_kernel(expr.cond),
                                   compile_kernel(expr.on_true),
                                   compile_kernel(expr.on_false))
        return lambda params, captures: np.where(
            cond(params, captures), on_true(params, captures),
            on_false(params, captures))
    if isinstance(expr, KCast):
        return _compile_cast(expr.kind, compile_kernel(expr.operand))
    if isinstance(expr, KCall) and expr.name in _CALL_NUMPY:
        fn = _CALL_NUMPY[expr.name]
        args = [compile_kernel(a) for a in expr.args]

        def call(params, captures):
            values = [arg(params, captures) for arg in args]
            # Lanes excluded by the guard may hold out-of-domain values
            # (e.g. sqrt of a negative); they are masked out downstream.
            with np.errstate(invalid="ignore", divide="ignore"):
                return fn(*values)
        return call
    raise TransformError(f"cannot compile kernel node {expr!r}")


def _compile_bin(op: str, lhs: Callable, rhs: Callable) -> Callable:
    if op in ("sdiv", "udiv"):
        def divide(params, captures):
            a, b = lhs(params, captures), rhs(params, captures)
            return np.floor_divide(a, b) if _all_int(a, b) else \
                np.divide(a, b)
        return divide
    fn = _BIN_NUMPY.get(op)
    if fn is None:
        raise TransformError(f"cannot compile kernel operation {op!r}")
    return lambda params, captures: fn(lhs(params, captures),
                                       rhs(params, captures))


def _compile_cast(kind: str, operand: Callable) -> Callable:
    if kind == "fptosi":
        def fptosi(params, captures):
            value = operand(params, captures)
            if isinstance(value, np.ndarray):
                # Lanes holding non-finite values are guarded out later;
                # cast them to 0 to keep the vectorised evaluation silent.
                lanes = np.where(np.isfinite(value), value, 0.0)
                # A 0-d result becomes a numpy scalar; lanes stay an array.
                return lanes.astype(np.int64)[()]
            return int(value)
        return fptosi
    if kind in ("sitofp", "fpext", "fptrunc"):
        def to_float(params, captures):
            value = operand(params, captures)
            return value.astype(np.float64) \
                if isinstance(value, np.ndarray) else float(value)
        return to_float
    return operand


def _all_int(*values) -> bool:
    for v in values:
        if isinstance(v, np.ndarray):
            if not np.issubdtype(v.dtype, np.integer):
                return False
        elif not isinstance(v, (int, np.integer)):
            return False
    return True


# ---------------------------------------------------------------------------
# Extraction from IR
# ---------------------------------------------------------------------------

@dataclass
class ExtractedKernel:
    """A kernel expression plus its environment requirements."""

    expr: KExpr
    #: IR values captured as loop-invariant scalars, in KCapture order.
    captures: list[Value] = field(default_factory=list)
    #: Optional guard predicate (None = unconditional).
    guard: KExpr | None = None


class KernelExtractor:
    """Builds :class:`ExtractedKernel` objects from a matched region."""

    def __init__(self, analyses: FunctionAnalyses, outer: Instruction,
                 inner: Instruction, inputs: list[Value]):
        self.analyses = analyses
        self.outer = outer
        self.inner = inner
        self.inputs = inputs
        self.captures: list[Value] = []
        self._capture_ids: dict[int, int] = {}
        self._cache: dict[int, KExpr] = {}

    # -- public -----------------------------------------------------------------
    def extract(self, output: Value) -> ExtractedKernel:
        expr = self._build(output)
        return ExtractedKernel(expr, list(self.captures))

    def extract_guard(self, anchor: Instruction) -> KExpr | None:
        """Conjunction of in-body branch conditions controlling ``anchor``."""
        dom = self.analyses.dom
        conditions: list[KExpr] = []
        for branch in self.analyses.cfg.nodes:
            if not isinstance(branch, BranchInst) or \
                    not branch.is_conditional():
                continue
            if not dom.dominates(self.inner, branch):
                continue
            if not self.analyses.control_dep.depends_on(anchor, branch):
                continue
            then_first = branch.targets()[0].instructions[0]
            cond = self._build(branch.condition)
            # Anchor on the true side keeps the condition; otherwise negate.
            if dom.dominates(then_first, anchor):
                conditions.append(cond)
            else:
                conditions.append(KCmp("eq", cond, KConst(0)))
        if not conditions:
            return None
        guard = conditions[0]
        for extra in conditions[1:]:
            guard = KBin("and", _as_int(guard), _as_int(extra))
        return guard

    # -- recursion -------------------------------------------------------------
    def _build(self, value: Value) -> KExpr:
        key = id(value)
        if key in self._cache:
            return self._cache[key]
        expr = self._build_uncached(value)
        self._cache[key] = expr
        return expr

    def _build_uncached(self, value: Value) -> KExpr:
        for index, input_value in enumerate(self.inputs):
            if value is input_value:
                return KParam(index)
        if isinstance(value, ConstantInt):
            return KConst(value.value)
        if isinstance(value, ConstantFloat):
            return KConst(value.value)
        if isinstance(value, UndefValue):
            return KConst(0)
        if not isinstance(value, Instruction) or \
                not self.analyses.dom.dominates(self.outer, value):
            # Loop invariant (argument, global address, pre-loop value).
            return self._capture(value)
        if isinstance(value, BinaryOperator):
            return KBin(value.opcode, self._build(value.lhs),
                        self._build(value.rhs))
        if isinstance(value, (ICmpInst, FCmpInst)):
            return KCmp(value.predicate, self._build(value.lhs),
                        self._build(value.rhs))
        if isinstance(value, SelectInst):
            return KSelect(self._build(value.condition),
                           self._build(value.true_value),
                           self._build(value.false_value))
        if isinstance(value, CastInst):
            return KCast(value.opcode, self._build(value.value))
        if isinstance(value, CallInst) and value.is_pure():
            return KCall(value.callee,
                         tuple(self._build(a) for a in value.operands))
        if isinstance(value, PhiInst):
            return self._build_phi(value)
        raise TransformError(
            f"kernel extraction hit unsupported value {value!r}")

    def _capture(self, value: Value) -> KCapture:
        key = id(value)
        if key not in self._capture_ids:
            self._capture_ids[key] = len(self.captures)
            self.captures.append(value)
        return KCapture(self._capture_ids[key])

    def _build_phi(self, phi: PhiInst) -> KExpr:
        """Convert a diamond/triangle merge phi to a select expression."""
        if len(phi.incoming) != 2:
            raise TransformError("kernel phi with more than two arms")
        (v1, b1), (v2, b2) = phi.incoming
        dom = self.analyses.dom
        # The controlling branch is the terminator of the immediate
        # dominator of the phi's block (classic if-conversion).
        idom_block = None
        header_first = phi.parent.instructions[0]
        idom_inst = self.analyses.dom.idom(header_first)
        while idom_inst is not None and not (
                isinstance(idom_inst, BranchInst) and
                idom_inst.is_conditional()):
            idom_inst = self.analyses.dom.idom(idom_inst)
        branch = idom_inst
        if branch is None:
            raise TransformError("cannot if-convert kernel phi")
        cond = self._build(branch.condition)
        then_block, else_block = branch.targets()
        then_first = then_block.instructions[0]

        def arm_reached_via(block) -> bool:
            term = block.terminator
            return term is not None and dom.dominates(then_first, term)

        if arm_reached_via(b1):
            return KSelect(cond, self._build(v1), self._build(v2))
        if arm_reached_via(b2):
            return KSelect(cond, self._build(v2), self._build(v1))
        # Triangle: one edge comes straight from the branch block.
        if b1.terminator is branch:
            return KSelect(cond, self._build(v2), self._build(v1))
        if b2.terminator is branch:
            return KSelect(cond, self._build(v1), self._build(v2))
        raise TransformError("cannot orient kernel phi arms")


def _as_int(expr: KExpr) -> KExpr:
    return expr


# ---------------------------------------------------------------------------
# Shape recognisers (fast paths for the API runtime)
# ---------------------------------------------------------------------------

def match_accumulator_form(expr: KExpr, acc_param: int):
    """Recognise ``acc ⊕ delta`` / ``min/max(acc, x)`` / conditional forms.

    Returns (kind, delta_expr) where kind ∈ {'sum', 'max', 'min'} and
    ``delta_expr`` references only non-accumulator params, or None.
    Conditional sums ``cond ? acc + d : acc`` normalise to
    ``acc + (cond ? d : 0)``.
    """
    def references_acc(e: KExpr) -> bool:
        if isinstance(e, KParam):
            return e.index == acc_param
        for child in _children(e):
            if references_acc(child):
                return True
        return False

    if isinstance(expr, KBin) and expr.op in ("fadd", "add"):
        lhs_acc = isinstance(expr.lhs, KParam) and \
            expr.lhs.index == acc_param
        rhs_acc = isinstance(expr.rhs, KParam) and \
            expr.rhs.index == acc_param
        if lhs_acc and not references_acc(expr.rhs):
            return ("sum", expr.rhs)
        if rhs_acc and not references_acc(expr.lhs):
            return ("sum", expr.lhs)
    if isinstance(expr, KSelect):
        # max: select(x > acc, x, acc)  /  select(acc < x, x, acc) ...
        cond, t, f = expr.cond, expr.on_true, expr.on_false
        t_acc = isinstance(t, KParam) and t.index == acc_param
        f_acc = isinstance(f, KParam) and f.index == acc_param
        if isinstance(cond, KCmp) and (t_acc != f_acc):
            other = f if t_acc else t
            if not references_acc(other):
                kind = _minmax_kind(cond, acc_param, other, taken_is_other=f_acc)
                if kind is not None:
                    return (kind, other)
        # conditional sum: select(c, acc + d, acc)
        if f_acc and isinstance(t, KBin) and t.op in ("fadd", "add"):
            inner = match_accumulator_form(t, acc_param)
            if inner is not None and inner[0] == "sum" and \
                    not references_acc(cond):
                return ("sum", KSelect(cond, inner[1], KConst(0)))
        if t_acc and isinstance(f, KBin) and f.op in ("fadd", "add"):
            inner = match_accumulator_form(f, acc_param)
            if inner is not None and inner[0] == "sum" and \
                    not references_acc(cond):
                return ("sum", KSelect(cond, KConst(0), inner[1]))
    return None


def _minmax_kind(cond: KCmp, acc_param: int, other: KExpr,
                 taken_is_other: bool):
    """Classify select(cmp, ...) accumulator updates as min or max.

    ``taken_is_other`` is True when the *false* arm is the accumulator,
    i.e. the true branch of the comparison picks ``other``.
    """
    def is_acc(e):
        return isinstance(e, KParam) and e.index == acc_param

    greater = cond.pred in ("sgt", "sge", "ogt", "oge", "ugt", "uge")
    less = cond.pred in ("slt", "sle", "olt", "ole", "ult", "ule")
    if not greater and not less:
        return None
    if is_acc(cond.rhs) and cond.lhs == other:
        other_gt_acc = greater  # condition reads: other PRED acc
    elif is_acc(cond.lhs) and cond.rhs == other:
        other_gt_acc = less     # condition reads: acc PRED other
    else:
        return None
    # Picking `other` when other > acc is a max; when other < acc, a min.
    if taken_is_other:
        return "max" if other_gt_acc else "min"
    return "min" if other_gt_acc else "max"


def _children(expr: KExpr) -> list:
    if isinstance(expr, KBin):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, KCmp):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, KSelect):
        return [expr.cond, expr.on_true, expr.on_false]
    if isinstance(expr, KCast):
        return [expr.operand]
    if isinstance(expr, KCall):
        return list(expr.args)
    return []
