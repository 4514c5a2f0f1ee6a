"""A miniature Halide: pure functional image pipelines with schedules.

Models the slice of Halide the paper targets (§5.2): a ``Func`` maps
integer variables to an expression over (possibly shifted) reads of input
buffers; a ``Schedule`` carries the optimisation directives whose effect
in this reproduction is a cost-model factor (vectorised CPU code is why
"Halide achieves good performance ... due to its more advanced
vectorization capabilities"). ``realize`` evaluates the pipeline exactly,
with numpy array semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BackendError


class HExpr:
    """Base class of Halide expressions."""

    def __add__(self, other):
        return HBin("+", self, wrap(other))

    def __radd__(self, other):
        return HBin("+", wrap(other), self)

    def __sub__(self, other):
        return HBin("-", self, wrap(other))

    def __rsub__(self, other):
        return HBin("-", wrap(other), self)

    def __mul__(self, other):
        return HBin("*", self, wrap(other))

    def __rmul__(self, other):
        return HBin("*", wrap(other), self)

    def __truediv__(self, other):
        return HBin("/", self, wrap(other))


@dataclass(frozen=True)
class HConst(HExpr):
    value: float


@dataclass(frozen=True)
class Var(HExpr):
    name: str


@dataclass(frozen=True)
class HBin(HExpr):
    op: str
    lhs: HExpr
    rhs: HExpr


@dataclass(frozen=True)
class HCall(HExpr):
    name: str
    args: tuple


@dataclass(frozen=True)
class BufferRef(HExpr):
    """``input[x + dx, y + dy, ...]`` — a shifted read of a named buffer."""

    buffer: str
    shifts: tuple  # per-dimension integer offsets


def wrap(value) -> HExpr:
    if isinstance(value, HExpr):
        return value
    return HConst(float(value))


def sqrt(expr) -> HExpr:
    return HCall("sqrt", (wrap(expr),))


@dataclass
class Schedule:
    """Scheduling directives (affect the cost model, not semantics)."""

    parallel: list[str] = field(default_factory=list)
    vectorize: tuple[str, int] | None = None
    tile: tuple | None = None


class Func:
    """A Halide stage: ``f[x, y] = expr``."""

    def __init__(self, name: str, variables: list[Var], expr: HExpr):
        self.name = name
        self.variables = variables
        self.expr = expr
        self.schedule = Schedule()

    # -- scheduling API (chainable, Halide style) ------------------------------
    def parallel(self, var: Var) -> "Func":
        self.schedule.parallel.append(var.name)
        return self

    def vectorize(self, var: Var, width: int) -> "Func":
        self.schedule.vectorize = (var.name, width)
        return self

    # -- compilation -------------------------------------------------------------
    def realize(self, extents: list[tuple[int, int]],
                inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Evaluate over the half-open index box ``extents`` per variable."""
        if len(extents) != len(self.variables):
            raise BackendError("extent/variable arity mismatch")
        sizes = [hi - lo for lo, hi in extents]
        result = _evaluate(self.expr, extents, inputs)
        return np.broadcast_to(result, tuple(sizes)).copy()

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"<halide.Func {self.name}[{names}]>"


def _evaluate(expr: HExpr, extents, inputs):
    if isinstance(expr, HConst):
        return expr.value
    if isinstance(expr, HBin):
        lhs = _evaluate(expr.lhs, extents, inputs)
        rhs = _evaluate(expr.rhs, extents, inputs)
        return {"+": np.add, "-": np.subtract, "*": np.multiply,
                "/": np.divide}[expr.op](lhs, rhs)
    if isinstance(expr, HCall):
        args = [_evaluate(a, extents, inputs) for a in expr.args]
        return {"sqrt": np.sqrt, "exp": np.exp, "log": np.log,
                "fabs": np.abs, "pow": np.power,
                "fmax": np.maximum, "fmin": np.minimum}[expr.name](*args)
    if isinstance(expr, BufferRef):
        array = inputs.get(expr.buffer)
        if array is None:
            raise BackendError(f"unbound input buffer {expr.buffer!r}")
        slices = tuple(slice(lo + s, hi + s)
                       for (lo, hi), s in zip(extents, expr.shifts))
        return array[slices]
    if isinstance(expr, Var):
        raise BackendError(
            "free index variables outside BufferRef are not supported")
    raise BackendError(f"cannot evaluate Halide node {expr!r}")


# ---------------------------------------------------------------------------
# Translation from detected stencils (paper §6.2)
# ---------------------------------------------------------------------------

def stencil_to_halide(kernel_expr, read_offsets: list[tuple],
                      captures: list[float], name: str = "stencil") -> Func:
    """Build a Halide Func from an extracted stencil kernel.

    ``kernel_expr`` is a :mod:`repro.transform.kernels` tree whose params
    refer to reads with the given per-dimension offsets.
    """
    from ..transform.kernels import KBin, KCall, KCapture, KCast, KCmp, \
        KConst, KParam, KSelect

    dims = len(read_offsets[0]) if read_offsets else 1
    variables = [Var(n) for n in ("x", "y", "z")[:dims]]

    def convert(expr) -> HExpr:
        if isinstance(expr, KConst):
            return HConst(float(expr.value))
        if isinstance(expr, KParam):
            return BufferRef("input", tuple(read_offsets[expr.index]))
        if isinstance(expr, KCapture):
            return HConst(float(captures[expr.index]))
        if isinstance(expr, KBin):
            op = {"fadd": "+", "add": "+", "fsub": "-", "sub": "-",
                  "fmul": "*", "mul": "*", "fdiv": "/"}.get(expr.op)
            if op is None:
                raise BackendError(
                    f"stencil kernel op {expr.op} not expressible in Halide")
            return HBin(op, convert(expr.lhs), convert(expr.rhs))
        if isinstance(expr, KCall):
            return HCall(expr.name, tuple(convert(a) for a in expr.args))
        if isinstance(expr, KCast):
            return convert(expr.operand)
        if isinstance(expr, (KSelect, KCmp)):
            raise BackendError(
                "stencils with control flow are not expressible in Halide")
        raise BackendError(f"cannot translate kernel node {expr!r}")

    func = Func(name, variables, convert(kernel_expr))
    # Default schedule, as generated by the paper's translator: parallel
    # outermost, vectorised innermost.
    func.parallel(variables[0])
    func.vectorize(variables[-1], 8)
    return func


def register_backend(registry) -> None:
    """Register the Halide backend: a stencil lowering contract whose
    handler evaluates the shared kernel expression (bit-identical to the
    sequential loop), with the pipeline translator exposed for the DSL
    code path (``stencil_to_dsl`` example, C backend)."""
    from ..transform.kernels import compile_kernel
    from .api import HALIDE
    from .registry import BackendEntry, LoweringContract

    contract = LoweringContract(
        backend="halide", category="stencil",
        requires=("kernel.output",),
        kernels={"compile": compile_kernel, "pipeline": stencil_to_halide},
        emits="shifted-slice kernel evaluation over the index box")
    registry.register(BackendEntry(
        name="halide", title="Halide image-pipeline DSL",
        descriptors=(HALIDE,),
        contracts={"stencil": contract}))
