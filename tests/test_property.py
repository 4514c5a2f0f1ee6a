"""Property-based tests (hypothesis) on core invariants."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import DominatorTree
from repro.backends.sparse import csr_spmv, random_csr
from repro.frontend import compile_c
from repro.ir import ConstantInt, I32, parse_module, print_module, verify_module
from repro.passes import optimize
from repro.runtime import Interpreter
from kernel_oracle import evaluate, same_result
from repro.transform.kernels import (
    KBin,
    KCall,
    KCapture,
    KCast,
    KCmp,
    KConst,
    KParam,
    KSelect,
    compile_kernel,
)

# ---------------------------------------------------------------------------
# Expression compilation: compile random integer expressions to C, run both
# in Python and through the whole compiler+interpreter, compare.
# ---------------------------------------------------------------------------

_int_expr = st.recursive(
    st.one_of(
        st.integers(min_value=-50, max_value=50).map(lambda v: ("const", v)),
        st.sampled_from([("var", "a"), ("var", "b")]),
    ),
    lambda children: st.tuples(
        st.sampled_from(["+", "-", "*"]), children, children
    ).map(lambda t: ("bin", *t)),
    max_leaves=12,
)


def _to_c(node) -> str:
    kind = node[0]
    if kind == "const":
        return str(node[1])
    if kind == "var":
        return node[1]
    _, op, lhs, rhs = node
    return f"({_to_c(lhs)} {op} {_to_c(rhs)})"


def _to_py(node, env):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "var":
        return env[node[1]]
    _, op, lhs, rhs = node
    a, b = _to_py(lhs, env), _to_py(rhs, env)
    return {"+": a + b, "-": a - b, "*": a * b}[op]


@settings(max_examples=40, deadline=None)
@given(_int_expr, st.integers(-100, 100), st.integers(-100, 100))
def test_expression_compilation_matches_python(expr, a, b):
    expected = _to_py(expr, {"a": a, "b": b})
    if abs(expected) >= 2**31:
        return  # stays within i32 in this harness
    src = f"int f(int a, int b) {{ return {_to_c(expr)}; }}"
    module = compile_c(src)
    optimize(module)
    assert Interpreter(module).call("f", [a, b]) == expected


# ---------------------------------------------------------------------------
# IR printer/parser round trip over generated straight-line code.
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
                min_size=1, max_size=10),
       st.integers(-10, 10))
def test_ir_roundtrip(opcodes, seed):
    lines = ["define i32 @f(i32 %a, i32 %b) {", "entry:"]
    prev = "%a"
    for i, op in enumerate(opcodes):
        operand = "%b" if i % 2 == 0 else str(seed)
        lines.append(f"  %v{i} = {op} i32 {prev}, {operand}")
        prev = f"%v{i}"
    lines.append(f"  ret i32 {prev}")
    lines.append("}")
    text = "\n".join(lines)
    m1 = parse_module(text)
    verify_module(m1)
    printed = print_module(m1)
    m2 = parse_module(printed)
    verify_module(m2)
    assert print_module(m2) == printed


# ---------------------------------------------------------------------------
# Dominator tree vs naive reachability definition.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=14))
def test_dominators_match_naive(edges):
    """a dominates b iff removing a disconnects b from the entry."""
    n = 8
    succ = {i: sorted({d for s, d in edges if s == i and d != i})
            for i in range(n)}

    # Build an IR function with this block graph (entry = block 0).
    lines = ["define void @f(i1 %c) {"]
    for i in range(n):
        lines.append(f"b{i}:")
        targets = succ[i]
        if not targets:
            lines.append("  ret void")
        elif len(targets) == 1:
            lines.append(f"  br label %b{targets[0]}")
        else:
            lines.append(f"  br i1 %c, label %b{targets[0]}, "
                         f"label %b{targets[1]}")
    lines.append("}")
    f = parse_module("\n".join(lines)).get_function("f")
    tree = DominatorTree.block_level(f)
    blocks = {b.name: b for b in f.blocks}

    def reachable(avoid):
        seen = set()
        stack = [0]
        while stack:
            node = stack.pop()
            if node in seen or node == avoid:
                continue
            seen.add(node)
            stack.extend(t for t in succ[node][:2])
        return seen

    reach_all = reachable(avoid=None if False else -1)
    for b in range(n):
        if b not in reach_all:
            continue
        for a in range(n):
            if a not in reach_all:
                continue
            naive = a == b or (b not in reachable(avoid=a))
            fast = tree.dominates(blocks[f"b{a}"], blocks[f"b{b}"])
            assert fast == naive, (a, b)


# ---------------------------------------------------------------------------
# CSR SPMV against dense matvec.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 1000))
def test_csr_spmv_matches_dense(rows, nnz_per_row, seed):
    rp, ci, vals = random_csr(rows, rows, nnz_per_row, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-1, 1, rows)
    dense = np.zeros((rows, rows))
    for r in range(rows):
        for k in range(rp[r], rp[r + 1]):
            dense[r, ci[k]] += vals[k]
    np.testing.assert_allclose(
        csr_spmv(rp.astype(np.int64), ci, vals, x), dense @ x, atol=1e-10)


# ---------------------------------------------------------------------------
# Kernel expression evaluator: scalar vs vectorised agreement.
# ---------------------------------------------------------------------------

_kexpr = st.recursive(
    st.one_of(
        st.floats(-10, 10, allow_nan=False).map(KConst),
        st.sampled_from([KParam(0), KParam(1)]),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["fadd", "fsub", "fmul"]), children,
                  children).map(lambda t: KBin(*t)),
    ),
    max_leaves=10,
)


@settings(max_examples=40, deadline=None)
@given(_kexpr, st.lists(st.floats(-5, 5, allow_nan=False),
                        min_size=4, max_size=4))
def test_kernel_eval_scalar_matches_vector(expr, values):
    xs = np.array(values[:2])
    ys = np.array(values[2:])
    compiled = compile_kernel(expr)
    vector = np.broadcast_to(np.asarray(compiled([xs, ys], [])), (2,))
    for i in range(2):
        scalar = compiled([xs[i], ys[i]], [])
        assert math.isclose(float(vector[i]), float(scalar),
                            rel_tol=1e-12, abs_tol=1e-12)


# Every node kind, over values that include NaN, the infinities, -0.0 and
# out-of-domain arguments (sqrt and log of negatives, pow of a negative
# base), with float or integer streams.
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0]
_any_kexpr = st.recursive(
    st.one_of(
        st.floats(-4, 4, allow_nan=False).map(KConst),
        st.integers(-3, 3).map(KConst),
        st.sampled_from([KParam(0), KParam(1), KCapture(0)]),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["fadd", "fsub", "fmul", "fdiv", "sdiv",
                                   "srem", "add", "mul"]),
                  children, children).map(lambda t: KBin(*t)),
        st.tuples(st.sampled_from(["olt", "oge", "eq", "une"]),
                  children, children).map(lambda t: KCmp(*t)),
        st.tuples(children, children, children).map(lambda t: KSelect(*t)),
        st.tuples(st.sampled_from(["fptosi", "sitofp", "sext"]),
                  children).map(lambda t: KCast(*t)),
        st.tuples(st.sampled_from(["sqrt", "log", "fabs", "floor"]),
                  children).map(lambda t: KCall(t[0], (t[1],))),
        st.tuples(st.sampled_from(["pow", "fmax", "fmin"]),
                  children, children).map(lambda t: KCall(t[0], t[1:])),
    ),
    max_leaves=8,
)
_lane = st.one_of(st.floats(-5, 5), st.sampled_from(_SPECIAL))


def _outcome(fn, *args):
    """(result, None) or (None, exception type): both evaluators must
    raise alike, e.g. ``int()`` of a NaN lane evaluated as a scalar."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not swallowed
        return None, type(exc)


def assert_same_as_oracle(expr, params, captures):
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, got_exc = _outcome(compile_kernel(expr), params, captures)
        want, want_exc = _outcome(evaluate, expr, params, captures)
    assert got_exc is want_exc
    assert same_result(got, want), (got, want)


@settings(max_examples=200, deadline=None)
@given(_any_kexpr, st.lists(_lane, min_size=7, max_size=7), st.booleans())
def test_compiled_kernel_matches_oracle(expr, values, integer_streams):
    xs, ys = np.array(values[:3]), np.array(values[3:6])
    if integer_streams:
        xs = np.nan_to_num(xs, posinf=7, neginf=-7).astype(np.int64)
        ys = np.nan_to_num(ys, posinf=7, neginf=-7).astype(np.int64)
    captures = [values[6]]
    assert_same_as_oracle(expr, [xs, ys], captures)
    for i in range(3):
        assert_same_as_oracle(expr, [xs[i], ys[i]], captures)


class TestCompiledKernelEdges:
    """The cases the property might miss, pinned."""

    LANES = np.array([math.nan, math.inf, -math.inf, -0.0, 2.7, -2.7])

    def test_fptosi_of_non_finite_and_negative_zero(self):
        expr = KCast("fptosi", KParam(0))
        assert_same_as_oracle(expr, [self.LANES], [])
        assert compile_kernel(expr)([self.LANES], []).tolist() == \
            [0, 0, 0, 0, 2, -2]
        for lane in (-0.0, 2.7):
            assert_same_as_oracle(expr, [np.float64(lane)], [])

    def test_integer_and_float_sdiv(self):
        expr = KBin("sdiv", KParam(0), KParam(1))
        ints = [np.array([7, -7, 7, 0]), np.array([2, 2, 0, 3])]
        floats = [np.array([7.0, -7.0, 1.0, -0.0]),
                  np.array([2.0, 2.0, 0.0, 3.0])]
        for params in (ints, floats, [7, 2], [np.int32(-7), 2],
                       [7.0, 2], [ints[0], 2.0]):
            assert_same_as_oracle(expr, params, [])

    def test_calls_outside_the_domain(self):
        lanes = np.array([-1.0, 0.0, -0.0, math.nan, -math.inf, 4.0])
        for name in ("sqrt", "log"):
            assert_same_as_oracle(KCall(name, (KParam(0),)), [lanes], [])
        assert_same_as_oracle(KCall("pow", (KParam(0), KConst(0.5))),
                              [lanes], [])
        assert_same_as_oracle(KCall("log", (KCapture(0),)), [lanes], [-1.0])


# ---------------------------------------------------------------------------
# Reduction detection is stable across loop bounds and array contents.
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4))
def test_reduction_detection_parametric(width):
    from repro.idioms import detect_idioms

    terms = " + ".join(f"x[i] * {k}.0" for k in range(1, width + 1))
    src = f"""
double f(int n, double *x) {{
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += {terms};
  return s;
}}
"""
    m = compile_c(src)
    optimize(m)
    assert detect_idioms(m).by_idiom() == {"Reduction": 1}
