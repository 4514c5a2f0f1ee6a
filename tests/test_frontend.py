"""Tests for the mini-C frontend: lexing, parsing, code generation."""

import pytest

from repro.errors import LexError, ParseError, SemanticError
from repro.frontend import compile_c, parse_c, preprocess, tokenize
from repro.frontend.parser import MAX_EXPR_DEPTH, MAX_STMT_DEPTH
from repro.idioms import detect_idioms
from repro.ir import verify_module
from repro.passes import optimize
from repro.runtime import Interpreter


def run_c(source, fn, args, api=None):
    module = compile_c(source)
    optimize(module)
    return Interpreter(module).call(fn, args)


class TestLexer:
    def test_tokens(self):
        toks = tokenize("int x = 42 + 3.5f;")
        kinds = [t.kind for t in toks]
        assert kinds == ["keyword", "ident", "op", "int", "op", "float",
                         "op", "eof"]

    def test_comments_stripped(self):
        toks = tokenize("a /* b */ c // d\ne")
        assert [t.text for t in toks if t.kind != "eof"] == ["a", "c", "e"]

    def test_define_macro(self):
        assert "(32)" in preprocess("#define N 32\nint a[N];")

    def test_macro_in_macro(self):
        out = preprocess("#define A 4\n#define B A+1\nB")
        assert "4" in out

    def test_function_macro_rejected(self):
        with pytest.raises(LexError):
            preprocess("#define SQ(x) ((x)*(x))\n")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int $x;")


class TestParser:
    def test_function_parse(self):
        unit = parse_c("int f(int a, double *b) { return a; }")
        assert unit.functions[0].name == "f"
        assert len(unit.functions[0].params) == 2

    def test_precedence(self):
        # 2 + 3 * 4 must evaluate to 14.
        assert run_c("int f() { return 2 + 3 * 4; }", "f", []) == 14

    def test_unary_and_ternary(self):
        assert run_c("int f(int x) { return x > 0 ? -x : x; }", "f", [5]) == -5

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_c("int f() { return 1 }")

    def test_array_dims_constant_folded(self):
        unit = parse_c("double a[4*8];")
        assert unit.globals[0].ctype.dims == (32,)


def _nested_sum(depth: int) -> str:
    """``x+(x+(...(x)...))`` with ``depth`` parenthesised levels."""
    return "int f(int x) { return " + "x+(" * depth + "x" + \
        ")" * depth + "; }"


def _nested_blocks(depth: int) -> str:
    """``{{...{ x++; }...}}`` with ``depth`` nested blocks."""
    return "int f(int x) { " + "{" * depth + "x++;" + "}" * depth + \
        " return x; }"


def _chained_ifs(depth: int) -> str:
    """``if (x) if (x) ... x++;`` with ``depth`` nested ``if``s."""
    return "int f(int x) { " + "if (x) " * depth + "x++; return x; }"


#: Left-associative chains of 2,000 operands, no parentheses: deeper
#: than the interpreter stack if walked recursively, and no parser limit
#: applies. (source, value of ``f(1)``)
LONG_CHAINS = {
    "and": ("int f(int x) { return " + "&&".join(["x"] * 2000) + "; }", 1),
    "or": ("int f(int x) { return " + "||".join(["x"] * 2000) + "; }", 1),
    "sum": ("int f(int x) { return " + "+".join(["x"] * 2000) + "; }",
            2000),
    "comma": ("int f(int x) { return (" + ",".join(["x"] * 2000) + "); }",
              1),
    "comparison": ("int f(int x) { return " + "<".join(["x"] * 2000) +
                   "; }", 0),
    "conditional-arm": ("int f(int x) { return x ? " +
                        "+".join(["x"] * 2000) + " : x; }", 2000),
    "global-initializer": ("int g = " + "+".join(["1"] * 2000) +
                           "; int f(int x) { return g + x; }", 2001),
}


class TestNestingLimit:
    """Hostile nesting is a typed, located parse error, never a
    RecursionError from the interpreter stack."""

    def test_deep_parentheses(self):
        source = "int f(int x) { return " + "(" * 3000 + "x" + \
            ")" * 3000 + "; }"
        with pytest.raises(ParseError, match="nested deeper") as info:
            compile_c(source)
        assert info.value.location is not None

    def test_deep_right_nested_binaries(self):
        with pytest.raises(ParseError, match="nested deeper") as info:
            compile_c(_nested_sum(3000))
        assert info.value.location is not None

    def test_limit_is_exact_and_survives_the_pipeline(self):
        module = compile_c(_nested_sum(MAX_EXPR_DEPTH))
        optimize(module)
        assert detect_idioms(module).total() == 0
        with pytest.raises(ParseError):
            compile_c(_nested_sum(MAX_EXPR_DEPTH + 1))

    @pytest.mark.parametrize("nest", [_nested_blocks, _chained_ifs])
    def test_statement_depth_at_limit_survives_the_pipeline(self, nest):
        module = compile_c(nest(MAX_STMT_DEPTH))
        optimize(module)
        assert detect_idioms(module).total() == 0

    @pytest.mark.parametrize("nest", [_nested_blocks, _chained_ifs])
    @pytest.mark.parametrize("extra", [1, 1000])
    def test_statement_depth_over_limit_is_rejected(self, nest, extra):
        with pytest.raises(ParseError, match="statements nested deeper") \
                as info:
            compile_c(nest(MAX_STMT_DEPTH + extra))
        assert info.value.location is not None

    @pytest.mark.parametrize("shape", sorted(LONG_CHAINS))
    def test_long_left_associative_chain_survives_the_pipeline(self, shape):
        source, value = LONG_CHAINS[shape]
        module = compile_c(source)
        optimize(module)
        assert detect_idioms(module).total() == 0
        assert Interpreter(module).call("f", [1]) == value


class TestCodegenSemantics:
    def test_arith(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2; }"
        assert run_c(src, "f", [7, 3]) == 20

    def test_float_double(self):
        src = "double f(double x) { return x * 0.5 + 1.0; }"
        assert run_c(src, "f", [4.0]) == 3.0

    def test_loops_and_arrays(self):
        src = """
double sum(int n, double *a) {
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += a[i];
  return s;
}
"""
        import numpy as np
        from repro.runtime import Buffer, Pointer

        module = compile_c(src)
        optimize(module)
        interp = Interpreter(module)
        buf = Buffer.from_numpy("a", np.arange(10, dtype=np.float64))
        assert interp.call("sum", [10, Pointer(buf, 0)]) == 45.0

    def test_while_and_break(self):
        src = """
int f(int n) {
  int i = 0;
  while (1) {
    if (i >= n) break;
    i++;
  }
  return i;
}
"""
        assert run_c(src, "f", [7]) == 7

    def test_continue(self):
        src = """
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    if (i % 2 == 0) continue;
    s += i;
  }
  return s;
}
"""
        assert run_c(src, "f", [6]) == 9  # 1 + 3 + 5

    def test_short_circuit(self):
        src = """
int f(int a, int b) {
  if (a > 0 && b > 0) return 1;
  if (a > 0 || b > 0) return 2;
  return 3;
}
"""
        assert run_c(src, "f", [1, 1]) == 1
        assert run_c(src, "f", [1, -1]) == 2
        assert run_c(src, "f", [-1, -1]) == 3

    def test_nested_calls(self):
        src = """
int sq(int x) { return x * x; }
int f(int x) { return sq(x) + sq(x + 1); }
"""
        assert run_c(src, "f", [3]) == 25

    def test_global_2d_array(self):
        src = """
double m[4][4];
double f() {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      m[i][j] = (double)(i * 4 + j);
  return m[2][3];
}
"""
        assert run_c(src, "f", []) == 11.0

    def test_intrinsics(self):
        assert run_c("double f(double x) { return sqrt(x); }", "f",
                     [16.0]) == 4.0
        assert run_c("double f(double x) { return fabs(x); }", "f",
                     [-3.0]) == 3.0

    def test_int_division_truncates_toward_zero(self):
        assert run_c("int f(int a, int b) { return a / b; }", "f",
                     [-7, 2]) == -3
        assert run_c("int f(int a, int b) { return a % b; }", "f",
                     [-7, 2]) == -1

    def test_undeclared_variable(self):
        with pytest.raises(SemanticError):
            compile_c("int f() { return zoo; }")

    def test_undeclared_function(self):
        with pytest.raises(SemanticError):
            compile_c("int f() { return g(1); }")

    def test_verified_output(self):
        src = """
void saxpy(int n, double a, double *x, double *y) {
  for (int i = 0; i < n; i++)
    y[i] = a * x[i] + y[i];
}
"""
        module = compile_c(src)
        verify_module(module)
        optimize(module)
        verify_module(module)
