"""Unit tests for the runtime substrate: memory model and interpreter."""

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.frontend import compile_c
from repro.ir import ArrayType, F64, I32, parse_module, ptr
from repro.passes import optimize
from repro.runtime import Buffer, Interpreter, Pointer
from repro.runtime.memory import dtype_of, scalar_count


class TestMemory:
    def test_buffer_for_type(self):
        buf = Buffer.for_type("g", ArrayType(4, ArrayType(8, F64)))
        assert buf.size == 32
        assert buf.data.dtype == np.float64

    def test_scalar_count(self):
        assert scalar_count(F64) == 1
        assert scalar_count(ArrayType(3, ArrayType(5, I32))) == 15

    def test_dtype_of(self):
        assert dtype_of(I32) == np.int32
        assert dtype_of(ArrayType(2, F64)) == np.float64
        assert dtype_of(ptr(F64)) == np.dtype(object)

    def test_pointer_arithmetic(self):
        buf = Buffer.from_numpy("a", np.arange(10.0))
        p = Pointer(buf, 2)
        assert p.load() == 2.0
        assert p.add(3).load() == 5.0
        p.add(1).store(99.0)
        assert buf.data[3] == 99.0

    def test_out_of_bounds(self):
        buf = Buffer.from_numpy("a", np.zeros(4))
        with pytest.raises(InterpreterError):
            Pointer(buf, 10).load()

    def test_view_slicing(self):
        buf = Buffer.from_numpy("a", np.arange(8.0))
        assert list(Pointer(buf, 2).view(3)) == [2.0, 3.0, 4.0]


def interp(src):
    m = compile_c(src)
    optimize(m)
    return m, Interpreter(m)


class TestInterpreter:
    def test_gep_nested_arrays(self):
        src = """
double g[3][4];
double f(int i, int j) {
  g[i][j] = 7.5;
  return g[i][j];
}
"""
        m, it = interp(src)
        assert it.call("f", [2, 3]) == 7.5
        assert it.globals["g"].data[2 * 4 + 3] == 7.5

    def test_phi_simultaneous_evaluation(self):
        # Swapping phis must read both old values (lost-copy test).
        text = """
define i32 @swap(i32 %n) {
entry:
  br label %loop
loop:
  %a = phi i32 [ 1, %entry ], [ %b, %loop ]
  %b = phi i32 [ 2, %entry ], [ %a, %loop ]
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, 1
  %c = icmp slt i32 %next, %n
  br i1 %c, label %loop, label %done
done:
  ret i32 %a
}
"""
        m = parse_module(text)
        it = Interpreter(m)
        assert it.call("swap", [3]) == 1  # a,b swap each iteration: 1,2,1
        it2 = Interpreter(m)
        assert it2.call("swap", [2]) == 2

    def test_division_by_zero_raises(self):
        m, it = interp("int f(int a) { return 10 / a; }")
        with pytest.raises(InterpreterError):
            it.call("f", [0])

    def test_float_division_by_zero_is_inf(self):
        m, it = interp("double f(double a) { return 1.0 / a; }")
        assert it.call("f", [0.0]) == float("inf")

    def test_recursion(self):
        m, it = interp("""
int fib(int n) {
  if (n < 2) return n;
  return fib(n-1) + fib(n-2);
}
""")
        assert it.call("fib", [10]) == 55

    def test_step_budget(self):
        m = compile_c("void f() { while (1) { } }")
        optimize(m)
        it = Interpreter(m, max_steps=1000)
        with pytest.raises(InterpreterError):
            it.call("f", [])

    def test_profile_counts(self):
        m, it = interp("""
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += i;
  return s;
}
""")
        it.call("f", [10])
        counts = it.profile.opcode_counts()
        assert counts["phi"] >= 20        # two phis, 10+ iterations
        assert counts["icmp"] >= 10
        assert it.profile.total_instructions() > 40

    def test_alloca_array_locals(self):
        m, it = interp("""
int f() {
  int a[8];
  for (int i = 0; i < 8; i++) a[i] = i * i;
  return a[5];
}
""")
        assert it.call("f", []) == 25

    def test_trunc_and_sext(self):
        m = parse_module("""
define i32 @f(i32 %x) {
entry:
  %t = trunc i32 %x to i8
  %s = sext i8 %t to i32
  ret i32 %s
}
""")
        it = Interpreter(m)
        assert it.call("f", [200]) == -56  # 200 mod 256 = -56 signed

    def test_bind_global(self):
        m, it = interp("""
double g[4];
double f() { return g[1] + g[2]; }
""")
        it.bind_global("g", np.array([1.0, 2.0, 3.0, 4.0]))
        assert it.call("f", []) == 5.0

    def test_deterministic_rand(self):
        m, it = interp("int f() { return rand() % 100; }")
        first = it.call("f", [])
        m2, it2 = interp("int f() { return rand() % 100; }")
        assert it2.call("f", []) == first


DO_WHILE = """
int hits[4];

int f(int n) {
  int i = 0;
  int s = 0;
  do {
    i = i + 1;
    if (i % 3 == 0) continue;
    hits[i % 4] = hits[i % 4] + 1;
    if (s > 20) break;
    s = s + i;
  } while (i < n);
  return s;
}
"""


class TestDoWhile:
    """``do { ... } while (c)`` runs its body before the first test,
    ``continue`` jumps to the test, not to the body, and ``break``
    leaves the loop: the same on every tier, optimised or not."""

    # n -> (f's value, hits afterwards)
    CASES = {
        0: (1, [0, 1, 0, 0]),      # the body runs once although 1 < 0 fails
        3: (3, [0, 1, 1, 0]),      # continue at i == 3 reaches the test
        5: (12, [1, 2, 1, 0]),
        100: (27, [2, 2, 2, 1]),   # break at i == 10 once s > 20
    }

    @staticmethod
    def run(engine, n):
        value = engine.call("f", [n])
        return value, engine.globals["hits"].data.tolist(), \
            engine.profile.block_counts, engine.steps

    @pytest.mark.parametrize("optimized", [False, True],
                             ids=["O0", "O1"])
    @pytest.mark.parametrize("n", sorted(CASES))
    def test_identical_across_tiers(self, optimized, n):
        from repro.runtime import JitVirtualMachine, VirtualMachine

        module = compile_c(DO_WHILE)
        if optimized:
            optimize(module)
        engines = (Interpreter(module), VirtualMachine(module),
                   JitVirtualMachine(module, jit_threshold=1))
        runs = [self.run(engine, n) for engine in engines]
        value, hits, _, _ = runs[0]
        assert (value, hits) == self.CASES[n]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert engines[2].jit_compiled() == ["f"]


class TestPointerParameters:
    """Unoptimised code keeps each parameter in a stack slot, so a
    pointer parameter lives in a ``ptr``-typed alloca: every tier runs
    it, with the same value, buffers, block profile and steps as the
    other tiers, optimised or not."""

    STORE_THROUGH = "int f(int n, int *a) { a[0] = n; return a[0] + a[1]; }"
    TWO_ARRAYS = """
double f(int n, double *x, double *y) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    y[i] = x[i] * 2.0;
    s = s + y[i];
  }
  return s;
}
"""
    # case -> (source, n, element type, arrays, f's value, arrays after)
    CASES = {
        "store-through": (STORE_THROUGH, 5, np.int32, [[0, 7]], 12,
                          [[5, 7]]),
        "two-arrays": (TWO_ARRAYS, 20, np.float64,
                       [list(range(20)), [0.0] * 20], 380.0,
                       [list(range(20)), [2.0 * i for i in range(20)]]),
    }

    @staticmethod
    def run(engine, n, arrays, dtype):
        buffers = [Buffer.from_numpy(f"a{i}", np.array(a, dtype=dtype))
                   for i, a in enumerate(arrays)]
        value = engine.call("f", [n] + [Pointer(b) for b in buffers])
        return value, [b.data.tolist() for b in buffers], \
            engine.profile.block_counts, engine.steps

    @pytest.mark.parametrize("optimized", [False, True],
                             ids=["O0", "O1"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical_across_tiers(self, optimized, case):
        from repro.runtime import JitVirtualMachine, VirtualMachine

        source, n, dtype, arrays, want_value, want_arrays = \
            self.CASES[case]
        module = compile_c(source)
        if optimized:
            optimize(module)
        engines = (Interpreter(module), VirtualMachine(module),
                   JitVirtualMachine(module, jit_threshold=1))
        runs = [self.run(engine, n, arrays, dtype) for engine in engines]
        value, after, _, _ = runs[0]
        assert (value, after) == (want_value, want_arrays)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert engines[2].jit_compiled() == ["f"]
