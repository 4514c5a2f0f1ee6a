"""Engine equivalence: the register VM vs the reference tree-walker.

The VM must be observationally identical to the reference interpreter:
same return values, same memory contents, and **count-identical** per-block
profiles (the source of Figure 17/18 and Table 3), on every suite workload
and on targeted unit programs exercising phi-edge moves, GEP/pointer
arithmetic and native call dispatch in the bytecode compiler.
"""

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.frontend import compile_c
from repro.ir import parse_module
from repro.passes import optimize
from repro.runtime import (
    Interpreter,
    JitVirtualMachine,
    VirtualMachine,
    compile_workload,
    outputs_match,
    run_accelerated,
    run_original,
)
from repro.runtime import runner
from repro.runtime.bytecode import OP_CALL_API, sequence_moves
from repro.runtime.runner import _bind_arguments, new_engine
from repro.workloads import all_workloads, dominant_workloads, get_workload

WORKLOADS = [w.name for w in all_workloads()]
DOMINANT = [w.name for w in dominant_workloads()]

ENGINE_CLASSES = {"reference": Interpreter, "vm": VirtualMachine}


@pytest.fixture(scope="module")
def compiled_suite():
    """One compile+detect pass per workload, shared across tests."""
    cache = {}

    def get(name):
        if name not in cache:
            w = get_workload(name)
            cache[name] = (w, compile_workload(name, w.source))
        return cache[name]
    return get


def _execute(engine_cls, compiled, workload):
    engine = engine_cls(compiled.module)
    args, buffers = _bind_arguments(engine, compiled.module, workload.entry,
                                    workload.make_inputs(1))
    value = engine.call(workload.entry, args)
    for name, buffer in engine.globals.items():
        buffers.setdefault(name, buffer)
    return value, buffers, engine.profile


@pytest.mark.parametrize("name", WORKLOADS)
def test_vm_equivalent_on_suite(name, compiled_suite):
    """Outputs equal AND per-block dynamic counts identical, per workload."""
    workload, compiled = compiled_suite(name)
    ref_value, ref_bufs, ref_prof = _execute(Interpreter, compiled, workload)
    vm_value, vm_bufs, vm_prof = _execute(VirtualMachine, compiled, workload)
    if ref_value is None:
        assert vm_value is None
    else:
        assert np.allclose(ref_value, vm_value, equal_nan=True), name
    assert set(ref_bufs) == set(vm_bufs)
    for bname, buffer in ref_bufs.items():
        np.testing.assert_allclose(
            buffer.data, vm_bufs[bname].data, rtol=1e-12, atol=0,
            err_msg=f"{name}:{bname}")
    # Count identity, block by block (same module → same block ids).
    assert vm_prof.block_counts == ref_prof.block_counts, name
    assert vm_prof.block_sizes == ref_prof.block_sizes, name
    assert vm_prof.opcode_counts() == ref_prof.opcode_counts(), name


def test_cost_model_inputs_engine_independent(compiled_suite):
    """Simulated sequential time must not depend on profile dict order."""
    workload, compiled = compiled_suite("CG")
    ref = run_original(compiled, workload.entry, workload.make_inputs(1),
                       engine="reference")
    vm = run_original(compiled, workload.entry, workload.make_inputs(1),
                      engine="vm")
    assert ref.coverage == vm.coverage
    assert ref.sequential_seconds == vm.sequential_seconds


@pytest.fixture(scope="module")
def accelerated_reference():
    """One reference-interpreter accelerated run per workload (the oracle)."""
    cache = {}

    def get(name):
        if name not in cache:
            w = get_workload(name)
            cache[name] = run_accelerated(
                compile_workload(name, w.source), w.entry, w.make_inputs(1),
                engine="reference")
        return cache[name]
    return get


@pytest.mark.parametrize("engine", ["reference", "vm", "jit"])
@pytest.mark.parametrize("name", DOMINANT)
def test_accelerated_run_identical_across_engines(name, engine,
                                                  accelerated_reference,
                                                  monkeypatch):
    """API call-outs (OP_CALL_API) produce identical results and stats,
    whether the bytecode VM or JIT-generated code makes them (the jit
    tier compiles on first call here, so generated code makes them)."""
    made = []
    real_new_engine = runner.new_engine

    def recording_new_engine(*args, **kwargs):
        made.append(real_new_engine(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(runner, "new_engine", recording_new_engine)
    w = get_workload(name)
    ref = accelerated_reference(name)
    run = run_accelerated(compile_workload(name, w.source), w.entry,
                          w.make_inputs(1), engine=engine, jit_threshold=1)
    assert type(made[0]) is runner.ENGINES[engine]
    assert outputs_match(ref, run)
    assert ref.total_instructions == run.total_instructions
    assert ([s.stats for s in ref.api_runtime.all_sites()]
            == [s.stats for s in run.api_runtime.all_sites()])
    if engine == "jit":
        # The call-outs really ran from generated code, not the VM.
        assert any(inst[0] == OP_CALL_API
                   for fn in made[0].jit_compiled()
                   for inst in made[0]._bc[fn].code)


def test_unknown_engine_rejected():
    w = get_workload("spmv")
    compiled = compile_workload("spmv", w.source)
    with pytest.raises(ValueError):
        run_original(compiled, w.entry, w.make_inputs(1), engine="bogus")
    assert isinstance(new_engine(compiled.module, None), JitVirtualMachine)


# ---------------------------------------------------------------------------
# Bytecode compiler units
# ---------------------------------------------------------------------------

def vm_for(src):
    m = compile_c(src)
    optimize(m)
    return m, VirtualMachine(m)


class TestPhiEdgeMoves:
    def test_swap_cycle_is_lost_copy_safe(self):
        # Two phis swapping each iteration form a move cycle on the back
        # edge; sequencing must go through a scratch slot.
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
        assert VirtualMachine(m).call("swap", [3]) == 1
        assert VirtualMachine(m).call("swap", [2]) == 2
        assert VirtualMachine(m).call("swap", [3]) == \
            Interpreter(m).call("swap", [3])

    def test_sequence_moves_breaks_cycles(self):
        temp = [99]
        moves = sequence_moves([(0, 1), (1, 0)], lambda: temp[0])
        # Simulate: regs 0,1 = 'a','b'; swap must yield 'b','a'.
        regs = {0: "a", 1: "b", 99: None}
        for d, s in moves:
            regs[d] = regs[s]
        assert (regs[0], regs[1]) == ("b", "a")

    def test_sequence_moves_orders_chains(self):
        # 0<-1, 1<-2 must read 1 before overwriting it.
        moves = sequence_moves([(1, 2), (0, 1)],
                               lambda: pytest.fail("no temp needed"))
        regs = {0: "x", 1: "y", 2: "z"}
        for d, s in moves:
            regs[d] = regs[s]
        assert (regs[0], regs[1]) == ("y", "z")

    def test_self_moves_dropped(self):
        assert sequence_moves([(3, 3)], lambda: 0) == ()


class TestGepAndPointers:
    def test_nested_global_arrays(self):
        m, vm = vm_for("""
double g[3][4];
double f(int i, int j) {
  g[i][j] = 7.5;
  return g[i][j];
}
""")
        assert vm.call("f", [2, 3]) == 7.5
        assert vm.globals["g"].data[2 * 4 + 3] == 7.5

    def test_pointer_argument_arithmetic(self):
        src = """
double f(double *a, int n) {
  double s = 0.0;
  for (int i = 1; i < n; i++) s += a[i - 1] * a[i];
  return s;
}
"""
        m, vm = vm_for(src)
        m2 = compile_c(src)
        optimize(m2)
        it = Interpreter(m2)
        from repro.runtime import Buffer, Pointer
        data = np.arange(6.0)
        args_vm = [Pointer(Buffer.from_numpy("a", data.copy()), 0), 6]
        args_it = [Pointer(Buffer.from_numpy("a", data.copy()), 0), 6]
        assert vm.call("f", args_vm) == it.call("f", args_it)

    def test_alloca_array_locals(self):
        m, vm = vm_for("""
int f() {
  int a[8];
  for (int i = 0; i < 8; i++) a[i] = i * i;
  return a[5];
}
""")
        assert vm.call("f", []) == 25

    def test_out_of_bounds_raises_interpreter_error(self):
        m, vm = vm_for("""
double g[4];
double f(int i) { return g[i]; }
""")
        with pytest.raises(InterpreterError):
            vm.call("f", [100])


class TestNativeDispatch:
    def test_math_intrinsics(self):
        m, vm = vm_for("""
double f(double x) { return sqrt(x) + pow(x, 2.0) + fabs(0.0 - x); }
""")
        assert vm.call("f", [4.0]) == pytest.approx(2.0 + 16.0 + 4.0)

    def test_min_max_abs(self):
        m, vm = vm_for("int f(int a, int b) { return max(a, b) - min(a, b) + abs(0 - a); }")
        assert vm.call("f", [3, 7]) == 7 - 3 + 3

    def test_rand_matches_reference_engine(self):
        src = "int f() { int s = 0; for (int i = 0; i < 5; i++) s += rand() % 100; return s; }"
        m, vm = vm_for(src)
        m2 = compile_c(src)
        optimize(m2)
        assert vm.call("f", []) == Interpreter(m2).call("f", [])

    def test_recursion(self):
        m, vm = vm_for("""
int fib(int n) {
  if (n < 2) return n;
  return fib(n-1) + fib(n-2);
}
""")
        assert vm.call("fib", [10]) == 55

    def test_api_call_without_runtime_raises(self):
        text = """
declare double @repro.api.call0(double)

define double @f(double %x) {
entry:
  %r = call double @repro.api.call0(double %x)
  ret double %r
}
"""
        m = parse_module(text)
        with pytest.raises(InterpreterError):
            VirtualMachine(m).call("f", [1.0])


class TestVmRuntimeContract:
    def test_step_budget(self):
        m = compile_c("void f() { while (1) { } }")
        optimize(m)
        vm = VirtualMachine(m, max_steps=1000)
        with pytest.raises(InterpreterError):
            vm.call("f", [])

    def test_division_by_zero_raises(self):
        m, vm = vm_for("int f(int a) { return 10 / a; }")
        with pytest.raises(InterpreterError):
            vm.call("f", [0])

    def test_float_division_by_zero_is_inf(self):
        m, vm = vm_for("double f(double a) { return 1.0 / a; }")
        assert vm.call("f", [0.0]) == float("inf")

    def test_bind_global(self):
        m, vm = vm_for("""
double g[4];
double f() { return g[1] + g[2]; }
""")
        vm.bind_global("g", np.array([1.0, 2.0, 3.0, 4.0]))
        assert vm.call("f", []) == 5.0

    def test_profile_counts(self):
        m, vm = vm_for("""
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += i;
  return s;
}
""")
        vm.call("f", [10])
        counts = vm.profile.opcode_counts()
        assert counts["phi"] >= 20
        assert counts["icmp"] >= 10
        assert vm.profile.total_instructions() > 40

    def test_cannot_call_declaration(self):
        m = parse_module("declare double @ext(double)")
        with pytest.raises(InterpreterError):
            VirtualMachine(m).call("ext", [1.0])
