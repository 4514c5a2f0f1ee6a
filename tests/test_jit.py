"""JIT tier equivalence: specialized Python + numpy kernels vs the VM.

The jit tier must be observationally **bit-identical** to the register VM
(and hence to the reference interpreter): same return values, same memory
contents, count-identical per-block profiles and the same step totals, on
every suite workload, whether a function was compiled on a call or
entered mid-call at a hot loop header. Kernels whose guard fails at run
time must fall back to the specialized scalar loop without breaking any
of those contracts.
"""

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.frontend import compile_c
from repro.passes import optimize
from repro.runtime import (
    CodeCache,
    Interpreter,
    JitVirtualMachine,
    VirtualMachine,
    compile_workload,
)
from repro.runtime.jit import _STATIC_NS
from repro.runtime.profile import DEFAULT_JIT_THRESHOLD, GLOBAL_CODE_CACHE
from repro.runtime.runner import _bind_arguments
from repro.workloads import all_workloads, get_workload

WORKLOADS = [w.name for w in all_workloads()]


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


def _execute(engine_cls, compiled, workload, **kwargs):
    engine = engine_cls(compiled.module, **kwargs)
    args, buffers = _bind_arguments(engine, compiled.module, workload.entry,
                                    workload.make_inputs(1))
    value = engine.call(workload.entry, args)
    for name, buffer in engine.globals.items():
        buffers.setdefault(name, buffer)
    return value, buffers, engine.profile, engine


def _assert_identical(a, b, label):
    va, ba, pa, ea = a
    vb, bb, pb, eb = b
    if va is None:
        assert vb is None, label
    else:
        assert va == vb or (np.isnan(va) and np.isnan(vb)), label
    assert set(ba) == set(bb), label
    for name, buffer in ba.items():
        np.testing.assert_array_equal(buffer.data, bb[name].data,
                                      err_msg=f"{label}:{name}")
    assert pa.block_counts == pb.block_counts, label
    assert pa.block_sizes == pb.block_sizes, label
    assert pa.opcode_counts() == pb.opcode_counts(), label
    assert ea.steps == eb.steps, label


@pytest.fixture(scope="module")
def oracle_runs(compiled_suite):
    """Reference and VM executions per workload, shared across the
    jit-threshold variants."""
    cache = {}

    def get(name):
        if name not in cache:
            workload, compiled = compiled_suite(name)
            cache[name] = (_execute(Interpreter, compiled, workload),
                           _execute(VirtualMachine, compiled, workload))
        return cache[name]
    return get


#: The default threshold keeps the plain workload id; threshold 1 enters
#: every function at its first call, threshold 2 mostly at a loop header.
SUITE_CASES = [pytest.param(name, None, id=name) for name in WORKLOADS] + [
    pytest.param(name, threshold, id=f"{name}-threshold{threshold}")
    for threshold in (1, 2) for name in WORKLOADS]


@pytest.mark.parametrize("name,jit_threshold", SUITE_CASES)
def test_jit_bit_identical_on_suite(name, jit_threshold, compiled_suite,
                                    oracle_runs):
    """Outputs bit-equal AND per-block counts identical across all three
    tiers, per workload and jit threshold."""
    workload, compiled = compiled_suite(name)
    ref, vm = oracle_runs(name)
    kwargs = {} if jit_threshold is None else \
        {"jit_threshold": jit_threshold}
    jit = _execute(JitVirtualMachine, compiled, workload, **kwargs)
    _assert_identical(vm, jit, f"{name}:vm-vs-jit")
    # Reference values can differ from the VM only in float repr of the
    # same computation — in practice they are bit-equal too.
    _assert_identical(ref, jit, f"{name}:ref-vs-jit")


# ---------------------------------------------------------------------------
# Unit programs
# ---------------------------------------------------------------------------

def engines_for(src, **jit_kwargs):
    # One module for both engines: per-block profiles are keyed by the
    # BasicBlock objects, so sharing makes them directly comparable.
    m = compile_c(src)
    optimize(m)
    return VirtualMachine(m), JitVirtualMachine(m, **jit_kwargs)


def vm_frames(jit):
    """Names of the functions whose frames run on the VM tier from now
    on (every VM frame starts in ``_run``)."""
    frames = []
    run = jit._run

    def counting_run(bc, args):
        frames.append(bc.name)
        return run(bc, args)
    jit._run = counting_run
    return frames


def ptr_args(engine, arrays):
    from repro.runtime import Buffer, Pointer
    return [Pointer(Buffer.from_numpy(f"a{i}", a.copy()), 0)
            for i, a in enumerate(arrays)]


@pytest.fixture
def guard_calls(monkeypatch):
    """``(inner trip, outer trip)`` of every kernel guard call from code
    compiled during the test; the outer trip is None for a loop kernel."""
    calls = []
    guard = _STATIC_NS["_vec_guard"]

    def recording_guard(accesses, n, outer=None):
        calls.append((n, outer))
        return guard(accesses, n, outer)
    monkeypatch.setitem(_STATIC_NS, "_vec_guard", recording_guard)
    return calls


def call_both(src, arrays, scalars, fault=False, **jit_kwargs):
    """Call ``f`` once on the VM and once on the JIT: the same value (or
    fault), buffers, block counts and steps. Returns the JIT engine and
    the VM frames it started (see :func:`vm_frames`)."""
    vm, jit = engines_for(src, **jit_kwargs)
    frames = vm_frames(jit)
    pv, pj = ptr_args(vm, arrays), ptr_args(jit, arrays)
    if fault:
        with pytest.raises(InterpreterError):
            vm.call("f", pv + scalars)
        with pytest.raises(InterpreterError):
            jit.call("f", pj + scalars)
    else:
        assert vm.call("f", pv + scalars) == jit.call("f", pj + scalars)
    for a, b in zip(pv, pj):
        np.testing.assert_array_equal(a.buffer.data, b.buffer.data)
    if jit.profiling:
        assert vm.profile.block_counts == jit.profile.block_counts
    assert vm.steps == jit.steps
    return jit, frames


RECURRENCE = """
void f(double *a, int n) {
  for (int i = 0; i < n - 1; i++) a[i + 1] = a[i] * 0.5 + 1.0;
}
"""


class TestDeopt:
    """A failed kernel guard runs the loop in specialized scalar code:
    it never enters a VM frame. Compiling on the first call makes every
    frame here start in generated code."""

    def test_recurrence_deopts_and_matches_vm(self):
        # a[i+1] depends on a[i]: the store lattice trails the load
        # lattice, the overlap guard must refuse and fall back mid-call.
        vm, jit = engines_for(RECURRENCE, jit_threshold=1)
        frames = vm_frames(jit)
        data = np.linspace(1.0, 2.0, 64)
        (pv,), (pj,) = ptr_args(vm, [data]), ptr_args(jit, [data])
        vm.call("f", [pv, 64])
        jit.call("f", [pj, 64])
        assert jit.deopt_count == 1
        assert any(jit.deopt_sites.values())
        assert frames == []
        np.testing.assert_array_equal(pv.buffer.data, pj.buffer.data)
        assert vm.profile.block_counts == jit.profile.block_counts
        assert vm.steps == jit.steps

    def test_deopt_site_memo_skips_failing_kernel(self):
        # The failing site is remembered: later calls run the scalar
        # specialization directly instead of re-deopting.
        _, jit = engines_for(RECURRENCE, jit_threshold=1)
        frames = vm_frames(jit)
        (p,) = ptr_args(jit, [np.ones(32)])
        jit.call("f", [p, 32])
        assert jit.deopt_count == 1
        (p2,) = ptr_args(jit, [np.ones(32)])
        jit.call("f", [p2, 32])
        assert jit.deopt_count == 1  # no second deopt
        assert frames == []

    def test_gather_bounds_deopt_reproduces_wraparound(self):
        # Negative indirect indices: the kernel's bounds check fails and
        # the scalar loop replays python-style negative indexing
        # bit-exactly.
        src = """
double f(double *x, int *idx, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += x[idx[i]];
  return s;
}
"""
        vm, jit = engines_for(src, jit_threshold=1)
        frames = vm_frames(jit)
        x = np.arange(1.0, 17.0)
        # Trip 24 clears MIN_GATHER_TRIP, so the kernel is attempted.
        idx = np.array([0, 5, -1, 3, 2, 7, -2, 1] * 3, dtype=np.int64)
        (xv, iv), (xj, ij) = ptr_args(vm, [x, idx]), ptr_args(jit, [x, idx])
        assert vm.call("f", [xv, iv, 24]) == jit.call("f", [xj, ij, 24])
        assert jit.deopt_count == 1
        assert vm.steps == jit.steps
        # In-range indices vectorize without deopting.
        ok = np.array([0, 5, 1, 3, 2, 7, 4, 1] * 3, dtype=np.int64)
        (xv, iv), (xj, ij) = ptr_args(vm, [x, ok]), ptr_args(jit, [x, ok])
        assert vm.call("f", [xv, iv, 24]) == jit.call("f", [xj, ij, 24])
        assert jit.deopt_count == 1  # unchanged
        assert vm.profile.block_counts == jit.profile.block_counts
        assert frames == []

    def test_out_of_bounds_faults_identically(self):
        src = """
double f(double *x, int *idx, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += x[idx[i]];
  return s;
}
"""
        vm, jit = engines_for(src, jit_threshold=1)
        frames = vm_frames(jit)
        x = np.ones(8)
        idx = np.full(24, 1000, dtype=np.int64)
        (xv, iv), (xj, ij) = ptr_args(vm, [x, idx]), ptr_args(jit, [x, idx])
        with pytest.raises(InterpreterError):
            vm.call("f", [xv, iv, 24])
        with pytest.raises(InterpreterError):
            jit.call("f", [xj, ij, 24])
        assert jit.deopt_count == 1   # the gather bounds check failed first
        assert vm.steps == jit.steps
        assert frames == []

    def test_budget_exhaustion_deopts_then_raises_like_vm(self):
        src = "void f(double *a, int n) " \
              "{ for (int i = 0; i < n; i++) a[i] = 1.0; }"
        vm, jit = engines_for(src, jit_threshold=1)
        frames = vm_frames(jit)
        vm.max_steps = jit.max_steps = 50
        (pv,), (pj,) = ptr_args(vm, [np.zeros(512)]), \
            ptr_args(jit, [np.zeros(512)])
        with pytest.raises(InterpreterError, match="budget"):
            vm.call("f", [pv, 512])
        with pytest.raises(InterpreterError, match="budget"):
            jit.call("f", [pj, 512])
        assert vm.steps == jit.steps
        np.testing.assert_array_equal(pv.buffer.data, pj.buffer.data)
        assert frames == []

    def test_zero_trip_loop_skips_kernel(self):
        src = "double f(double *a, int n) " \
              "{ double s = 0.0; for (int i = 0; i < n; i++) s += a[i]; " \
              "return s; }"
        vm, jit = engines_for(src, jit_threshold=1)
        (pv,), (pj,) = ptr_args(vm, [np.ones(4)]), ptr_args(jit, [np.ones(4)])
        assert vm.call("f", [pv, 0]) == jit.call("f", [pj, 0]) == 0.0
        assert jit.deopt_count == 0
        assert vm.steps == jit.steps

    # -- nest kernels: the guard hoisted to the parent loop's header -------

    #: Row i reads row k + s*i of b: with s = -1 and k = n - 2 only the
    #: last row is out of range (negative, so the scalar code wraps),
    #: with s = 1 and k = 1 only the last row runs past the end (fault).
    SHIFTED_NEST = """
void f(double *a, double *b, int n, int k, int s) {
  for (int i = 0; i < n; i++)
    for (int m = 0; m < 16; m++)
      a[i*16+m] = b[(k + s*i)*16+m] * 0.5 + 1.0;
}
"""

    @pytest.mark.parametrize("case", ["wrap", "fault"])
    def test_nest_guard_fails_on_last_outer_iteration(self, case,
                                                      guard_calls):
        # The hoisted guard fails, so every row runs its own loop kernel;
        # those pass until the last row, whose kernel fails too and whose
        # scalar loop wraps or faults exactly where the VM does.
        n = 12
        k, s = (n - 2, -1) if case == "wrap" else (1, 1)
        data = [np.zeros(16 * n), np.linspace(1.0, 2.0, 16 * n)]
        jit, frames = call_both(self.SHIFTED_NEST, data, [n, k, s],
                                fault=case == "fault", jit_threshold=1)
        assert frames == []
        assert guard_calls == [(16, n)] + [(16, None)] * n
        assert jit.deopt_count == 2

    @pytest.mark.parametrize("n", [0, 1])
    def test_nest_short_outer_trip(self, n, guard_calls):
        src = """
void f(double *a, double *b, int n) {
  for (int i = 0; i < n; i++)
    for (int m = 0; m < 16; m++)
      a[i*16+m] = b[i*16+m] * 2.0;
}
"""
        jit, frames = call_both(src, [np.zeros(32), np.arange(32.0)], [n],
                                jit_threshold=1)
        assert frames == []
        assert guard_calls == ([(16, 1)] if n else [])
        assert jit.deopt_count == 0

    def test_self_overlapping_nest_store_falls_back(self, guard_calls):
        # Rows of 16 stored 4 apart: iterations (i, m) and (i + 1, m - 4)
        # write one element, so the 2-D store lattice is not injective
        # and the nest must not run as one kernel. Each row alone is
        # injective: per-row kernels, later rows overwriting earlier ones.
        src = """
void f(double *a, double *b, int n) {
  for (int i = 0; i < n; i++)
    for (int m = 0; m < 16; m++)
      a[i*4+m] = b[i*16+m] + 1.0;
}
"""
        n = 10
        jit, frames = call_both(src, [np.zeros(4 * n + 12),
                                      np.arange(16.0 * n)], [n],
                                jit_threshold=1)
        assert frames == []
        assert guard_calls == [(16, n)] + [(16, None)] * n
        assert jit.deopt_count == 1

    def test_lu_recurrence_fails_hoisted_guard_once(self, guard_calls):
        # LU's sweep reads row i - 1, which the previous outer iteration
        # wrote: the hoisted guard fails once and blacklists the nest;
        # 5-element rows are below MIN_KERNEL_TRIP, so they run scalar.
        src = get_workload("LU").source
        n = 40
        rng = np.random.default_rng(3)
        data = [rng.uniform(-1, 1, 5 * n), rng.uniform(-1, 1, 5 * n)]
        vm, jit = engines_for(src, jit_threshold=1)
        frames = vm_frames(jit)
        pv, pj = ptr_args(vm, data), ptr_args(jit, data)
        vm.call("ssor_sweep", [n] + pv)
        jit.call("ssor_sweep", [n] + pj)
        for a, b in zip(pv, pj):
            np.testing.assert_array_equal(a.buffer.data, b.buffer.data)
        assert vm.profile.block_counts == jit.profile.block_counts
        assert vm.steps == jit.steps
        assert frames == []
        assert guard_calls == [(5, n - 2)]
        assert jit.deopt_count == 1


class TestNestKernel:
    def test_bt_compute_rhs_one_guard_per_sweep(self, guard_calls):
        workload = get_workload("BT")
        inputs = workload.make_inputs(1)
        n = inputs["n"]
        vm, jit = engines_for(workload.source, jit_threshold=1)
        frames = vm_frames(jit)
        data = [inputs["u"], inputs["rhs"]]
        pv, pj = ptr_args(vm, data), ptr_args(jit, data)
        vm.call("compute_rhs", [n] + pv)
        jit.call("compute_rhs", [n] + pj)
        # 14 sweeps, each one kernel over all n - 2 rows of 5.
        assert guard_calls == [(5, n - 2)] * 14
        assert jit.deopt_count == 0
        for a, b in zip(pv, pj):
            np.testing.assert_array_equal(a.buffer.data, b.buffer.data)
        assert vm.profile.block_counts == jit.profile.block_counts
        assert vm.steps == jit.steps
        assert frames == []

    def test_identical_store_lattice_reads_values_before_the_store(
            self, guard_calls):
        # a is loaded and stored through one 2-D lattice, which the guard
        # admits; b's value is computed after a's store in the kernel and
        # must still see a's old elements, as each scalar iteration does.
        src = """
void f(double *a, double *b, int n) {
  for (int i = 0; i < n; i++)
    for (int m = 0; m < 16; m++) {
      double x = a[i*16+m];
      a[i*16+m] = x * 2.0;
      b[i*16+m] = x + 1.0;
    }
}
"""
        n = 8
        jit, frames = call_both(src, [np.arange(16.0 * n),
                                      np.zeros(16 * n)], [n], jit_threshold=1)
        assert frames == []
        assert guard_calls == [(16, n)]
        assert jit.deopt_count == 0

    def test_on_stack_entry_at_inner_header_then_nest(self, guard_calls):
        # Heat 16 is reached on the first row's 15th inner back edge: the
        # frame enters at the inner header with one iteration left, runs
        # it scalar, and the parent header then batches the other rows.
        src = """
void f(double *a, double *b, int n) {
  for (int i = 0; i < n; i++)
    for (int m = 0; m < 16; m++)
      a[i*16+m] = b[i*16+m] * 2.0;
}
"""
        n = 20
        vm, jit = engines_for(src, jit_threshold=16)
        data = [np.zeros(16 * n), np.arange(16.0 * n)]
        pv, pj = ptr_args(vm, data), ptr_args(jit, data)
        vm.call("f", pv + [n])
        jit.call("f", pj + [n])
        assert jit.jit_compiled() == ["f"]
        assert guard_calls == [(16, n - 1)]
        np.testing.assert_array_equal(pv[0].buffer.data, pj[0].buffer.data)
        assert vm.profile.block_counts == jit.profile.block_counts
        assert vm.steps == jit.steps

class TestKvOrdering:
    def test_sitofp_reduction_operand_defines_kv(self):
        # Regression: the only _kv use comes from vectorizing a
        # *reduction operand* (sitofp of the induction variable), which
        # happens after loads/stores are assembled — the arange line must
        # still end up first in the kernel body.
        src = "double f(double *a, int n) { double s = 0; " \
              "for (int i = 0; i < n; i++) s += a[i] * (double)i; " \
              "return s; }"
        vm, jit = engines_for(src, jit_threshold=1)
        data = np.linspace(0.5, 2.0, 16)
        (pv,), (pj,) = ptr_args(vm, [data]), ptr_args(jit, [data])
        assert vm.call("f", [pv, 16]) == jit.call("f", [pj, 16])
        assert jit.jit_compiled() == ["f"]
        assert jit.deopt_count == 0  # vectorized, not rejected
        assert vm.profile.block_counts == jit.profile.block_counts
        assert vm.steps == jit.steps


class TestCodegenDefectSafetyNet:
    SRC = "double f(double *a, int n) " \
          "{ double s = 0.0; for (int i = 0; i < n; i++) s += a[i]; " \
          "return s; }"

    def _defective_pair(self, **jit_kwargs):
        vm, jit = engines_for(self.SRC, **jit_kwargs)
        entries = []

        def fake_compile(name, bc):
            def broken(vm, args, bx=0, regs=None, allocas=None):
                entries.append("call" if regs is None else f"loop:{bx}")
                vm.steps += 999           # state the fallback must undo
                vm.rng.next()
                if vm.profiling:
                    vm._counts[name][0] += 7
                raise NameError("_kv is not defined")
            jit._jit_fns[name] = broken
            return broken
        jit._compile_jit = fake_compile
        return vm, jit, entries

    def test_unexpected_exception_blacklists_and_replays_on_vm(self):
        vm, jit, entries = self._defective_pair(jit_threshold=1)
        (pv,), (pj,) = ptr_args(vm, [np.ones(8)]), ptr_args(jit, [np.ones(8)])
        assert vm.call("f", [pv, 8]) == jit.call("f", [pj, 8]) == 8.0
        assert entries == ["call"]
        assert jit._jit_fns["f"] is None  # permanently on the VM tier
        assert vm.steps == jit.steps
        assert vm.rng.state == jit.rng.state
        assert vm.profile.block_counts == jit.profile.block_counts
        # Later calls go straight to the VM, no recompilation attempt.
        (p2,) = ptr_args(jit, [np.ones(8)])
        assert jit.call("f", [p2, 8]) == 8.0
        assert entries == ["call"]

    def test_on_stack_entry_defect_continues_frame_on_vm(self):
        # The loop gets hot mid-call: the defective code is entered at the
        # loop header, blacklisted, and the VM finishes the same frame
        # from that header with steps, RNG and counts as if it never left.
        vm, jit, entries = self._defective_pair(jit_threshold=4)
        frames = vm_frames(jit)
        data = np.arange(64.0)
        (pv,), (pj,) = ptr_args(vm, [data]), ptr_args(jit, [data])
        assert vm.call("f", [pv, 64]) == jit.call("f", [pj, 64]) == \
            float(data.sum())
        assert entries == ["loop:1"]
        assert frames == ["f"]           # one frame, never restarted
        assert jit._jit_fns["f"] is None
        assert jit.codegen_defect_replays == {"f": 1}
        assert vm.steps == jit.steps
        assert vm.rng.state == jit.rng.state
        assert vm.profile.block_counts == jit.profile.block_counts
        (p2,) = ptr_args(jit, [data])
        assert jit.call("f", [p2, 64]) == float(data.sum())
        assert entries == ["loop:1"]     # blacklisted: never re-entered

    def test_interpreter_errors_still_propagate(self):
        # Guest-visible faults raised by generated code must NOT trigger
        # the fallback: they are the correct result.
        _, jit = engines_for(self.SRC, jit_threshold=1)
        jit.max_steps = 5
        (p,) = ptr_args(jit, [np.ones(512)])
        with pytest.raises(InterpreterError, match="budget"):
            jit.call("f", [p, 512])


class TestTieringPolicy:
    SRC = "double f(double *a, int n) " \
          "{ double s = 0.0; for (int i = 0; i < n; i++) s += a[i] * a[i]; " \
          "return s; }"
    #: A multi-block loop body: never batched into a kernel.
    BRANCHY = """
double f(double *a, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    if (a[i] > 0.5) s += a[i]; else a[i] = s;
  }
  return s;
}
"""

    def test_threshold_transition(self):
        # A loop-free function's heat is its call count.
        src = "double f(double *a, int i) { return a[i] * a[i]; }"
        _, jit = engines_for(src, jit_threshold=3)
        for call in range(1, 5):
            (p,) = ptr_args(jit, [np.arange(16.0)])
            assert jit.call("f", [p, 5]) == 25.0
            compiled = "f" in jit.jit_compiled()
            assert compiled == (call >= 3), call

    def test_threshold_one_compiles_first_call(self):
        _, jit = engines_for(self.SRC, jit_threshold=1)
        frames = vm_frames(jit)
        (p,) = ptr_args(jit, [np.ones(8)])
        jit.call("f", [p, 8])
        assert jit.jit_compiled() == ["f"]
        assert frames == []

    def test_hot_loop_tiers_up_mid_call(self):
        data = np.linspace(0.0, 1.0, 200)
        cache = CodeCache()
        jit, _ = call_both(self.BRANCHY, [data], [200], code_cache=cache)
        assert jit.jit_compiled() == ["f"]
        assert cache.compiles == 1
        assert jit.hotness.heat["f"] == DEFAULT_JIT_THRESHOLD

    def test_cold_function_is_never_compiled(self):
        before = GLOBAL_CODE_CACHE.compiles
        jit, _ = call_both(self.BRANCHY, [np.ones(4)], [4])
        assert jit.jit_compiled() == []
        assert GLOBAL_CODE_CACHE.compiles == before

    def test_on_stack_entry_runs_kernel_for_rest_of_loop(self, guard_calls):
        jit, _ = call_both(self.SRC, [np.linspace(0.0, 1.0, 200)], [200],
                           jit_threshold=16)
        # One call's heat, then 15 back edges: entered at i == 15, and
        # the kernel batches the 185 iterations left.
        assert guard_calls == [(185, None)]
        assert jit.deopt_count == 0

    def test_budget_exhaustion_straddling_entry_raises_like_vm(self):
        src = "void f(double *a, int n) " \
              "{ for (int i = 0; i < n; i++) a[i] = 1.0; }"
        vm, jit = engines_for(src, jit_threshold=16)
        vm.max_steps = jit.max_steps = 100
        (pv,), (pj,) = ptr_args(vm, [np.zeros(512)]), \
            ptr_args(jit, [np.zeros(512)])
        with pytest.raises(InterpreterError, match="budget"):
            vm.call("f", [pv, 512])
        with pytest.raises(InterpreterError, match="budget"):
            jit.call("f", [pj, 512])
        assert jit.jit_compiled() == ["f"]   # entered before running out
        assert vm.steps == jit.steps == 101
        np.testing.assert_array_equal(pv.buffer.data, pj.buffer.data)
        assert vm.profile.block_counts == jit.profile.block_counts

    def test_entry_with_allocas_and_globals(self):
        src = """
double g[32];
double f(int n) {
  double t[32];
  for (int i = 0; i < 32; i++) t[i] = g[i] * 2.0;
  double s = 0.0;
  for (int k = 0; k < n; k++) {
    s += t[k % 32] - g[(k * 7) % 32];
    t[(k * 3) % 32] = s;
  }
  return s;
}
"""
        m = compile_c(src)
        optimize(m)
        engines = [VirtualMachine(m), JitVirtualMachine(m, jit_threshold=20)]
        for engine in engines:
            engine.bind_global("g", np.linspace(1.0, 2.0, 32))
        vm, jit = engines
        assert vm.call("f", [300]) == jit.call("f", [300])
        assert jit.jit_compiled() == ["f"]
        np.testing.assert_array_equal(vm.globals["g"].data,
                                      jit.globals["g"].data)
        assert vm.profile.block_counts == jit.profile.block_counts
        assert vm.steps == jit.steps

    def test_profile_opt_out(self):
        _, jit = engines_for(self.SRC, profile=False)
        (p,) = ptr_args(jit, [np.ones(8)])
        assert jit.call("f", [p, 8]) == 8.0
        with pytest.raises(InterpreterError):
            jit.profile

    def test_profile_off_still_tiers_up(self):
        jit, _ = call_both(self.BRANCHY, [np.linspace(0.0, 1.0, 200)], [200],
                           profile=False)
        assert jit.jit_compiled() == ["f"]

    def test_code_cache_shared_across_vms(self):
        cache = CodeCache()
        _, jit1 = engines_for(self.SRC, code_cache=cache, jit_threshold=1)
        (p,) = ptr_args(jit1, [np.ones(8)])
        jit1.call("f", [p, 8])
        assert cache.stats()["compiles"] == 1
        _, jit2 = engines_for(self.SRC, code_cache=cache, jit_threshold=1)
        (p,) = ptr_args(jit2, [np.ones(8)])
        jit2.call("f", [p, 8])
        stats = cache.stats()
        assert stats["compiles"] == 1  # second VM reused the code object
        assert stats["hits"] >= 1


# ---------------------------------------------------------------------------
# Scalar load path
# ---------------------------------------------------------------------------

LOAD_FORMS_IR = """
define {t} @load({t}* %a) {{
entry:
  %v = load {t}, {t}* %a
  ret {t} %v
}}
define {t} @loadidx({t}* %a, i64 %i) {{
entry:
  %p = gep {t}* %a, i64 %i
  %v = load {t}, {t}* %p
  ret {t} %v
}}
define {t} @loadn({t}* %a, i64 %i, i64 %j) {{
entry:
  %p = gep {t}* %a, i64 %i
  %q = gep {t}* %p, i64 %j
  %v = load {t}, {t}* %q
  ret {t} %v
}}
"""

INT_VALUES = [-128, 7, 0, 127, -1]
FLOAT_VALUES = [float("nan"), float("inf"), float("-inf"), -128.0, 0.5]
LOAD_BUFFERS = {
    "i1": (np.int8, [1, 0, 0, 1, 1]),
    "i8": (np.int8, INT_VALUES),
    "i32": (np.int32, INT_VALUES),
    "i64": (np.int64, INT_VALUES),
    "float": (np.float32, FLOAT_VALUES),
    "double": (np.float64, FLOAT_VALUES),
}


def _load_calls(n):
    """(function, pointer offset, index args) for every in-bounds element,
    reached both directly and through negative-index wraparound."""
    calls = []
    for k in range(-n, n):
        calls.append(("load", k, []))
        calls.append(("loadidx", 0, [k]))
        calls.append(("loadn", 1, [k, -1]))
    return calls


@pytest.mark.parametrize("ty", sorted(LOAD_BUFFERS))
def test_scalar_load_forms_identical_across_tiers(ty):
    """LOAD, LOADIDX and LOADN return equal values of the same Python type
    in every tier, and fault identically out of bounds."""
    from repro.ir import parse_module
    from repro.runtime import Buffer, Pointer
    from repro.runtime.bytecode import OP_LOAD, OP_LOADIDX, OP_LOADN

    dtype, values = LOAD_BUFFERS[ty]
    module = parse_module(LOAD_FORMS_IR.format(t=ty))
    tiers = [Interpreter(module), VirtualMachine(module),
             JitVirtualMachine(module, jit_threshold=1)]
    forms = {"load": OP_LOAD, "loadidx": OP_LOADIDX, "loadn": OP_LOADN}
    for fn, op in forms.items():
        assert [i[0] for i in tiers[1]._compiled(fn).code][0] == op, fn
    buffer = Buffer.from_numpy("a", np.array(values, dtype=dtype))
    n = len(values)
    for fn, offset, idx in _load_calls(n):
        got = [tier.call(fn, [Pointer(buffer, offset), *idx])
               for tier in tiers]
        want = buffer.data[offset + sum(idx)].item()
        label = f"{ty}:{fn}{offset, *idx}"
        assert {type(v) for v in got} == {type(want)}, label
        assert {repr(v) for v in got} == {repr(want)}, label
    assert tiers[2].jit_compiled() == sorted(forms)

    for fn, offset, idx in [("load", n, []), ("load", -n - 1, []),
                            ("loadidx", 0, [n]), ("loadidx", 0, [-n - 1]),
                            ("loadn", 1, [n, -1]), ("loadn", 1, [-n - 1, -1])]:
        for tier in tiers:
            with pytest.raises(InterpreterError):
                tier.call(fn, [Pointer(buffer, offset), *idx])
        assert len({tier.steps for tier in tiers}) == 1, (fn, offset, idx)
