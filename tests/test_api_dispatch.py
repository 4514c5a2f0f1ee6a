"""Steady-state API dispatch: the typed histogram update, compiled kernels
against the tree-walking oracle, the per-element handler loops, and the
interned residency event log."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from kernel_oracle import evaluate, same_result
from repro.backends import ApiRuntime, api
from repro.backends.registry import BackendRegistry, default_registry
from repro.errors import TransformError
from repro.frontend import compile_c
from repro.idioms import IdiomDetector
from repro.passes import optimize
from repro.platform.placement import PlacementRequest
from repro.runtime import (
    CompiledWorkload,
    compile_workload,
    outputs_identical,
    run_accelerated,
    run_original,
    run_transformed,
)
from repro.service.wire import encode_plan_request
from repro.transform import KBin, KCall, KParam, Transformer, compile_kernel
from repro.transform import replace
from repro.workloads import all_workloads, dominant_workloads

TIERS = [("reference", None), ("vm", None), ("jit", 1)]


class NumpySpy:
    """Stands in for ``numpy`` inside the transformer's handlers and
    records the (bins, delta) dtypes of every ``np.add.at`` call."""

    def __init__(self):
        self.add_at = []
        self.add = SimpleNamespace(at=self._add_at)

    def _add_at(self, data, idx, delta):
        self.add_at.append((data.dtype, np.asarray(delta).dtype))
        return np.add.at(data, idx, delta)

    def __getattr__(self, name):
        return getattr(np, name)


class OracleCheck:
    """A ``"compile"`` kernel role that runs each compiled kernel beside
    the oracle on every call and records what it saw."""

    def __init__(self):
        self.calls = 0
        self.kernels = set()
        self.mismatches = []
        self.scalar_calls = 0

    def __call__(self, expr):
        compiled = compile_kernel(expr)
        self.kernels.add(expr)

        def checked(params, captures):
            self.calls += 1
            if any(p is not None and not isinstance(p, np.ndarray)
                   for p in params):
                self.scalar_calls += 1
            got = compiled(params, captures)
            want = evaluate(expr, params, captures)
            if not same_result(got, want):
                self.mismatches.append((expr, got, want))
            return got
        return checked

    def registry(self) -> BackendRegistry:
        registry = BackendRegistry()
        for entry in default_registry().entries():
            contracts = {
                category: dataclasses.replace(
                    contract, kernels={**contract.kernels, "compile": self})
                if "compile" in contract.kernels else contract
                for category, contract in entry.contracts.items()}
            registry.register(dataclasses.replace(entry,
                                                  contracts=contracts))
        return registry


@pytest.fixture(scope="module")
def suite_dispatch():
    """Every workload at scale 1 and the dominant ones at scale 16,
    transformed under the oracle check with numpy spied on."""
    detector = IdiomDetector()
    spy, check = NumpySpy(), OracleCheck()
    registry = check.registry()
    jobs = [(w, 1) for w in all_workloads()] + \
        [(w, 16) for w in dominant_workloads()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replace, "np", spy)
        for workload, scale in jobs:
            module = optimize(compile_c(workload.source, workload.name))
            compiled = CompiledWorkload(workload.name, module,
                                        detector.detect(module))
            runtime = ApiRuntime()
            Transformer(module, runtime, registry=registry).apply(
                list(compiled.report.matches))
            run_transformed(compiled, workload.entry,
                            workload.make_inputs(scale), runtime)
    return SimpleNamespace(spy=spy, check=check)


# ---------------------------------------------------------------------------
# The typed histogram update
# ---------------------------------------------------------------------------

class TestTypedHistogram:
    def test_suite_histograms_add_in_the_bins_dtype(self, suite_dispatch):
        calls = suite_dispatch.spy.add_at
        assert len(calls) > 1000  # tpacf alone makes 1,120 at scale 16
        assert [c for c in calls if c[0] != c[1]] == []
        assert {c[0].name for c in calls} >= {"int32", "float64"}

    # (bins C type, bins dtype, C type of w, update, w dtype)
    CASES = [
        ("char", np.int8, "char", "w[i]", np.int8),
        ("char", np.uint8, "char", "w[i]", np.int8),
        ("int", np.int32, "int", "1", np.int32),
        ("int", np.int32, "char", "w[i]", np.int8),
        ("long", np.int64, "int", "w[i]", np.int32),
        ("long", np.int64, "char", "w[i]", np.int8),
        ("long", np.int64, "int", "1", np.int32),
    ]

    @pytest.mark.parametrize("engine,threshold", TIERS)
    @pytest.mark.parametrize("case", CASES,
                             ids=[f"{c[1].__name__}+{c[3]}:{c[2]}"
                                  for c in CASES])
    def test_integer_bins_bit_identical(self, case, engine, threshold,
                                        monkeypatch):
        bins_c, bins_dtype, w_c, update, w_dtype = case
        src = f"""
void h(int n, int *key, {w_c} *w, {bins_c} *bin) {{
  for (int i = 0; i < n; i++)
    bin[key[i]] = bin[key[i]] + {update};
}}
"""
        rng = np.random.default_rng(7)
        inputs = {"n": 200,
                  "key": rng.integers(0, 16, 200, dtype=np.int32),
                  "w": rng.integers(0, 2, 200).astype(w_dtype),
                  "bin": np.full(16, 20, dtype=bins_dtype)}
        original = run_original(compile_workload("t", src), "h",
                                dict(inputs), engine=engine,
                                jit_threshold=threshold)
        spy = NumpySpy()
        monkeypatch.setattr(replace, "np", spy)
        accelerated = run_accelerated(compile_workload("t", src), "h",
                                      dict(inputs), engine=engine,
                                      jit_threshold=threshold)
        assert len(accelerated.transforms) == 1
        assert outputs_identical(original, accelerated)
        assert accelerated.buffers["bin"].data.dtype == bins_dtype
        # The closed form ran, in the bins' own dtype.
        assert spy.add_at == [(np.dtype(bins_dtype), np.dtype(bins_dtype))]

    def test_wraparound_matches_mixed_dtype_add_at(self):
        """At a bin holding 2**31 - 1 the handler wraps exactly as the
        mixed-dtype ``np.add.at(bins, idx, int64 delta)`` did. (The
        original loop raises there on every tier, so it cannot serve.)"""
        src = """
void h(int n, int *key, int *bin) {
  for (int i = 0; i < n; i++)
    bin[key[i]] = bin[key[i]] + 1;
}
"""
        key = np.array([0, 1, 0, 2, 0, 1], dtype=np.int32)
        bins = np.array([2**31 - 1, 2**31 - 2, -2**31], dtype=np.int32)
        expected = bins.copy()
        np.add.at(expected, key.astype(np.int64),
                  np.ones(len(key), dtype=np.int64))
        result = run_accelerated(compile_workload("t", src), "h",
                                 {"n": len(key), "key": key,
                                  "bin": bins.copy()})
        got = result.buffers["bin"].data
        assert got.dtype == np.int32
        assert got.tobytes() == expected.tobytes()
        assert got.tolist() == [-2**31 + 2, -2**31, -2**31 + 1]


# ---------------------------------------------------------------------------
# Compiled kernels against the oracle
# ---------------------------------------------------------------------------

class TestCompiledKernels:
    def test_every_suite_kernel_matches_the_oracle(self, suite_dispatch):
        check = suite_dispatch.check
        assert len(check.kernels) >= 20
        assert check.calls > 1000
        assert check.mismatches == []

    def test_suite_never_runs_a_per_element_loop(self, suite_dispatch):
        """Every reduction and histogram site in the suite takes a closed
        form: no kernel is ever called on one element's scalars."""
        assert suite_dispatch.check.scalar_calls == 0

    def test_unsupported_nodes_fail_at_compile_time(self):
        with pytest.raises(TransformError):
            compile_kernel(KBin("frem", KParam(0), KParam(1)))
        with pytest.raises(TransformError):
            compile_kernel(KCall("fmod", (KParam(0), KParam(1))))


# ---------------------------------------------------------------------------
# The per-element handler loops
# ---------------------------------------------------------------------------

class TestPerElementLoops:
    """Updates with no closed form run the handler's per-element loop,
    which must reproduce the original loop's arithmetic exactly."""

    PROGRAMS = {
        "affine-reduction": ("""
double f(int n, double *a) {
  double acc = 1.0;
  for (int i = 0; i < n; i++) acc = acc * 0.5 + a[i];
  return acc;
}
""", "Reduction", lambda rng: {"a": rng.uniform(-1, 1, 200)}),
        "product-reduction": ("""
double f(int n, double *a) {
  double acc = 1.0;
  for (int i = 0; i < n; i++) acc = acc * a[i];
  return acc;
}
""", "Reduction", lambda rng: {"a": rng.uniform(0.9, 1.1, 200)}),
        "product-histogram": ("""
void f(int n, int *k, double *w, double *h) {
  for (int i = 0; i < n; i++) h[k[i]] = h[k[i]] * w[i];
}
""", "Histogram", lambda rng: {
            "k": rng.integers(0, 16, 200, dtype=np.int32),
            "w": rng.uniform(0.5, 1.5, 200),
            "h": rng.uniform(1, 2, 16)}),
        "integer-histogram": ("""
void f(int n, int *k, int *h) {
  for (int i = 0; i < n; i++) h[k[i]] = h[k[i]] * 2 + 1;
}
""", "Histogram", lambda rng: {
            # 25 bins hit 8 times each: at most 2**8 - 1, far from i32
            # overflow.
            "k": (np.arange(200) % 25).astype(np.int32),
            "h": np.zeros(25, dtype=np.int32)}),
    }

    @pytest.mark.parametrize("engine,threshold", TIERS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bit_identical_on_every_tier(self, name, engine, threshold):
        src, idiom, make = self.PROGRAMS[name]
        inputs = {"n": 200, **make(np.random.default_rng(11))}
        first = compile_workload("t", src)
        assert first.report.by_idiom() == {idiom: 1}
        original = run_original(first, "f", dict(inputs), engine=engine,
                                jit_threshold=threshold)
        check = OracleCheck()
        compiled = compile_workload("t", src)
        runtime = ApiRuntime()
        applied = Transformer(compiled.module, runtime,
                              registry=check.registry()).apply(
            list(compiled.report.matches))
        assert len(applied) == 1
        accelerated = run_transformed(compiled, "f", dict(inputs), runtime,
                                      engine=engine, jit_threshold=threshold)
        assert outputs_identical(original, accelerated)
        # The per-element loop ran: the kernel saw one element at a time.
        assert check.scalar_calls == 200
        assert check.mismatches == []


# ---------------------------------------------------------------------------
# The interned event log
# ---------------------------------------------------------------------------

def _replay_logged(monkeypatch, cap: int):
    """Replay three dominant programs three times each on one runtime per
    program, recording beside the runtime's log an uninterned oracle: a
    fresh ``(call_id, accesses)`` tuple per dispatch, as the log held
    before interning."""
    monkeypatch.setattr(api, "EVENT_CAP", cap)
    oracle: dict = {}
    real = ApiRuntime._accesses

    def accesses(self, site, args):
        found = real(self, site, args)
        if found:
            oracle.setdefault(id(self), []).append((site.call_id, found))
        return found

    monkeypatch.setattr(ApiRuntime, "_accesses", accesses)
    runs = []
    for workload in dominant_workloads():
        if workload.name not in ("tpacf", "histo", "EP"):
            continue
        compiled = compile_workload(workload.name, workload.source)
        runtime = ApiRuntime()
        Transformer(compiled.module, runtime).apply(
            list(compiled.report.matches))
        for _ in range(3):
            run_transformed(compiled, workload.entry,
                            workload.make_inputs(2), runtime)
        runs.append((runtime, oracle[id(runtime)]))
    return runs


class TestInternedLog:
    def test_log_equals_the_uninterned_oracle(self, monkeypatch):
        shared = 0
        for runtime, oracle in _replay_logged(monkeypatch, 100_000):
            assert len(runtime.events) == len(oracle) > 0
            assert all(a == b for a, b in zip(runtime.events, oracle))
            assert not runtime.events_overflowed
            # One object per distinct event, however often it recurs.
            distinct = len(set(oracle))
            assert len({id(e) for e in runtime.events}) == distinct
            shared += len(oracle) - distinct
        assert shared > 100  # tpacf dispatches once per outer iteration

    def test_cap_and_overflow_unchanged(self, monkeypatch):
        for runtime, oracle in _replay_logged(monkeypatch, 7):
            assert runtime.events == oracle[:7]
            assert runtime.events_overflowed == (len(oracle) > 7)

    def test_plan_request_bytes_unchanged(self, monkeypatch):
        for runtime, oracle in _replay_logged(monkeypatch, 100_000):
            sites = runtime.all_sites()
            interned = encode_plan_request(
                PlacementRequest(sites, runtime.events))
            fresh = encode_plan_request(PlacementRequest(sites, oracle))
            assert json.dumps(interned, sort_keys=True) == \
                json.dumps(fresh, sort_keys=True)
