"""Tests for the reliability layer: deterministic fault injection,
detection-session outcomes and deadlines,
crash-safe concurrent cache writes, backend quarantine with
guaranteed fallback, and the JIT tier's fault containment."""

import json
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.backends.api import ApiRuntime
from repro.backends.registry import default_registry
from repro.cache import ArtifactStore
from repro.errors import InjectedFault, ReproError, SolveTimeout
from repro.frontend import compile_c
from repro.idioms import DetectionSession, IdiomDetector, report_fingerprint
from repro.idl.solver import SolverStats
from repro.passes import optimize
from repro.reliability import faults
from repro.reliability.faults import FaultPlan, FaultSpec, plan_from_spec
from repro.reliability.quarantine import Quarantine
from repro.runtime.jit import JitVirtualMachine
from repro.runtime.runner import (
    _bind_arguments,
    compile_workload,
    outputs_match,
    run_original,
    run_transformed,
)
from repro.transform.replace import Transformer
from repro.workloads import all_workloads

SRC = """
double dot(int n, double *a, double *b) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += a[i] * b[i];
  return s;
}
double asum(int n, double *a) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
void histo(int n, double *x, double *q) {
  for (int i = 0; i < n; i++) {
    int k = (int) x[i];
    q[k] = q[k] + 1.0;
  }
}
"""


def compiled(src=SRC, name="m"):
    module = compile_c(src, name)
    optimize(module)
    return module


@pytest.fixture(autouse=True)
def _clean_plan():
    """No fault plan leaks into or out of any test."""
    faults.install_plan(None)
    yield
    faults.install_plan(None)


def fingerprint(report):
    return report_fingerprint(report, by_identity=False)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_seam_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(site="store.readd", kind="exception")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(site="store.read", kind="explode")

    def test_occurrence_addressing(self):
        plan = FaultPlan([{"site": "jit.compile", "kind": "exception",
                           "at": [1]}])
        assert plan.fire("jit.compile", "f") is None
        with pytest.raises(InjectedFault):
            plan.fire("jit.compile", "g")
        assert plan.fire("jit.compile", "h") is None
        assert [e["occurrence"] for e in plan.fired] == [1]
        assert plan.fired[0]["key"] == "g"

    def test_counters_are_per_seam(self):
        plan = FaultPlan([{"site": "store.read", "kind": "exception",
                           "at": [0]}])
        assert plan.fire("store.write") is None  # other seam's counter
        with pytest.raises(InjectedFault):
            plan.fire("store.read")

    def test_key_filter(self):
        plan = FaultPlan([{"site": "jit.compile", "kind": "exception",
                           "at": [0, 1], "key": "target"}])
        assert plan.fire("jit.compile", "other") is None
        with pytest.raises(InjectedFault):
            plan.fire("jit.compile", "the_target_fn")

    def test_rate_is_seed_deterministic(self):
        def fired_pattern(seed):
            plan = FaultPlan([{"site": "store.read", "kind": "exception",
                               "at": [], "rate": 0.5}], seed=seed)
            out = []
            for _ in range(200):
                try:
                    plan.fire("store.read")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        first, again = fired_pattern(3), fired_pattern(3)
        assert first == again
        assert 0 < sum(first) < 200
        assert fired_pattern(4) != first

    def test_torn_is_returned_not_raised(self):
        plan = FaultPlan([{"site": "store.write", "kind": "torn",
                           "at": [0]}])
        directive = plan.fire("store.write", "k")
        assert isinstance(directive, FaultSpec) and directive.kind == "torn"

    def test_hang_returns_after_sleeping(self):
        plan = FaultPlan([{"site": "jit.compile", "kind": "hang",
                           "at": [0], "seconds": 0.01}])
        assert plan.fire("jit.compile") is None
        assert plan.fired[0]["kind"] == "hang"

    def test_process_pool_seam_and_kind_rejected(self):
        """Detection runs in-process on one thread: a plan naming the
        old pool-worker seams or the worker-crash kind is a typed error,
        not a plan that silently never fires."""
        for seam in ("worker.spawn", "worker.solve"):
            with pytest.raises(ReproError, match="unknown fault seam"):
                plan_from_spec([{"site": seam, "kind": "exception"}])
        with pytest.raises(ReproError, match="unknown fault kind"):
            plan_from_spec([{"site": "jit.compile", "kind": "crash"}])

    def test_unknown_or_missing_spec_field_rejected(self):
        """A spec field FaultSpec does not have (an ``epochs`` list from
        an older plan, or a typo) is a typed error naming the field, as
        is a missing site or kind — never a bare TypeError."""
        with pytest.raises(ReproError, match="unknown fault spec field "
                                             "'epochs'"):
            plan_from_spec([{"site": "store.read", "kind": "exception",
                             "epochs": [0]}])
        with pytest.raises(ReproError, match="lacks 'kind'"):
            plan_from_spec([{"site": "store.read"}])
        with pytest.raises(ReproError, match="must be an object"):
            plan_from_spec(["store.read"])

    def test_seam_census_matches_call_sites(self):
        """Every seam in SEAMS has a literal ``maybe_fire("<seam>"`` call
        in the package, and every call names a seam in SEAMS with a
        literal — so a seam left behind by a deleted code path, or a
        call site a plan could never address, fails here."""
        root = Path(faults.__file__).resolve().parents[1]
        calls = literal = 0
        used: set[str] = set()
        for path in root.rglob("*.py"):
            text = path.read_text()
            calls += len(re.findall(r"(?<!def )\bmaybe_fire\(", text))
            names = re.findall(r"\bmaybe_fire\(\s*\"([^\"]+)\"", text)
            literal += len(names)
            used.update(names)
        assert calls == literal, "maybe_fire called with a non-literal seam"
        assert used == set(faults.SEAMS), (
            f"seams without a call site: {sorted(faults.SEAMS - used)}; "
            f"call sites outside SEAMS: {sorted(used - faults.SEAMS)}")

    def test_spec_roundtrip(self, tmp_path):
        plan = FaultPlan([FaultSpec("store.read", "exception", at=(2,),
                                    key="ab")], seed=9)
        rebuilt = plan_from_spec(plan.as_spec())
        assert rebuilt.seed == 9
        assert rebuilt.specs[0] == plan.specs[0]
        rebuilt = plan_from_spec(json.dumps(plan.as_spec()))
        assert rebuilt.specs[0] == plan.specs[0]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.as_spec()))
        rebuilt = plan_from_spec(f"@{path}")
        assert rebuilt.specs[0] == plan.specs[0]

    def test_maybe_fire_is_noop_without_plan(self):
        faults.install_plan(None)
        assert faults.maybe_fire("store.read", "k") is None

    def test_install_and_clear(self):
        faults.install_plan({"specs": [{"site": "store.read",
                                        "kind": "exception", "at": [0]}]})
        with pytest.raises(InjectedFault):
            faults.maybe_fire("store.read")
        faults.install_plan(None)
        assert faults.maybe_fire("store.read") is None


# ---------------------------------------------------------------------------
# Detection sessions: outcomes and deadlines
# ---------------------------------------------------------------------------

class TestSessionReliability:
    def test_all_ok_outcomes_on_clean_run(self):
        module = compiled()
        report = DetectionSession(IdiomDetector()).detect(module)
        assert set(report.outcomes.values()) == {"ok"}

    def test_deadline_yields_partial_and_skips_cache(self, tmp_path):
        # CG's driver loop solves for >4096 ticks, enough for the
        # sampled wall clock to observe an already-expired deadline.
        workload = next(w for w in all_workloads() if w.name == "CG")
        module = compile_c(workload.source, workload.name)
        optimize(module)
        detector = IdiomDetector(cache=str(tmp_path))
        session = DetectionSession(detector, deadline_s=0.0)
        report = session.detect(module)
        timed_out = [name for name, status in report.outcomes.items()
                     if status == "timed-out-partial"]
        assert "run" in timed_out
        assert report.stats.timed_out
        # Every function appears in the report exactly once regardless.
        assert set(report.outcomes) \
            == {f.name for f in module.functions.values()
                if not f.is_declaration()}
        # Partial results must not be served as truth later: the timed
        # out functions miss on the next pass, the rest hit.
        rerun = DetectionSession(detector)
        rerun.detect(module)
        assert rerun.cache_misses == len(timed_out)
        assert rerun.cache_hits > 0

    def test_solver_deadline_trips_on_sampled_tick(self):
        stats = SolverStats(max_steps=10_000_000)
        stats.arm_deadline(-1.0)  # already expired
        with pytest.raises(SolveTimeout):
            for _ in range(4096):
                stats.tick()
        assert stats.timed_out
        merged = SolverStats(max_steps=1).merge(stats)
        assert merged.timed_out

    def test_deadline_not_in_cache_payload(self):
        # deadline_at/timed_out are runtime-only: the cache payload
        # shape (and thus every content address) must not change.
        stats = SolverStats(max_steps=100)
        assert "deadline_at" not in stats.as_dict()
        assert "timed_out" not in stats.as_dict()


# ---------------------------------------------------------------------------
# Crash-safe store
# ---------------------------------------------------------------------------

KEY = "ab" + "0" * 62
KEY2 = "cd" + "0" * 62


def _writer(args):
    directory, worker, rounds = args
    store = ArtifactStore(directory)
    for i in range(rounds):
        key = f"{(worker + i) % 4:02x}" + "0" * 62
        if not store.put(key, {"kind": "stress", "worker": worker,
                               "round": i}):
            return False
    return True


class TestStoreReliability:
    def test_tmp_names_are_unique_and_cleaned(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for i in range(5):
            assert store.put(KEY, {"kind": "detection", "round": i})
        leftovers = [n for n in os.listdir(store._path(KEY).rsplit("/", 1)[0])
                     if n.endswith(".tmp")]
        assert leftovers == []
        assert store.get(KEY)["round"] == 4

    def test_zero_byte_entry_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY, {"kind": "detection"})
        with open(store._path(KEY), "w"):
            pass
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(store._path(KEY))

    def test_truncated_entry_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY, {"kind": "detection", "matches": list(range(50))})
        path = store._path(KEY)
        with open(path) as fh:
            data = fh.read()
        with open(path, "w") as fh:
            fh.write(data[:len(data) // 2])
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1

    def test_unlinked_mid_read_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY, {"kind": "detection"})
        # The read seam stands in for the file vanishing between the
        # existence check and the open (a concurrent eviction).
        faults.install_plan({"specs": [{"site": "store.read",
                                        "kind": "exception", "at": [0]}]})
        assert store.get(KEY) is None
        faults.install_plan(None)
        assert store.get(KEY) is not None  # entry itself was untouched

    def test_injected_write_failure_is_counted_not_raised(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        faults.install_plan({"specs": [{"site": "store.write",
                                        "kind": "exception", "at": [0]}]})
        assert store.put(KEY, {"kind": "detection"}) is False
        assert store.stats.write_errors == 1
        assert store.get(KEY) is None

    def test_torn_write_reads_back_as_corrupt_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        faults.install_plan({"specs": [{"site": "store.write",
                                        "kind": "torn", "at": [0]}]})
        assert store.put(KEY, {"kind": "detection",
                               "payload": list(range(100))}) is False
        faults.install_plan(None)
        assert os.path.exists(store._path(KEY))  # the torn final file
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1
        # The slot recovers: a clean rewrite is served normally.
        assert store.put(KEY, {"kind": "detection", "ok": True})
        assert store.get(KEY)["ok"] is True

    def test_durable_mode_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path), durable=True)
        assert store.put(KEY, {"kind": "detection", "fsynced": True})
        assert store.get(KEY)["fsynced"] is True

    def test_cross_process_writer_stress(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            ok = pool.map(_writer, [(str(tmp_path), w, 10)
                                    for w in range(4)])
        assert all(ok)
        reader = ArtifactStore(str(tmp_path))
        for slot in range(4):
            payload = reader.get(f"{slot:02x}" + "0" * 62)
            assert payload is not None and payload["kind"] == "stress"
        assert reader.stats.corrupt == 0


# ---------------------------------------------------------------------------
# Quarantine and guaranteed fallback
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_threshold(self):
        q = Quarantine(threshold=3)
        assert not q.record_failure("sparse", "sparse_matrix_op", "e1")
        assert not q.record_failure("sparse", "sparse_matrix_op", "e2")
        assert q.record_failure("sparse", "sparse_matrix_op", "e3")
        assert q.is_quarantined("sparse", "sparse_matrix_op")
        assert not q.is_quarantined("sparse", "matrix_op")
        assert q.quarantined() == [("sparse", "sparse_matrix_op")]

    def test_registry_filters_quarantined_backends(self):
        q = Quarantine(threshold=1)
        q.record_failure("lift", "scalar_reduction", "boom")
        names = [c.backend for c in default_registry().contracts_for(
            "scalar_reduction", quarantine=q)]
        assert "lift" not in names
        assert "parallel-cpu" in names

    def test_transformer_falls_back_past_quarantined_backend(self):
        module = compiled()
        report = IdiomDetector().detect(module)
        runtime = ApiRuntime()
        runtime.quarantine = Quarantine(threshold=1)
        runtime.quarantine.record_failure("lift", "scalar_reduction", "x")
        applied = Transformer(module, runtime).apply(list(report.matches))
        reductions = [t.site for t in applied
                      if t.site.category == "scalar_reduction"]
        assert reductions
        assert all(s.backend == "parallel-cpu" for s in reductions)

    def test_sole_backend_quarantined_rejects_with_reason(self):
        workload = next(w for w in all_workloads() if w.name == "CG")
        module = compile_c(workload.source, workload.name)
        optimize(module)
        report = IdiomDetector().detect(module)
        runtime = ApiRuntime()
        runtime.quarantine = Quarantine(threshold=1)
        runtime.quarantine.record_failure("sparse", "sparse_matrix_op",
                                          "x")
        transformer = Transformer(module, runtime)
        transformer.apply(list(report.matches))
        rejected = [r for r in transformer.rejected
                    if r.match.category == "sparse_matrix_op"]
        assert rejected
        assert any("quarantined" in r.reason for r in rejected)


def _guarded_cg():
    workload = next(w for w in all_workloads() if w.name == "CG")
    compiled_w = compile_workload(workload.name, workload.source,
                                  verify=False)
    original = run_original(compiled_w, workload.entry,
                            workload.make_inputs(1))
    runtime = ApiRuntime()
    Transformer(compiled_w.module, runtime).apply(
        list(compiled_w.report.matches))
    guarded = [s for s in runtime.all_sites() if s.guarded]
    assert guarded, "CG must produce at least one guarded site"
    return workload, compiled_w, runtime, guarded[0], original


class TestGuardedDispatchFallback:
    def test_failing_handler_rolls_back_and_falls_back(self):
        workload, compiled_w, runtime, site, original = _guarded_cg()

        real_handler = site.handler

        def sabotaged(args, engine):
            # Partially clobber the output buffer, then die: the
            # rollback must erase the damage before the original loop
            # replays.
            for index in site.writes:
                buffer = getattr(args[index], "buffer", None)
                if buffer is not None:
                    buffer.data[...] = 1e30
            raise RuntimeError("backend fell over")

        site.handler = sabotaged
        try:
            faulted = run_transformed(compiled_w, workload.entry,
                                      workload.make_inputs(1), runtime)
        finally:
            site.handler = real_handler
        assert outputs_match(original, faulted)
        assert runtime.dispatch_failures
        record = runtime.dispatch_failures[0]
        assert record["callee"] == site.callee
        assert "fell over" in record["error"]
        assert site.stats["dispatch_failures"] >= 3
        assert runtime.quarantine.is_quarantined(site.backend,
                                                 site.category)

    def test_injected_dispatch_fault_contained(self):
        workload, compiled_w, runtime, site, original = _guarded_cg()
        faults.install_plan({"specs": [{"site": "backend.dispatch",
                                        "kind": "exception", "at": [],
                                        "rate": 1.0,
                                        "key": site.callee}]})
        faulted = run_transformed(compiled_w, workload.entry,
                                  workload.make_inputs(1), runtime)
        assert outputs_match(original, faulted)
        assert runtime.dispatch_failures

    def test_quarantined_site_skips_handler(self):
        workload, compiled_w, runtime, site, original = _guarded_cg()
        for i in range(runtime.quarantine.threshold):
            runtime.quarantine.record_failure(site.backend, site.category,
                                              f"e{i}")
        calls = {"n": 0}
        real_handler = site.handler

        def counting(args, engine):
            calls["n"] += 1
            return real_handler(args, engine)

        site.handler = counting
        try:
            skipped = run_transformed(compiled_w, workload.entry,
                                      workload.make_inputs(1), runtime)
        finally:
            site.handler = real_handler
        assert calls["n"] == 0
        assert site.stats["quarantine_skips"] >= 1
        assert outputs_match(original, skipped)


# ---------------------------------------------------------------------------
# JIT tier fault containment
# ---------------------------------------------------------------------------

class TestJitReliability:
    def _run(self, module, entry, inputs):
        engine = JitVirtualMachine(module)
        args, buffers = _bind_arguments(engine, module, entry, inputs)
        value = engine.call(entry, args)
        return engine, value, buffers

    def test_injected_compile_fault_degrades_to_vm(self):
        inputs = {"n": 64, "a": np.arange(64, dtype=np.float64),
                  "b": np.ones(64)}
        clean_engine, clean, _ = self._run(compiled(), "dot", dict(inputs))
        faults.install_plan({"specs": [{"site": "jit.compile",
                                        "kind": "exception", "at": [],
                                        "rate": 1.0}]})
        engine, value, _ = self._run(compiled(), "dot", dict(inputs))
        assert value == clean
        records = {r["function"]: r for r in engine.outcome_records()}
        assert records["dot"]["status"] == "uncompilable"
        clean_records = {r["function"]: r
                         for r in clean_engine.outcome_records()}
        assert clean_records["dot"]["status"] == "specialized"

    def test_compile_faults_on_a_suite_workload_fall_back_to_vm(self):
        workload = next(w for w in all_workloads() if w.name == "CG")
        vm_run = run_original(
            compile_workload(workload.name, workload.source, verify=False),
            workload.entry, workload.make_inputs(1), engine="vm")
        plan = faults.install_plan({"specs": [{"site": "jit.compile",
                                               "kind": "exception",
                                               "at": [], "rate": 1.0}]})
        jit_run = run_original(
            compile_workload(workload.name, workload.source, verify=False),
            workload.entry, workload.make_inputs(1), engine="jit")
        assert plan.fired
        assert outputs_match(vm_run, jit_run)

    def test_codegen_defect_replays_surfaced(self):
        engine = JitVirtualMachine(compiled())
        engine.codegen_defect_replays["dot"] = 2
        records = {r["function"]: r for r in engine.outcome_records()}
        assert records["dot"]["status"] == "blacklisted-replayed"
        assert records["dot"]["codegen_defect_replays"] == 2


# ---------------------------------------------------------------------------
# End-to-end: detection under faults stays bit-identical
# ---------------------------------------------------------------------------

#: Each (seam, kind) scenario: its specs, plus whether it runs against an
#: artifact store (the store seams fire nowhere else) and whether the
#: store is populated first (so read faults hit real entries).
FAULT_MATRIX = {
    "store.write/exception": (
        {"cache": True},
        [{"site": "store.write", "kind": "exception", "at": [0]}]),
    "store.write/torn": (
        {"cache": True},
        [{"site": "store.write", "kind": "torn", "at": [0]}]),
    "store.read/exception": (
        {"cache": True, "warm": True},
        [{"site": "store.read", "kind": "exception", "at": [0]}]),
}


@pytest.fixture(scope="module")
def suite_fingerprints():
    """[(name, module)] for all 21 workloads, and their fault-free
    fingerprints."""
    faults.install_plan(None)
    modules = [(w.name, compiled(w.source, w.name))
               for w in all_workloads()]
    detector = IdiomDetector()
    return modules, {name: fingerprint(DetectionSession(detector)
                                       .detect(module))
                     for name, module in modules}


@pytest.mark.parametrize("scenario", sorted(FAULT_MATRIX))
def test_fault_matrix_over_the_suite(scenario, suite_fingerprints,
                                     tmp_path):
    """The fault fires, every faulted run matches the fault-free
    fingerprint, and a pass after the fault over the same detector (and
    store) is identical too: torn entries read back as misses and are
    re-solved, never served."""
    modules, baseline = suite_fingerprints
    options, specs = FAULT_MATRIX[scenario]
    detector = IdiomDetector(cache=str(tmp_path)) if options.get("cache") \
        else IdiomDetector()
    if options.get("warm"):
        for _, module in modules:
            DetectionSession(detector).detect(module)
    plan = faults.install_plan({"specs": specs})
    for name, module in modules:
        session = DetectionSession(detector)
        assert fingerprint(session.detect(module)) == baseline[name], name
    faults.install_plan(None)
    assert plan.fired
    for name, module in modules:
        assert fingerprint(DetectionSession(detector).detect(module)) == \
            baseline[name], name


def test_store_faults_leave_detection_identical(tmp_path):
    module = compiled()
    baseline = fingerprint(IdiomDetector().detect(module))
    detector = IdiomDetector(cache=str(tmp_path))
    faults.install_plan({"specs": [
        {"site": "store.write", "kind": "torn", "at": [0]},
        {"site": "store.write", "kind": "exception", "at": [1]},
    ]})
    assert fingerprint(DetectionSession(detector).detect(module)) == \
        baseline
    faults.install_plan(None)
    # The store healed: the next pass re-writes and then serves cleanly.
    assert fingerprint(DetectionSession(detector).detect(module)) == \
        baseline
    warm = DetectionSession(detector)
    assert fingerprint(warm.detect(module)) == baseline
    assert warm.cache_misses == 0
