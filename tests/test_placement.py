"""Registry, residency planner, runtime tracker, and rejection paths."""

import pickle

import numpy as np
import pytest

from repro.backends import blas, sparse
from repro.backends.api import (
    API_DESCRIPTORS,
    OPENMP_RT,
    ApiDescriptor,
    ApiRuntime,
    FrozenMap,
)
from repro.backends.registry import BackendRegistry, default_registry
from repro.errors import BackendError, PlacementError
from repro.platform import CPU, GPU, MACHINES
from repro.platform.placement import (
    HOST,
    PlacementRequest,
    ResidencyState,
    SitePlacement,
    evaluate_assignment,
    evaluate_concurrent,
    plan_concurrent,
    plan_module,
)
from repro.runtime import (
    compile_workload,
    outputs_identical,
    run_accelerated,
    run_original,
)
from repro.runtime.memory import Buffer, Pointer


# ---------------------------------------------------------------------------
# Descriptor immutability (process-pool safety)
# ---------------------------------------------------------------------------

class TestDescriptorImmutability:
    def test_efficiency_is_frozen(self):
        d = API_DESCRIPTORS["MKL"]
        assert isinstance(d.efficiency, FrozenMap)
        with pytest.raises(TypeError):
            d.efficiency["matrix_op"] = 1.0
        with pytest.raises(Exception):
            d.launch_overhead_us = 0.0

    def test_descriptor_is_hashable(self):
        d = ApiDescriptor("X", "library", ("cpu",), {"stencil": 0.5})
        assert hash(d) == hash(
            ApiDescriptor("X", "library", ("cpu",), {"stencil": 0.5}))
        assert len({d, API_DESCRIPTORS["MKL"], API_DESCRIPTORS["MKL"]}) == 2

    def test_descriptor_pickles(self):
        """Safe to ship to process-pool detection workers."""
        d = API_DESCRIPTORS["cuSPARSE"]
        clone = pickle.loads(pickle.dumps(d))
        assert clone == d
        assert hash(clone) == hash(d)
        assert clone.supports("gpu", "sparse_matrix_op")

    def test_frozen_map_mapping_api(self):
        m = FrozenMap({"a": 1, "b": 2})
        assert m["a"] == 1 and m.get("c", 7) == 7
        assert set(m) == {"a", "b"} and len(m) == 2
        assert pickle.loads(pickle.dumps(m)) == m


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_default_entries(self):
        registry = default_registry()
        assert registry.names() == ["blas", "sparse", "halide", "lift",
                                    "fft", "parallel-cpu"]

    def test_contracts_by_category(self):
        registry = default_registry()
        assert [c.backend for c in registry.contracts_for("stencil")] == \
            ["halide", "lift", "parallel-cpu"]
        spmv = registry.contracts_for("sparse_matrix_op")[0]
        assert spmv.kernels["spmv"] is sparse.csr_spmv
        gemm = registry.contracts_for("matrix_op")[0]
        assert gemm.kernels["matmul_tt"] is blas.matmul_tt

    def test_allowed_filtering(self):
        registry = default_registry()
        apis = {d.name for d in registry.apis_for("scalar_reduction", "cpu")}
        assert apis == {"Halide", "Lift", "OpenMP"}
        only = registry.apis_for("scalar_reduction", "cpu",
                                 allowed=["lift"])
        assert [d.name for d in only] == ["Lift"]
        with pytest.raises(BackendError):
            registry.entries(allowed=["nope"])

    def test_new_backends_stay_out_of_table3_columns(self):
        """API_DESCRIPTORS reproduces the paper's Table 3 columns; the
        planner-only APIs are reachable through the registry alone."""
        assert set(API_DESCRIPTORS) == {
            "MKL", "cuBLAS", "clBLAS", "CLBlast", "cuSPARSE", "clSPARSE",
            "libSPMV", "Halide", "Lift"}
        registry_apis = {d.name for d in default_registry().descriptors()}
        assert registry_apis == set(API_DESCRIPTORS) | {
            "OpenMP", "FFTW", "cuFFT"}

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        blas.register_backend(registry)
        with pytest.raises(BackendError):
            blas.register_backend(registry)


# ---------------------------------------------------------------------------
# Residency model
# ---------------------------------------------------------------------------

class TestResidencyState:
    def test_resident_reads_are_free(self):
        state = ResidencyState()
        assert state.access("gpu", 1, 100, "r") == [("gpu", 100)]
        assert state.access("gpu", 1, 100, "r") == []

    def test_interleaved_writer_forces_recharge(self):
        """The exact accounting the lazy ``bytes/calls`` fallback misses:
        a host-side write between two device reads invalidates the
        device copy, so the second read pays the transfer again."""
        state = ResidencyState()
        assert state.access("gpu", 1, 100, "r") == [("gpu", 100)]
        assert state.access(HOST, 1, 100, "w") == []
        assert state.access("gpu", 1, 100, "r") == [("gpu", 100)]

    def test_device_write_invalidates_host(self):
        state = ResidencyState()
        state.access("gpu", 1, 100, "rw")
        assert state.device_only() == {1: "gpu"}
        assert state.access(HOST, 1, 100, "r") == [("gpu", 100)]
        assert state.device_only() == {}

    def test_device_to_device_stages_through_host(self):
        state = ResidencyState()
        state.access("gpu", 1, 100, "w")
        moves = state.access("igpu", 1, 100, "r")
        assert moves == [("gpu", 100), ("igpu", 100)]


def _synthetic_runtime():
    """Two sites ping-ponging over one shared buffer: site 0 reads it,
    site 1 writes it, three rounds."""
    runtime = ApiRuntime()
    handler = lambda args, engine: None  # noqa: E731
    reader = runtime.new_site("Reduction", "scalar_reduction", handler,
                              reads=(0,))
    writer = runtime.new_site("Stencil1D", "stencil", handler,
                              reads=(0,), writes=(1,))
    reader.stats = {"calls": 3, "elements": 3e6, "flops_per_element": 2,
                    "bytes": 24e6}
    writer.stats = {"calls": 3, "elements": 3e6, "flops_per_element": 4,
                    "bytes": 48e6}
    shared, other = 1001, 1002
    events = []
    for _ in range(3):
        events.append((reader.call_id, ((shared, 8e6, "r"),)))
        events.append((writer.call_id, ((other, 8e6, "r"),
                                        (shared, 8e6, "w"))))
    return runtime, events


class TestPlanner:
    def test_planner_never_worse_than_greedy(self):
        runtime, events = _synthetic_runtime()
        sites = runtime.all_sites()
        greedy = plan_module(sites, events, strategy="greedy",
                             host_seconds=0.01)
        for strategy in ("beam", "exhaustive"):
            plan = plan_module(sites, events, strategy=strategy,
                               host_seconds=0.01)
            assert plan.total_s <= greedy.total_s * (1 + 1e-12), strategy

    def test_exhaustive_is_optimal(self):
        """Exhaustive equals a hand-rolled brute force over the space."""
        import itertools

        from repro.platform.placement import candidate_placements

        runtime, events = _synthetic_runtime()
        sites = runtime.all_sites()
        cands = [candidate_placements(s) for s in sites]
        best = None
        for combo in itertools.product(*cands):
            assignment = {s.call_id: p for s, p in zip(sites, combo)}
            plan = evaluate_assignment(sites, events, assignment)
            if best is None or plan.total_s < best:
                best = plan.total_s
        exhaustive = plan_module(sites, events, strategy="exhaustive")
        assert exhaustive.total_s == pytest.approx(best, rel=1e-12)

    def test_residency_vs_legacy_lazy_accounting(self):
        """With an interleaved writer, the exact model charges the reader
        every round; the legacy lazy division charges it once."""
        runtime, events = _synthetic_runtime()
        sites = runtime.all_sites()
        lift = API_DESCRIPTORS["Lift"]
        assignment = {0: SitePlacement(lift, GPU),
                      1: SitePlacement(OPENMP_RT, CPU)}
        plan = evaluate_assignment(sites, events, assignment)
        reader = plan.placed[0]
        assert reader.transfer_events == 3  # recharged after every write
        from repro.platform.cost import site_cost
        lazy = site_cost(sites[0], lift, GPU, lazy_transfers=True)
        assert reader.transfer_s > lazy.transfer_s  # fallback undercharges

    def test_backends_restriction(self):
        runtime, events = _synthetic_runtime()
        sites = runtime.all_sites()
        plan = plan_module(sites, events, strategy="beam",
                           backends=["parallel-cpu"])
        assert {p.placement.api.name for p in plan.placed} == {"OpenMP"}
        with pytest.raises((PlacementError, BackendError)):
            plan_module(sites, events, strategy="beam", backends=["fft"])

    def test_empty_sites(self):
        plan = plan_module([], [], strategy="beam", host_seconds=0.5)
        assert plan.total_s == 0.5 and plan.placed == []

    def test_plan_annotates_sites(self):
        runtime, events = _synthetic_runtime()
        sites = runtime.all_sites()
        plan = plan_module(sites, events, strategy="beam")
        for site in sites:
            assert site.placement is plan.assignment()[site.call_id]

    def test_exhaustive_degradation_is_labelled(self):
        """Over-large spaces fall back to beam — and say so, rather than
        claiming the optimum was enumerated."""
        runtime, events = _synthetic_runtime()
        sites = runtime.all_sites()
        plan = plan_module(sites, events, strategy="exhaustive",
                           exhaustive_limit=1)
        assert plan.strategy == "beam"
        small = plan_module(sites, events, strategy="exhaustive")
        assert small.strategy == "exhaustive"


class TestRuntimeTracker:
    def test_measured_transfers_match_model(self):
        """Live tracking under a placement reproduces the simulation."""
        runtime = ApiRuntime()
        handler = lambda args, engine: None  # noqa: E731
        reader = runtime.new_site("Reduction", "scalar_reduction", handler,
                                  reads=(0,))
        writer = runtime.new_site("Stencil1D", "stencil", handler,
                                  writes=(0,))
        buffer = Buffer.from_numpy("shared", np.zeros(1000))
        pointer = Pointer(buffer, 0)
        runtime.set_placement({reader.call_id: "gpu",
                               writer.call_id: "host"})
        for _ in range(3):
            runtime.dispatch(reader.callee, [pointer], None)
            runtime.dispatch(writer.callee, [pointer], None)
        # Host write invalidates the GPU copy every round: 3 uploads.
        assert reader.stats["measured_xfer_events"] == 3
        assert reader.stats["measured_xfer_bytes"] == 3 * buffer.nbytes
        # And the recorded event log replays to the same transfer count.
        lift = API_DESCRIPTORS["Lift"]
        omp = OPENMP_RT
        plan = evaluate_assignment(
            runtime.all_sites(), runtime.events,
            {reader.call_id: SitePlacement(lift, GPU),
             writer.call_id: SitePlacement(omp, CPU)})
        assert plan.placed[0].transfer_events == 3


# ---------------------------------------------------------------------------
# Transformer rejection paths: the original loop must survive, bit-exact
# ---------------------------------------------------------------------------

class TestRejectionPaths:
    def test_escaping_value_leaves_loop_intact(self):
        src = """
double esc(int n, double *x) {
  double t = 0.0;
  double u = 0.0;
  for (int i = 0; i < n; i++) {
    t = t + x[i];
    u = t * 2.0;
  }
  return u;
}
"""
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, 40)
        w1 = compile_workload("t", src)
        assert w1.report.total() >= 1  # the reduction is still matched
        r1 = run_original(w1, "esc", {"n": 40, "x": x})
        w2 = compile_workload("t", src)
        r2 = run_accelerated(w2, "esc", {"n": 40, "x": x})
        assert r2.rejected and "escapes" in r2.rejected[0].reason
        assert not r2.api_runtime.all_sites()
        # The loop ran unmodified: identical dynamic work, identical bits.
        assert r2.total_instructions == r1.total_instructions
        assert outputs_identical(r1, r2)

    def test_aliasing_guard_trip_falls_back_to_loop(self):
        src = """
void sm(int n, double *out, double *in) {
  for (int i = 1; i < n; i++)
    out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1];
}
void drive(int n, double *a, double *b) {
  sm(n, a, b);
  sm(n, a, a);
}
"""
        rng = np.random.default_rng(12)
        inputs = {"n": 62, "a": rng.uniform(0, 1, 64),
                  "b": rng.uniform(0, 1, 64)}
        w1 = compile_workload("t", src)
        r1 = run_original(w1, "drive", dict(inputs))
        w2 = compile_workload("t", src)
        r2 = run_accelerated(w2, "drive", dict(inputs))
        sites = r2.api_runtime.all_sites()
        assert len(sites) == 1
        guards = [s for s in r2.api_runtime.sites.values()
                  if s.kind == "guard"]
        assert len(guards) == 1  # multi-versioned, original loop retained
        # First call (distinct buffers) took the fast path; the aliased
        # second call tripped the guard and ran the original loop.
        assert sites[0].stats["calls"] == 1
        assert outputs_identical(r1, r2)

    def test_guard_fast_path_when_no_aliasing(self):
        src = """
void sm(int n, double *out, double *in) {
  for (int i = 1; i < n; i++)
    out[i] = 0.5*in[i-1] + 0.5*in[i+1];
}
void drive(int n, double *a, double *b) {
  sm(n, a, b);
  sm(n, b, a);
}
"""
        rng = np.random.default_rng(13)
        inputs = {"n": 30, "a": rng.uniform(0, 1, 32),
                  "b": rng.uniform(0, 1, 32)}
        w2 = compile_workload("t", src)
        r2 = run_accelerated(w2, "drive", dict(inputs))
        assert r2.api_runtime.all_sites()[0].stats["calls"] == 2

    def test_backends_flag_limits_lowering(self):
        src = """
double s(int n, double *x) {
  double t = 0.0;
  for (int i = 0; i < n; i++) t = t + x[i];
  return t;
}
"""
        x = np.linspace(-1, 1, 50)
        w1 = compile_workload("t", src)
        r1 = run_original(w1, "s", {"n": 50, "x": x})
        # No backend in scope lowers scalar reductions: rejected, intact.
        w2 = compile_workload("t", src)
        r2 = run_accelerated(w2, "s", {"n": 50, "x": x},
                             backends=["blas", "sparse"])
        assert r2.rejected and not r2.api_runtime.all_sites()
        assert outputs_identical(r1, r2)
        # The parallel-cpu fallback contract can lower it alone.
        w3 = compile_workload("t", src)
        r3 = run_accelerated(w3, "s", {"n": 50, "x": x},
                             backends=["parallel-cpu"])
        sites = r3.api_runtime.all_sites()
        assert [s.backend for s in sites] == ["parallel-cpu"]
        assert outputs_identical(r1, r3) or \
            np.allclose(r1.value, r3.value)


# ---------------------------------------------------------------------------
# CLI + benchmark smoke
# ---------------------------------------------------------------------------

class TestCliAndBench:
    def test_list_flag(self, capsys):
        from repro.experiments.harness import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "parallel-cpu" in out and "fft" in out
        assert "Placement strategies" in out
        assert "Execution tiers" in out
        vm_line = next(line for line in out.splitlines()
                       if line.strip().startswith("vm "))
        assert "(default)" not in vm_line
        jit_line = next(line for line in out.splitlines()
                        if line.strip().startswith("jit "))
        assert "profile-guided" in jit_line
        assert "(default)" in jit_line

    def test_bench_offload_invariants_on_subset(self):
        from repro.experiments.bench_offload import (
            check_invariants,
            run_benchmark,
        )

        result = run_benchmark(["spmv", "histo"])
        assert check_invariants(result) == []
        rows = result["workloads"]
        assert rows["spmv"]["planner_ms"] <= rows["spmv"]["greedy_ms"]
        assert rows["histo"]["engines_bit_identical"]

    def test_placement_experiment(self):
        from repro.experiments import harness

        ev = harness.evaluate_workload(
            [w for w in __import__("repro.workloads", fromlist=["x"])
             .all_workloads() if w.name == "spmv"][0])
        greedy, planner = harness.workload_plans(ev, "beam")
        assert planner.total_s <= greedy.total_s * (1 + 1e-12)
        assert planner.placed and planner.placed[0].placement.api.name


# ---------------------------------------------------------------------------
# Multi-request (contention-aware) placement
# ---------------------------------------------------------------------------

class TestConcurrentPlacement:
    @staticmethod
    def _requests(n, host_seconds=0.01):
        requests = []
        for _ in range(n):
            runtime, events = _synthetic_runtime()
            requests.append(PlacementRequest(
                runtime.all_sites(), events, host_seconds=host_seconds))
        return requests

    def test_evaluate_concurrent_is_deterministic(self):
        requests = self._requests(3)
        assignments = [plan_module(r.sites, r.events,
                                   host_seconds=r.host_seconds).assignment()
                       for r in requests]
        a = evaluate_concurrent(requests, assignments)
        b = evaluate_concurrent(requests, assignments)
        assert a.completions == b.completions
        assert a.wait_s == b.wait_s
        assert a.sum_completion_s == b.sum_completion_s

    def test_shared_device_serialises(self):
        """Identical single-site requests pinned on one device queue up:
        each later tenant waits at least as long as the one before it."""
        lift = API_DESCRIPTORS["Lift"]
        requests = []
        for _ in range(4):
            runtime = ApiRuntime()
            site = runtime.new_site("Stencil1D", "stencil",
                                    lambda args, engine: None)
            site.stats = {"calls": 1, "elements": 1e6,
                          "flops_per_element": 4, "bytes": 8e6}
            requests.append(PlacementRequest([site]))
        assignments = [{0: SitePlacement(lift, GPU)} for _ in requests]
        plan = evaluate_concurrent(requests, assignments)
        assert plan.wait_s[0] == 0.0
        for earlier, later in zip(plan.wait_s, plan.wait_s[1:]):
            assert later >= earlier
        assert plan.wait_s[-1] > 0.0
        assert sorted(plan.completions) == plan.completions
        # The same work spread across cpu copies shares nothing.
        omp = {0: SitePlacement(OPENMP_RT, CPU)}
        spread = evaluate_concurrent(requests, [omp] * len(requests))
        assert spread.wait_s == [0.0] * len(requests)

    def test_joint_never_worse_than_independent(self):
        requests = self._requests(4)
        independent = [plan_module(r.sites, r.events,
                                   host_seconds=r.host_seconds).assignment()
                       for r in requests]
        solo = evaluate_concurrent(requests, independent)
        joint = plan_concurrent(requests, independent=independent)
        assert joint.strategy == "joint"
        assert joint.sum_completion_s <= \
            solo.sum_completion_s * (1 + 1e-12)
        assert len(joint.assignments) == len(requests)
        assert joint.makespan_s <= solo.makespan_s * (1 + 1e-9) or \
            joint.sum_completion_s < solo.sum_completion_s

    def test_joint_spreads_contended_tenants(self):
        """When every tenant's solo-optimal device is the same one, the
        joint planner moves someone: under contention the batch finishes
        strictly sooner than everyone-queues-for-their-favourite."""
        lift = API_DESCRIPTORS["Lift"]
        requests = []
        for _ in range(6):
            runtime = ApiRuntime()
            site = runtime.new_site("Stencil1D", "stencil",
                                    lambda args, engine: None)
            site.stats = {"calls": 8, "elements": 4e6,
                          "flops_per_element": 40, "bytes": 32e6}
            requests.append(PlacementRequest([site]))
        pinned = [{0: SitePlacement(lift, GPU)} for _ in requests]
        queued = evaluate_concurrent(requests, pinned)
        joint = plan_concurrent(requests)
        assert joint.sum_completion_s <= queued.sum_completion_s
        locations = {loc for i in range(len(requests))
                     for loc in joint.locations(i).values()}
        if joint.sum_completion_s < queued.sum_completion_s:
            assert len(locations) > 1  # actually spread out

    def test_mismatched_lengths_rejected(self):
        requests = self._requests(2)
        with pytest.raises(PlacementError):
            evaluate_concurrent(requests, [{}])
