"""Registry, residency planner, runtime tracker, and rejection paths."""

import hashlib
import json
import pickle
from pathlib import Path

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
from repro.platform import CPU, GPU, MACHINES, read_profile_json
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
from repro.workloads import dominant_workloads


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
# CLI + experiment smoke
# ---------------------------------------------------------------------------

class TestCliAndBench:
    def test_list_flag(self, capsys):
        from repro.experiments.harness import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "parallel-cpu" in out and "fft" in out
        assert "Workloads" in out and "Experiments: table1" in out

    def test_placement_experiment(self):
        from repro.experiments import harness

        ev = harness.evaluate_workload(
            [w for w in __import__("repro.workloads", fromlist=["x"])
             .all_workloads() if w.name == "spmv"][0])
        greedy, planner = harness.workload_plans(ev)
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


# ---------------------------------------------------------------------------
# Calibrated multi-tenant placement over the dominant suite
# ---------------------------------------------------------------------------

#: The checked-in calibration profile: with it every cost below is a
#: deterministic simulation, so the bounds hold on any machine.
DEFAULT_PROFILE = Path(__file__).resolve().parents[1] / "profiles" / \
    "default.json"
#: Concurrent copies of each workload contending for the accelerators.
TENANTS = 6


def _strictly_less(better: float, worse: float) -> bool:
    return better < worse * (1.0 - 1e-12) - 1e-15


class TestCalibratedPlacement:
    def test_joint_beats_greedy_and_independent_on_the_suite(self):
        """Joint placement of six tenants per dominant workload, against
        every tenant on the static per-site greedy plan (queued on the
        shared devices) and against every tenant on its solo plan: never
        worse than either per workload; across the suite, strictly
        better than greedy on at least 7 of 10 workloads, at least
        1.15x faster, and strictly better than independent. The chosen
        placement never changes the numerics."""
        from repro.experiments import harness

        profile = read_profile_json(str(DEFAULT_PROFILE), strict=True)
        totals = {"greedy": 0.0, "independent": 0.0, "joint": 0.0}
        strict_wins = 0
        for workload in dominant_workloads():
            ev = harness.evaluate_workload(workload)
            assert ev.outputs_equal, workload.name
            greedy, planner = harness.workload_plans(ev, profile)
            requests = [
                PlacementRequest(ev.sites, ev.events,
                                 host_seconds=ev.uncovered_seconds_with(
                                     profile),
                                 scale=workload.paper_scale,
                                 greedy_lazy=workload.name in
                                 harness.LAZY_BENCHMARKS,
                                 label=f"{workload.name}#{i}")
                for i in range(TENANTS)]
            solo = [planner.assignment() for _ in requests]
            plans = {
                "greedy": evaluate_concurrent(
                    requests, [greedy.assignment() for _ in requests],
                    profile=profile, strategy="greedy"),
                "independent": evaluate_concurrent(
                    requests, solo, profile=profile,
                    strategy="independent"),
                "joint": plan_concurrent(requests, profile=profile,
                                         independent=solo),
            }
            seconds = {name: plan.sum_completion_s
                       for name, plan in plans.items()}
            assert seconds["joint"] <= seconds["greedy"] * (1 + 1e-9), \
                workload.name
            assert seconds["joint"] <= \
                seconds["independent"] * (1 + 1e-9), workload.name
            strict_wins += _strictly_less(seconds["joint"],
                                          seconds["greedy"])
            for name in totals:
                totals[name] += seconds[name]

            locations = plans["joint"].locations(0)
            runs = [run_accelerated(
                compile_workload(workload.name, workload.source,
                                 verify=False),
                workload.entry, workload.make_inputs(1), engine=engine,
                placement=locations) for engine in ("vm", "reference")]
            assert outputs_identical(*runs), workload.name
        assert strict_wins >= 7
        assert totals["greedy"] / totals["joint"] >= 1.15
        assert _strictly_less(totals["joint"], totals["independent"])


# ---------------------------------------------------------------------------
# Golden plans: every plan the planner returns, pinned bit for bit
# ---------------------------------------------------------------------------

#: Pairs of dominant workloads planned jointly, and one 4-request batch.
GOLDEN_PAIRS = (("CG", "EP"), ("EP", "IS"), ("IS", "MG"), ("MG", "histo"),
                ("histo", "lbm"), ("lbm", "sgemm"), ("sgemm", "spmv"),
                ("spmv", "stencil"), ("stencil", "tpacf"), ("tpacf", "CG"))
GOLDEN_BATCH = ("CG", "sgemm", "tpacf", "IS")


def _digest(plan) -> str:
    text = json.dumps(plan.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_digests() -> dict:
    """sha256 of ``as_dict()`` for every golden plan, by name."""
    from repro.experiments import harness

    profiles = {"none": None,
                "default": read_profile_json(str(DEFAULT_PROFILE),
                                             strict=True)}
    evals = {w.name: harness.evaluate_workload(w)
             for w in dominant_workloads()}
    digests = {}
    for name, ev in evals.items():
        for label, profile in profiles.items():
            for strategy in ("greedy", "beam", "exhaustive"):
                plan = plan_module(
                    ev.sites, ev.events, strategy=strategy,
                    host_seconds=ev.uncovered_seconds_with(profile),
                    scale=ev.workload.paper_scale,
                    greedy_lazy=name in harness.LAZY_BENCHMARKS,
                    events_overflowed=ev.events_overflowed,
                    profile=profile)
                # A plan that leaves a call site unassigned fails the
                # daemon's clients, whatever its digest.
                assert [p.site.call_id for p in plan.placed] == \
                    sorted(s.call_id for s in ev.sites if s.kind == "call")
                digests[f"{name}/{strategy}/{label}"] = _digest(plan)

    def request(name):
        ev = evals[name]
        return PlacementRequest(ev.sites, ev.events,
                                host_seconds=ev.uncovered_seconds,
                                scale=ev.workload.paper_scale,
                                greedy_lazy=name in harness.LAZY_BENCHMARKS,
                                label=name)

    groups = [(name,) for name in evals] + list(GOLDEN_PAIRS) + \
        [GOLDEN_BATCH]
    for group in groups:
        requests = [request(name) for name in group]
        plan = plan_concurrent(requests)
        for req, assignment in zip(requests, plan.assignments):
            assert set(assignment) == {s.call_id for s in req.call_sites()}
        digests["joint/" + "+".join(group)] = _digest(plan)
    return digests


#: Recorded before the planner memoised anything; every float repr in
#: every plan must match.
GOLDEN_PLANS = {
    "CG/greedy/none":
        "1cad437f5f64df4aa0b238656549321c1705c62f6c5b2abbaee089314d25552f",
    "CG/beam/none":
        "46e56184238bd83e11f3d58b6a2aaaf558f9948a3aeea0027e354adb8baa6547",
    "CG/exhaustive/none":
        "46e56184238bd83e11f3d58b6a2aaaf558f9948a3aeea0027e354adb8baa6547",
    "CG/greedy/default":
        "d0ee20648e1b4eda3d36206bf99f0953542c7feb709ec3eeae73f396f4bc2094",
    "CG/beam/default":
        "141d0ef64ec79e3d9ecefc97ba71b741a30752f6901c0062cfffac4eb9f28bbd",
    "CG/exhaustive/default":
        "141d0ef64ec79e3d9ecefc97ba71b741a30752f6901c0062cfffac4eb9f28bbd",
    "EP/greedy/none":
        "d2bb632bedfda36c8e39cb50e8e87f49f40fca9784666aeb105b7a13ea08c87e",
    "EP/beam/none":
        "72244ce8937d3b26bc152d657e732f7291b685389f73c3182c3cb7f337eca4ed",
    "EP/exhaustive/none":
        "478155b35d77f5e0363bf5a107a8a52048af0da55ff2fbd7515d180d289b0790",
    "EP/greedy/default":
        "a21d210f9a350d2a13e886c22aa96ef65d89548b87e8ee8c75685c6df9d4d07c",
    "EP/beam/default":
        "107a5445305b255a405dd29f4d50f001ec1f8ae5dedfeb38b8c257e9bb93535d",
    "EP/exhaustive/default":
        "119b5f347947bda894d761a4046048635570d20d36fbc763235b49319c702475",
    "IS/greedy/none":
        "523847de755959cf173cee4f358aa1de4902b4440837d75ffb92cd2df05c8037",
    "IS/beam/none":
        "e6a9e58c09d2ed5d4fe5186e97f11b9f168cc8c51fdbe94da2849c6a28a9a309",
    "IS/exhaustive/none":
        "96cbe61587d9a34c93f6769c9d57838a24a25cf7129be808cd897c667ccd14fb",
    "IS/greedy/default":
        "bc1d14817a56725b267bd3625d65d9685980479efaa70449fdb01319a3d9a12b",
    "IS/beam/default":
        "df2a8abc0d6c672816bedd59584af36da655ba58b70a762ce5abd973f1d6add8",
    "IS/exhaustive/default":
        "348cbe83c6ea13e19bb2541a2122edc83910d364141a158fb01a4cb60a432942",
    "MG/greedy/none":
        "5a4ac1888a7b765eb4a30c5391f03712ea9eb938a39bf7ebd0e332f408fc57a3",
    "MG/beam/none":
        "4d2e0116c1fb7914b583cb73663517f424d7d9e24ea4065fc119704ba43bc51b",
    "MG/exhaustive/none":
        "4d2e0116c1fb7914b583cb73663517f424d7d9e24ea4065fc119704ba43bc51b",
    "MG/greedy/default":
        "48c353714d7a7a6529aacb2f0cea45ff4c23fa0a9be9ce7da1737c7429be9914",
    "MG/beam/default":
        "b0051f6fc682b0f6c36d21d1d72bd044aa725afa3dbd3d9aa9523a3c1b43c8dd",
    "MG/exhaustive/default":
        "b0051f6fc682b0f6c36d21d1d72bd044aa725afa3dbd3d9aa9523a3c1b43c8dd",
    "histo/greedy/none":
        "ebb0a5e2b750f35356aaa3e94e4171a23d4be5ca0b61789d6d9baeb76d1e7eda",
    "histo/beam/none":
        "9b459f1df7152b3693ad7ab0375f8093aeba322f3ccbdaa04820420760d1e294",
    "histo/exhaustive/none":
        "8199d7da7f06292f2bfcd3503131ad3addf1494cd4afa2b063412fda81811af3",
    "histo/greedy/default":
        "9cfb228afb8d9a228253afccee150ce6c315a541e135e1537afbd2d4a12de7dd",
    "histo/beam/default":
        "7f3a8b4c9fc71f4e5789242b7205fff1244f7adc5c1f83ce716b9beb3b1a0190",
    "histo/exhaustive/default":
        "8046fe9d9102b57296bbf9cb8124112eb71a3ad6decf80451ccdfc5d910ef4f7",
    "lbm/greedy/none":
        "8150d09655821dc78ab4b03fdc197c820397a2afe91033bedf9fa5a559a929f2",
    "lbm/beam/none":
        "d08b58c57c8d88b4c23fb0d3bf596c091ade8a6b0aaba5c0e3a7955313e23baf",
    "lbm/exhaustive/none":
        "1b59abf000927f9f9c05bbc777c77343946d45f6dc3f47a4ddba0e67aa22c0a1",
    "lbm/greedy/default":
        "9396a1bffe5276aacdbdfbc911eae436a23469ca8f92503b3c794e1e70b3830c",
    "lbm/beam/default":
        "917c66de0a01afef18f2f97a9131630f4258ead0276b59f4729577bff4e3a00c",
    "lbm/exhaustive/default":
        "fa9f10395809508f62fbe2162595ddf5a615435cedca685b878e4d45df002e0c",
    "sgemm/greedy/none":
        "d7bb71be1812d5de1047e2bd0b0f17db24fb01aba6f84501ed03db5ab6587100",
    "sgemm/beam/none":
        "f2d22607f7c324c7f73cf9c4dc48762524960bf2808fc0fe6c7224629bc3bbbb",
    "sgemm/exhaustive/none":
        "08de03e740cff53c592915edbbf3a0fe5f14c69b5b2100ff0016d80e2e996890",
    "sgemm/greedy/default":
        "0a2f50ae537d327e0b77b5ba70dcb6d79e99c14d109c2456e53e8dd50e47ec33",
    "sgemm/beam/default":
        "e84b96aeb96a7c7c4bd68eafed55f3a565136838ddd23309b53c2cd226dabd1a",
    "sgemm/exhaustive/default":
        "70639e6c9b07f1580e7f7a30317df028de200386453c3dedf838b1c599fb9e69",
    "spmv/greedy/none":
        "100e7db9865f3b6ad1cb7040fa903f68678545572fcd846304d502247d98ce75",
    "spmv/beam/none":
        "dccc0cb742edf71bba080b5022e4252c65b1a8fdfbb469422ed8f444281b656a",
    "spmv/exhaustive/none":
        "3b1b64b499f8d33838837e2c097a6d98ef302faca49a8955deea123f466b85b9",
    "spmv/greedy/default":
        "ef85474ea79052b247a595211255ed37918cf7388c826ceff13163b84436a647",
    "spmv/beam/default":
        "b76d9d190103aad61249c19eb85d995429477a1256ea4b27e4376e330ad058bb",
    "spmv/exhaustive/default":
        "6b51d6c0b8c3c5eb8b7200a6aae6c1913e1153c3f7d181250a93f5a475d955b5",
    "stencil/greedy/none":
        "593dbe70a55037f78e1f5e3d081359c5a3a6300c371cc96f894277459933b30f",
    "stencil/beam/none":
        "c737f4309f978c1f3a17abd3c3375ebf5c66d5c675fe131e80afe8d967c94889",
    "stencil/exhaustive/none":
        "f7982e8a662a5be28e8d759f2b912b902145e54f86466bb504475f9fad1546df",
    "stencil/greedy/default":
        "99b842f47734f5f8934fda0e3ea5f3b9ea6ad85aaf0d6da6c987d83e5e607c6b",
    "stencil/beam/default":
        "9b9a127a981b42b667747a9ad7cf18a03e7dc2511b7590116006353ea7923542",
    "stencil/exhaustive/default":
        "ab44e0736528663562197d98a0727dcd1a437403b91ae0b639a5212d54b0b34c",
    "tpacf/greedy/none":
        "20fecb3af4c00b8a41ff655d98c0f58a1b1dc1317681629a2c82a43f343a2005",
    "tpacf/beam/none":
        "1d3dff4ee0ab01966a5d1ab074020e4f63f71e92d2a05dcc4d6d44c804698222",
    "tpacf/exhaustive/none":
        "1def43a4df9210415544c9c17c3967153e35a1eb664e3005e07d426f97d312dd",
    "tpacf/greedy/default":
        "d60f2916bd6dc5c8c42f3bedb4f0ccd13db863ffdf9b0d96b43a330a04713a1b",
    "tpacf/beam/default":
        "056e237bba63a602ec528d2184a958b010f854f3ca9002292ad52fdb0c6c8d53",
    "tpacf/exhaustive/default":
        "0f2930279a593d1bf21cfa79826fc33d6008e68f7258a9e7dc336e72f08568bd",
    "joint/CG":
        "6ab99b43d232f4619e6087877ef4ce35cafa9f5254f694db2cf91cd94f97e00f",
    "joint/EP":
        "4316f52aff434beb9c79e1766ef914ec055d9550883127ea7183fc39a4b72bc5",
    "joint/IS":
        "068a15af691e83219f2826469898a5d62fb68a4982be55d32b302c8386b8f9f9",
    "joint/MG":
        "77d1eabd3bc035f866280d097c61d5203e36a69817f49e5effcbbbf2026c6868",
    "joint/histo":
        "e616a878e23f63a5fc8cb74c014e61af49938b78c4199408b4171a3bf493e0ae",
    "joint/lbm":
        "4b1eb4487c8dbe8e608b4e2f89157321577cfee5e342f59d65b351cab5f9fd26",
    "joint/sgemm":
        "aa033957266fff8c9d8044db8a47e8af567d3886eb6ec3abc3743cf6fa300999",
    "joint/spmv":
        "23e2f806c50c3f838a7b5f13596d9ba97e300c89993294a25175eb644ec6f200",
    "joint/stencil":
        "e56b4ce0183628452efe129ea5ba6941f417316d531bc16dcda273f731380080",
    "joint/tpacf":
        "ee398a365f6eb6fd14923499bdfabe709c7e9ad46b812b661e631f7f60a63579",
    "joint/CG+EP":
        "69ba657fb95aff471229509ab76ad23f0351c21225d03f48d533f135cc2f1a5a",
    "joint/EP+IS":
        "e8cc2d545bcaf07764cf8d65dfa8661f9d053cb9ac33c5793f869465f69b9112",
    "joint/IS+MG":
        "c35af7ea78e748094819a766abf7ee09eab87600cdeedae25f58be8b7c20cb1a",
    "joint/MG+histo":
        "45c647d2e704c39eeb8aeb0245d37104c103af5227eae15d5127b2801f89603f",
    "joint/histo+lbm":
        "a889d2bc0f052e1c14586ac56227204c6a4f7df4c4b5d00d8b1c11aa6c6c9670",
    "joint/lbm+sgemm":
        "6843a7141f5b4545321566088e575643cc3a5b4a6419da5f8f024ce6451b96b2",
    "joint/sgemm+spmv":
        "2eefdeed1c805f2859135e2b6ff48ff6bcad745aa4c8cc80bd43c87a4f8ae8d9",
    "joint/spmv+stencil":
        "79c936f41fe8ba34d999ebf7591d326973070f871286a6055ec5e6582fd459f0",
    "joint/stencil+tpacf":
        "4edf5e4fed6f78aab592ef6fe65e419e38e3dbc34ec9e71c77733712379b28bb",
    "joint/tpacf+CG":
        "6b581f834ae50240bdef264a5b27a9fc3b88a23312d9b96b18e7e0640c4590f8",
    "joint/CG+sgemm+tpacf+IS":
        "34d751c94f9b7e79595e57544213393d541492811489c312a4bc8b4bf6833571",
}


class TestGoldenPlans:
    def test_plans_are_pinned(self):
        digests = _golden_digests()
        assert sorted(digests) == sorted(GOLDEN_PLANS)
        changed = [name for name in digests
                   if digests[name] != GOLDEN_PLANS[name]]
        assert not changed, changed


class TestPlannerEffort:
    """One planner call replays the residency state machine once per
    distinct placement of its sites in memories, and builds each
    request's schedule once per distinct assignment of that request."""

    @staticmethod
    def _counted(monkeypatch) -> dict:
        from repro.platform import placement

        seen = {"states": 0, "replays": [], "builds": []}

        class CountingState(placement.ResidencyState):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                seen["states"] += 1

        monkeypatch.setattr(placement, "ResidencyState", CountingState)
        for owner in (placement._Replay, placement._RequestModel):
            def move(self, locations, real=owner._move):
                seen["replays"].append((self, locations))
                return real(self, locations)
            monkeypatch.setattr(owner, "_move", move)

        def build(self, choice, real=placement._RequestModel._build):
            seen["builds"].append((self, choice))
            return real(self, choice)
        monkeypatch.setattr(placement._RequestModel, "_build", build)
        return seen

    @staticmethod
    def _distinct(pairs: list) -> int:
        # The owners stay alive in ``pairs``, so their ids are unique.
        return len({(id(owner), key) for owner, key in pairs})

    @staticmethod
    def _request(name: str) -> PlacementRequest:
        from repro.experiments import harness

        [workload] = [w for w in dominant_workloads() if w.name == name]
        ev = harness.evaluate_workload(workload)
        return PlacementRequest(ev.sites, ev.events,
                                host_seconds=ev.uncovered_seconds,
                                scale=workload.paper_scale, label=name)

    def test_plan_module_replays_each_placement_once(self, monkeypatch):
        cg = self._request("CG")
        sites = cg.call_sites()
        seen = self._counted(monkeypatch)
        plan_module(cg.sites, cg.events, host_seconds=cg.host_seconds,
                    scale=cg.scale)
        replays = seen["replays"]
        assert seen["states"] == len(replays) == self._distinct(replays)
        # One replay object per beam step, plus the full log's.
        assert len({id(owner) for owner, _ in replays}) == len(sites) + 1
        # 448 full evaluate_assignment calls before replays were shared.
        assert len(replays) == 121

    def test_plan_concurrent_builds_each_schedule_once(self, monkeypatch):
        requests = [self._request(name) for name in ("CG", "EP")]
        independent = [plan_module(r.sites, r.events,
                                   host_seconds=r.host_seconds,
                                   scale=r.scale).assignment()
                       for r in requests]
        seen = self._counted(monkeypatch)
        plan_concurrent(requests, independent=independent)
        builds, replays = seen["builds"], seen["replays"]
        # 218 schedule builds (109 joint evaluations) before the cache.
        assert len(builds) == self._distinct(builds) == 91
        assert seen["states"] == len(replays) == self._distinct(replays)
        assert len(replays) == 42
