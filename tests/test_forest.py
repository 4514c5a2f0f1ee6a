"""Tests for the cross-idiom plan forest: feasibility signatures, prefix
sharing, the shared per-function subquery memo, and bit-identical
equivalence with the per-idiom executors across the whole suite."""

import pytest

from repro.analysis.info import FunctionAnalyses
from repro.errors import IDLError
from repro.frontend import compile_c
from repro.idioms import (
    DetectionSession,
    IdiomDetector,
    TOP_LEVEL_IDIOMS,
    load_library,
)
from repro.idioms.oracle import PerIdiomDetector
from repro.idl import (
    DEFAULT_MAX_STEPS,
    IdiomCompiler,
    SolveLimits,
    SolverStats,
    value_key,
)
from repro.idl.forest import (
    FeasibilitySignature,
    feasibility_signature,
    min_loop_depth,
    required_opcodes,
)
from repro.idl.plan import guaranteed_binds
from repro.passes import optimize
from repro.workloads import all_workloads

from test_plan_scheduler import SNIPPETS, compiled, report_fingerprint


@pytest.fixture(scope="module")
def suite_modules():
    return {w.name: compiled(w.source, w.name) for w in all_workloads()}


@pytest.fixture(scope="module")
def detectors():
    return IdiomDetector().warmup(), PerIdiomDetector().warmup()


# ---------------------------------------------------------------------------
# Equivalence: forest vs per-idiom plan executor, all 21 workloads
# ---------------------------------------------------------------------------

class TestForestEquivalence:
    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_forest_matches_plan_bit_identically(self, name, suite_modules,
                                                 detectors):
        """The forest emits the exact same matches — same solutions, same
        representative witnesses, same order — as per-idiom plan mode."""
        forest, plan = detectors
        module = suite_modules[name]
        forest_report = forest.detect(module)
        plan_report = plan.detect(module)
        assert report_fingerprint(forest_report) == \
            report_fingerprint(plan_report)

    @pytest.mark.parametrize("name", ["CG", "sgemm", "histo", "stencil"])
    def test_forest_matches_dynamic(self, name, suite_modules):
        """Spot check against the seed's dynamic ordering as well."""
        module = suite_modules[name]
        forest_report = IdiomDetector().detect(module)
        dynamic_report = PerIdiomDetector.seed().detect(module)
        assert report_fingerprint(forest_report) == \
            report_fingerprint(dynamic_report)

    def test_forest_respects_max_solutions_like_plan(self):
        """The per-idiom solution cap truncates the same enumeration in
        both executors."""
        module = compiled(SNIPPETS["stencil"])
        for cap in (1, 2):
            forest = IdiomDetector(max_solutions=cap).detect(module)
            plan = PerIdiomDetector(max_solutions=cap).detect(module)
            assert report_fingerprint(forest) == report_fingerprint(plan)


# ---------------------------------------------------------------------------
# Feasibility signatures
# ---------------------------------------------------------------------------

class TestFeasibilitySignatures:
    def test_library_required_opcodes(self, detectors):
        forest, _ = detectors
        trie = forest.compiler.forest_for(tuple(forest.idioms))
        sig = trie.signatures
        # Every loop idiom needs the For building blocks.
        for name in TOP_LEVEL_IDIOMS:
            assert {"phi", "br", "icmp", "add"} <= \
                sig[name].required_opcodes
        assert "fmul" in sig["GEMM"].required_opcodes
        assert "fmul" in sig["SPMV"].required_opcodes
        assert "store" in sig["Histogram"].required_opcodes
        # Reduction reads through a collect (satisfiable by zero reads),
        # so loads are *not* required.
        assert "load" not in sig["Reduction"].required_opcodes

    def test_library_min_loop_depths(self, detectors):
        forest, _ = detectors
        trie = forest.compiler.forest_for(tuple(forest.idioms))
        depths = {name: trie.signatures[name].min_loop_depth
                  for name in TOP_LEVEL_IDIOMS}
        assert depths == {"GEMM": 3, "SPMV": 2, "Stencil3D": 3,
                          "Stencil2D": 2, "Stencil1D": 1,
                          "Histogram": 1, "Reduction": 1}

    def test_idiom_skipped_iff_required_opcode_absent(self):
        """An idiom is skipped exactly when a required opcode is absent:
        present -> solved (and found), absent -> counted as a skip."""
        idl = IdiomCompiler()
        idl.load("""
Constraint NeedsMul
( {m} is mul instruction and
  {a} is first argument of {m} )
End
""")
        with_mul = compiled("int f(int a) { return a * 3; }")
        without_mul = compiled("int f(int a) { return a + 3; }")
        solutions, stats = idl.match_library(
            with_mul.get_function("f"), ["NeedsMul"])
        assert len(solutions["NeedsMul"]) == 1
        assert stats.feasibility_skips == 0
        solutions, stats = idl.match_library(
            without_mul.get_function("f"), ["NeedsMul"])
        assert solutions["NeedsMul"] == []
        assert stats.feasibility_skips == 1

    def test_skipped_idioms_provably_empty_across_suite(self,
                                                       suite_modules,
                                                       detectors):
        """Soundness: every (function, idiom) pair the signatures skip is
        one the per-idiom plan executor finds no solution for."""
        forest, plan = detectors
        trie = forest.compiler.forest_for(tuple(forest.idioms))
        checked = 0
        for name in ("CG", "MG", "sgemm", "lbm", "tpacf"):
            module = suite_modules[name]
            for function in module.functions.values():
                if function.is_declaration():
                    continue
                analyses = FunctionAnalyses(function)
                for idiom in forest.idioms:
                    if trie.signatures[idiom].admits(analyses):
                        continue
                    solutions = plan.compiler.match(
                        function, idiom, analyses=analyses,
                        limits=plan.limits, ordering="plan")
                    assert solutions == [], (name, function.name, idiom)
                    checked += 1
        assert checked > 50  # the filter actually prunes on real code

    def test_loop_depth_prunes_nest_idioms(self):
        """A single loop admits Reduction but not the nest idioms."""
        module = compiled(SNIPPETS["reduction"])
        analyses = FunctionAnalyses(module.get_function("f"))
        assert analyses.max_loop_depth == 1
        forest = IdiomDetector()
        trie = forest.compiler.forest_for(tuple(forest.idioms))
        assert trie.signatures["Reduction"].admits(analyses)
        assert not trie.signatures["GEMM"].admits(analyses)
        assert not trie.signatures["SPMV"].admits(analyses)

    def test_sequential_loops_not_mistaken_for_a_nest(self):
        """Header-to-header dominance does not imply nesting: two
        sequential loops satisfy it, so an idiom constraining only loop
        *headers* must keep min_loop_depth 1 and stay feasible
        (regression: it used to be pruned as depth 2, losing matches
        under forest detection)."""
        idl = IdiomCompiler()
        load_library(idl)
        idl.load("""
Constraint TwoLoops
( inherits For at {a} and
  inherits For at {b} and
  {a.begin} strictly control flow dominates {b.begin} )
End
""")
        assert min_loop_depth(idl.compile("TwoLoops")) == 1
        # The ForNest chain (body entry -> next begin) still counts.
        assert min_loop_depth(idl.compile("ForNest",
                                          params={"N": 3})) == 3
        module = compiled("""
double f(int n, double *x) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s = s + x[i];
  double t = 1.0;
  for (int j = 0; j < n; j++) t = t * x[j];
  return s + t;
}
""")
        function = module.get_function("f")
        forest_sols, stats = idl.match_library(function, ["TwoLoops"])
        plan_sols = idl.match(function, "TwoLoops", ordering="plan")
        assert stats.feasibility_skips == 0
        assert len(forest_sols["TwoLoops"]) == len(plan_sols) > 0

    def test_signature_of_custom_constraint(self):
        idl = IdiomCompiler()
        idl.load("""
Constraint EitherOp
( ( {x} is mul instruction or {x} is add instruction ) and
  {s} is store instruction )
End
""")
        lowered = idl.compile("EitherOp")
        sig = feasibility_signature(lowered)
        # Disjunction contributes only the branch intersection (empty
        # here); the conjunctive store is required.
        assert sig.required_opcodes == frozenset({"store"})
        assert sig.min_loop_depth == 0
        assert required_opcodes(lowered) == frozenset({"store"})
        assert min_loop_depth(lowered) == 0

    def test_admits_checks_opcode_index(self):
        sig = FeasibilitySignature(frozenset({"fmul"}), 0)
        module = compiled("double f(double a) { return a + 1.0; }")
        assert not sig.admits(FunctionAnalyses(module.get_function("f")))


# ---------------------------------------------------------------------------
# Trie structure and the shared subquery memo
# ---------------------------------------------------------------------------

class TestForestStructure:
    def test_prefix_sharing_exists(self, detectors):
        forest, _ = detectors
        trie = forest.compiler.forest_for(tuple(forest.idioms))
        # The identity-For group (Reduction/Histogram/SPMV/Stencil1D) and
        # the ForNest group (GEMM/Stencil3D/Stencil2D) each share a root.
        assert len(trie.roots) < len(TOP_LEVEL_IDIOMS)
        assert trie.shared_steps >= 10
        root_idioms = sorted(tuple(sorted(r.idioms)) for r in trie.roots)
        assert ("GEMM", "Stencil2D", "Stencil3D") in root_idioms
        assert ("Histogram", "Reduction", "SPMV", "Stencil1D") \
            in root_idioms

    def test_statically_ready_steps_skip_runtime_checks(self, detectors):
        """Reduction's whole plan is provably ready (its collect and
        natives consume only guaranteed bindings); Stencil1D constrains a
        collect-produced name, which a run-time readiness check guards."""
        forest, _ = detectors
        trie = forest.compiler.forest_for(tuple(forest.idioms))
        assert all(r.ready for r in trie.step_records["Reduction"])
        assert not all(r.ready for r in trie.step_records["Stencil1D"])

    def test_guaranteed_binds_pessimistic_for_collect(self, detectors):
        forest, _ = detectors
        plan = forest.compiler.plan_for("Reduction")
        collect_steps = [s for s in plan.steps
                         if type(s).__name__ == "CollectPlan"]
        assert collect_steps
        binds = guaranteed_binds(collect_steps[0])
        assert binds and all(b.startswith("#len:") for b in binds)

    def test_subquery_cache_shared_across_idioms(self):
        """A loop that is both a reduction and a histogram: the two
        idioms' structurally identical vector-read collects enumerate
        once for the shared loop context and replay from the
        function-wide subquery cache."""
        module = compiled("""
void f(int n, double *x, double *q) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s = s + x[i];
    int b = (int) x[i];
    q[b] = q[b] + 1.0;
  }
  q[0] = s;
}
""")
        detector = IdiomDetector()
        report = detector.detect(module)
        counts = report.by_idiom()
        assert counts.get("Histogram") == 1 and counts.get("Reduction") == 1
        assert report.stats.subquery_hits > 0
        function = module.functions["f"]
        analyses = FunctionAnalyses(function)
        detector.detect_function_with_stats(function, analyses)
        assert analyses.subquery_cache
        # Same matches as the per-idiom executor, cache or no cache.
        plan_report = PerIdiomDetector().detect(module)
        assert report_fingerprint(report) == report_fingerprint(plan_report)

    def test_renamed_collects_share_cache_and_retarget(self):
        """Two idioms whose collect bodies are identical up to the family
        root name share one cache entry; the replay retargets the cached
        instances into the second site's names (regression: the replay
        used to return the first site's names, silently binding
        nothing)."""
        idl = IdiomCompiler()
        idl.load("""
Constraint ReadsA
( {anchor} is store instruction and
  collect i 4
  ( {read[i]} is load instruction and
    {read[i].addr} is first argument of {read[i]} ) )
End
Constraint ReadsB
( {anchor} is store instruction and
  collect i 4
  ( {load[i]} is load instruction and
    {load[i].addr} is first argument of {load[i]} ) )
End
""")
        module = compiled("""
void f(double *a, double *b) {
  double x = a[0] + a[1];
  b[0] = x;
}
""")
        function = module.get_function("f")
        forest_sols, stats = idl.match_library(function,
                                               ["ReadsA", "ReadsB"])
        assert stats.subquery_hits > 0  # ReadsB replays ReadsA's collect
        for name in ("ReadsA", "ReadsB"):
            plan_sols = idl.match(function, name, ordering="plan")
            assert [sorted((k, value_key(v)) for k, v in s.items())
                    for s in forest_sols[name]] == \
                [sorted((k, value_key(v)) for k, v in s.items())
                 for s in plan_sols]
        root = "load" if "load[0]" in forest_sols["ReadsB"][0] else None
        assert root == "load"  # the retargeted family name, not read[0]

    def test_match_library_single_idiom_equals_match(self):
        """A one-idiom forest pass agrees with the plan path."""
        idl = IdiomCompiler()
        load_library(idl)
        module = compiled(SNIPPETS["spmv"])
        function = module.get_function("f")
        forest_sols = idl.match_library(function, ["SPMV"])[0]["SPMV"]
        plan_sols = idl.match(function, "SPMV", ordering="plan")
        assert [sorted((k, value_key(v)) for k, v in s.items())
                for s in forest_sols] == \
            [sorted((k, value_key(v)) for k, v in s.items())
             for s in plan_sols]

    def test_unknown_ordering_rejected(self):
        idl = IdiomCompiler()
        load_library(idl)
        function = compiled(SNIPPETS["spmv"]).get_function("f")
        with pytest.raises(IDLError, match="unknown ordering"):
            idl.match(function, "SPMV", ordering="rete")

    def test_forest_budget_scales_with_feasible_idioms(self):
        """The fused pass shares one solver, so its step budget scales by
        the number of feasible idioms: a function whose per-idiom solves
        each fit ``max_steps`` must not trip the forest's cap just
        because their ticks now accumulate in one pass."""
        idl = IdiomCompiler()
        load_library(idl)
        module = compiled(SNIPPETS["gemm"])
        function = module.get_function("f")
        per_idiom = []
        for idiom in TOP_LEVEL_IDIOMS:
            _, stats = idl.match_with_stats(function, idiom,
                                            ordering="plan")
            per_idiom.append(stats.ticks)
        cap = max(per_idiom) + 50
        assert sum(per_idiom) > cap  # the pass outweighs any single solve
        limits = SolveLimits(max_steps=cap)
        solutions, stats = idl.match_library(function, TOP_LEVEL_IDIOMS,
                                             limits=limits)
        assert solutions["GEMM"]
        assert stats.max_steps >= cap * 2  # scaled by feasible idioms


# ---------------------------------------------------------------------------
# Satellites: shared step-cap constant, value_key interning
# ---------------------------------------------------------------------------

class TestSharedStepCap:
    def test_single_default_constant(self):
        assert SolveLimits().max_steps == DEFAULT_MAX_STEPS
        assert SolverStats().max_steps == DEFAULT_MAX_STEPS

    def test_stats_track_new_counters(self):
        stats = SolverStats(feasibility_skips=2, subquery_hits=3)
        merged = SolverStats().merge(stats)
        assert merged.feasibility_skips == 2
        assert merged.subquery_hits == 3
        assert merged.as_dict()["subquery_hits"] == 3


class TestValueKeyInterning:
    def test_constants_keyed_structurally(self):
        module = compiled("int f(int a) { return (a + 7) * (a - 7); }")
        function = module.get_function("f")
        sevens = [op for inst in function.instructions()
                  for op in inst.operands
                  if getattr(op, "value", None) == 7]
        assert len(sevens) >= 2
        assert value_key(sevens[0]) == value_key(sevens[1])

    def test_key_cached_on_value(self):
        module = compiled("int f(int a) { return a + 7; }")
        function = module.get_function("f")
        inst = next(iter(function.instructions()))
        key = value_key(inst)
        assert key == id(inst)
        assert inst._value_key == key
        assert value_key(inst) is inst._value_key or \
            value_key(inst) == inst._value_key


# ---------------------------------------------------------------------------
# One solve configuration on every user path
# ---------------------------------------------------------------------------

class TestKnobCensus:
    KNOBS = {"ordering", "memo", "indexed"}
    #: Detection runs on one thread with no retry ladder.
    CONCURRENCY_KNOBS = {"workers", "dispatchers", "max_retries",
                         "backoff_s"}

    def test_no_solve_knobs_on_user_paths(self):
        """Detection always solves with the forest: no user-facing entry
        point takes an ordering, memo or indexed switch (the per-idiom
        engines are reachable only through repro.idioms.oracle and
        IdiomCompiler.match)."""
        from dataclasses import fields
        from inspect import signature

        from repro.runtime.runner import compile_workload
        from repro.service import ServiceConfig

        surfaces = {
            "IdiomDetector.__init__": signature(IdiomDetector).parameters,
            "IdiomDetector instance": vars(IdiomDetector()),
            "ServiceConfig": {f.name for f in fields(ServiceConfig)},
            "compile_workload": signature(compile_workload).parameters,
        }
        for method in ("compile", "plan_for", "forest_for",
                       "match_library"):
            surfaces[f"IdiomCompiler.{method}"] = \
                signature(getattr(IdiomCompiler, method)).parameters
        for name, params in surfaces.items():
            assert self.KNOBS.isdisjoint(params), name

    def test_ordering_flag_rejected_by_the_clis(self, capsys):
        from repro.experiments import harness
        from repro.service.__main__ import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", "--ordering", "plan"])
        assert "--ordering" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            harness.main(["table1", "--ordering", "plan"])
        assert "--ordering" in capsys.readouterr().err

    def test_no_concurrency_knobs_on_user_paths(self):
        """No detection entry point takes a thread-pool size, a
        dispatcher count or a retry budget."""
        from dataclasses import fields
        from inspect import signature

        from repro.idioms import detect_idioms
        from repro.runtime.runner import compile_workload
        from repro.service import ServiceConfig

        surfaces = {
            "DetectionSession.__init__":
                signature(DetectionSession).parameters,
            "DetectionSession instance": vars(DetectionSession()),
            "IdiomDetector.detect":
                signature(IdiomDetector.detect).parameters,
            "detect_idioms": signature(detect_idioms).parameters,
            "compile_workload": signature(compile_workload).parameters,
            "ServiceConfig": {f.name for f in fields(ServiceConfig)},
        }
        for name, params in surfaces.items():
            assert self.CONCURRENCY_KNOBS.isdisjoint(params), name

    @pytest.mark.parametrize("flag", ["--workers", "--dispatchers",
                                      "--max-retries"])
    def test_concurrency_flags_rejected_by_the_clis(self, flag, capsys):
        from repro.experiments import harness
        from repro.service.__main__ import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", flag, "2"])
        assert flag in capsys.readouterr().err
        with pytest.raises(SystemExit):
            harness.main(["table1", flag, "2"])
        assert flag in capsys.readouterr().err

    def test_service_options_are_the_census_survivors(self):
        """No benchmark, example, CI step or gate chose a store eviction
        policy, a tenant weight, a parse-cache size or a latency window:
        LRU is the only eviction order, every tenant gets one slot per
        drain pass, and the two sizes are module constants."""
        from dataclasses import fields
        from inspect import signature

        import repro.cache
        from repro.cache import ArtifactStore
        from repro.service import ServiceConfig
        from repro.service.core import _TenantState

        assert {f.name for f in fields(ServiceConfig)} == {
            "cache_dir", "budget_bytes", "batch_window_s",
            "max_batch", "deadline_s", "max_pending", "tenant_quota",
            "profile"}
        assert list(signature(ArtifactStore).parameters) == [
            "root", "durable", "budget_bytes"]
        assert "weight" not in _TenantState.__slots__
        assert not hasattr(repro.cache, "EVICTION_POLICIES")
        session = DetectionSession(deadline_s=1.0)
        assert session.deadline_s == 1.0 and not hasattr(session, "policy")

    def test_client_options_are_the_census_survivors(self):
        """No caller set a connect timeout, a backoff cap, a reconnect
        opt-out or a per-tenant latency window: they are constants.
        perfbench sets ``timeout`` and ``max_retries``, tests set
        ``backoff_s``."""
        from inspect import signature

        from repro.service import ServiceClient
        from repro.service.core import _TenantState

        assert list(signature(ServiceClient).parameters) == [
            "host", "port", "timeout", "max_retries", "backoff_s"]
        assert not signature(_TenantState).parameters

    def test_engines_run_one_code_variant(self):
        """Every engine profiles and the JIT always vectorizes: nothing
        passed ``profile`` or ``vectorize``."""
        from inspect import signature

        from repro.runtime.jit import JitVirtualMachine
        from repro.runtime.vm import VirtualMachine

        assert list(signature(VirtualMachine).parameters) == [
            "module", "api_runtime", "max_steps", "seed"]
        assert list(signature(JitVirtualMachine).parameters) == [
            "module", "api_runtime", "max_steps", "seed",
            "jit_threshold", "code_cache"]

    def test_serve_options_are_the_census_survivors(self):
        from repro.service.__main__ import _build_parser

        [subparsers] = [action for action in _build_parser()._actions
                        if action.dest == "command"]
        options = {option for action in subparsers.choices["serve"]._actions
                   for option in action.option_strings}
        assert options == {
            "-h", "--help", "--host", "--port", "--cache-dir",
            "--budget-mb", "--deadline", "--max-pending", "--tenant-quota",
            "--drain-timeout", "--profile"}
