"""Tests for compiled execution plans, SolverStats/SolveLimits threading,
and the parallel DetectionSession (plan → execute → schedule stack)."""

import pytest

from repro.analysis.info import FunctionAnalyses
from repro.errors import IDLError
from repro.frontend import compile_c
from repro.idioms import (
    DETECTOR_LIMITS,
    DetectionSession,
    IdiomDetector,
    TOP_LEVEL_IDIOMS,
    load_library,
)
from repro.idioms.oracle import PerIdiomDetector
from repro.idl import (
    AndPlan,
    CollectPlan,
    IdiomCompiler,
    LMemo,
    OrPlan,
    SolveLimits,
    value_key,
)
from repro.idl.atoms import COST_NOT_READY
from repro.idl.plan import COST_MEMO
from repro.passes import optimize
from repro.workloads import all_workloads

#: Small functions that exercise every top-level idiom class.
SNIPPETS = {
    "reduction": """
double f(int n, double *a) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += a[i] * 2.0;
  return s;
}
""",
    "histogram": """
void f(int n, double *x, double *q) {
  for (int i = 0; i < n; i++) {
    int b = (int) x[i];
    q[b] = q[b] + 1.0;
  }
}
""",
    "spmv": """
void f(int m, double *a, int *rs, int *ci, double *z, double *r) {
  for (int j = 0; j < m; j++) {
    double d = 0.0;
    for (int k = rs[j]; k < rs[j+1]; k++)
      d = d + a[k] * z[ci[k]];
    r[j] = d;
  }
}
""",
    "gemm": """
void f(int n, double *a, double *b, double *c) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++) {
      double s = 0.0;
      for (int k = 0; k < n; k++)
        s = s + a[i + k*n] * b[j + k*n];
      c[i + j*n] = s;
    }
}
""",
    "stencil": """
void f(int n, double *in, double *out) {
  for (int i = 1; i < n - 1; i++)
    out[i] = (in[i-1] + in[i+1]) * 0.5;
}
""",
}


def compiled(src, name="m"):
    m = compile_c(src, name)
    optimize(m)
    return m


def solution_keys(solutions):
    return {tuple((k, value_key(v)) for k, v in sorted(sol.items()))
            for sol in solutions}


# The shared bit-identity digest (re-exported for test_forest's import).
from repro.idioms import report_fingerprint  # noqa: E402


@pytest.fixture(scope="module")
def library_compilers():
    plan = IdiomCompiler()
    load_library(plan)
    legacy = IdiomCompiler(memo_specs=frozenset())
    load_library(legacy)
    return plan, legacy


class TestPlanCompilation:
    @pytest.mark.parametrize("snippet", sorted(SNIPPETS))
    def test_plan_matches_dynamic_order_results(self, snippet,
                                                library_compilers):
        """Plan-driven solving enumerates the same solution sets as the
        seed's dynamic ordering, for every library idiom."""
        plan_idl, legacy_idl = library_compilers
        module = compiled(SNIPPETS[snippet])
        for function in module.functions.values():
            for idiom in TOP_LEVEL_IDIOMS:
                fast = plan_idl.match(function, idiom)
                seed = legacy_idl.match(function, idiom,
                                        ordering="dynamic", indexed=False)
                assert solution_keys(fast) == solution_keys(seed), \
                    f"{idiom} diverged on snippet {snippet}"

    def test_plan_shape_for_reduction(self, library_compilers):
        """The compiled plan is an ordered conjunction: the memoized For
        reference leads, every step is statically ready, and the collect
        carries a nested body sub-plan."""
        plan_idl, _ = library_compilers
        plan = plan_idl.plan_for("Reduction")
        assert isinstance(plan, AndPlan)
        assert all(s.cost < COST_NOT_READY for s in plan.steps)
        assert isinstance(plan.steps[0].node, LMemo)
        assert plan.steps[0].cost == COST_MEMO
        collects = [s for s in plan.steps if isinstance(s, CollectPlan)]
        assert collects and collects[0].body is not None
        # Costs never jump straight to a scan before any generator ran.
        assert plan.steps[1].cost <= plan.steps[0].cost or \
            plan.steps[1].cost < COST_NOT_READY

    def test_or_branches_get_sub_plans(self, library_compilers):
        plan_idl, _ = library_compilers
        plan = plan_idl.plan_for("VectorRead")
        assert isinstance(plan, OrPlan)
        assert len(plan.branches) == 3
        assert all(isinstance(b, AndPlan) for b in plan.branches)

    def test_plan_is_cached(self, library_compilers):
        plan_idl, _ = library_compilers
        assert plan_idl.plan_for("Reduction") is \
            plan_idl.plan_for("Reduction")

    def test_memoized_for_solved_once_per_function(self):
        """All seven idioms share one cached For solution set (per-idiom
        plan mode: every feasible idiom replays the same memo entry)."""
        function = compiled(SNIPPETS["reduction"]).functions["f"]
        analyses = FunctionAnalyses(function)
        matches, stats = PerIdiomDetector().detect_function_with_stats(
            function, analyses)
        assert [m.idiom for m in matches] == ["Reduction"]
        assert "For()" in analyses.memo_solutions
        assert stats.memo_misses == 1
        assert stats.memo_hits >= len(TOP_LEVEL_IDIOMS) - 1

    def test_forest_skips_infeasible_idioms_entirely(self):
        """Forest mode solves only feasible idioms: the reduction snippet
        has no store, so every idiom but Reduction is skipped before the
        solver runs — same matches, fewer memo replays."""
        function = compiled(SNIPPETS["reduction"]).functions["f"]
        analyses = FunctionAnalyses(function)
        matches, stats = IdiomDetector().detect_function_with_stats(
            function, analyses)
        assert [m.idiom for m in matches] == ["Reduction"]
        assert stats.feasibility_skips == len(TOP_LEVEL_IDIOMS) - 1
        assert stats.memo_misses == 1
        assert analyses.subquery_cache

    def test_plan_reduces_search_steps(self):
        module = compiled(SNIPPETS["spmv"])
        fast = IdiomDetector().detect(module)
        seed = PerIdiomDetector.seed().detect(module)
        assert fast.by_idiom() == seed.by_idiom()
        assert fast.stats.ticks * 2 <= seed.stats.ticks


class TestSolverStats:
    def test_stuck_branch_counted(self):
        idl = IdiomCompiler()
        idl.load("""
Constraint Unsolvable
( {a} is add instruction and
  {b} is not the same as {a} )
End
""")
        module = compiled("int f(int a, int b) { return a + b; }")
        function = module.get_function("f")
        solutions, stats = idl.match_with_stats(function, "Unsolvable")
        assert solutions == []
        assert stats.stuck_branches > 0

    def test_stats_surfaced_through_matches_and_report(self):
        module = compiled(SNIPPETS["histogram"])
        report = IdiomDetector().detect(module)
        assert report.total() == 1
        assert report.stats.ticks > 0
        for match in report.matches:
            assert match.stats is not None and match.stats.ticks > 0
        # The report aggregates all solves, not just the matching ones.
        assert report.stats.ticks > max(m.stats.ticks
                                        for m in report.matches) - 1

    def test_step_budget_enforced(self):
        module = compiled(SNIPPETS["gemm"])
        detector = IdiomDetector(limits=SolveLimits(max_steps=10))
        with pytest.raises(IDLError, match="exceeded"):
            detector.detect(module)


class TestSolveLimits:
    def test_detector_defaults_to_shared_config(self):
        detector = IdiomDetector()
        assert detector.limits == DETECTOR_LIMITS
        assert detector.max_solutions == DETECTOR_LIMITS.max_solutions

    def test_max_solutions_forwarded_to_solver(self):
        idl = IdiomCompiler()
        idl.load("Constraint AnyMul ( {m} is mul instruction ) End")
        module = compiled("int f(int a) { return (a*2) * (a*3) * (a*4); }")
        function = module.get_function("f")
        everything = idl.match(function, "AnyMul")
        capped = idl.match(function, "AnyMul",
                           limits=SolveLimits(max_solutions=2))
        assert len(everything) > 2
        assert len(capped) == 2

    def test_override_helper(self):
        limits = SolveLimits().with_overrides(max_solutions=7)
        assert limits.max_solutions == 7
        assert limits.max_steps == SolveLimits().max_steps


@pytest.fixture(scope="module")
def suite_modules():
    """Every NAS + Parboil workload, compiled once for this test module."""
    return {w.name: compiled(w.source, w.name) for w in all_workloads()}


class TestDetectionSession:
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()])
    def test_parallel_equals_sequential(self, name, suite_modules):
        """Two tenants submitting the same module in parallel share one
        batch (``detect_many``: each function solved once, then replayed
        for the second copy), and each gets the DetectionReport a
        sequential ``detect`` gives (same matches, same merge order,
        same stats) on every NAS + Parboil workload."""
        module = suite_modules[name]
        detector = IdiomDetector()
        sequential = DetectionSession(detector).detect(module)
        session = DetectionSession(detector)
        parallel = session.detect_many([module, module])
        for report in parallel:
            assert report_fingerprint(report, by_identity=False) == \
                report_fingerprint(sequential, by_identity=False)
            assert report.stats == sequential.stats
        functions = sum(1 for f in module.functions.values()
                        if not f.is_declaration())
        counts = session.counts()
        assert (counts["solved"], counts["dedupe-hit"]) == \
            (functions, functions)
