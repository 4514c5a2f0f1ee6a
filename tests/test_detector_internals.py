"""Tests for detector internals: overlap resolution, control
dependence, kernel extraction edge cases."""

import pytest

from repro.analysis import (
    ControlDependence,
    FunctionAnalyses,
    InstructionCFG,
)
from repro.errors import TransformError
from repro.frontend import compile_c
from repro.idioms import detect_idioms
from repro.passes import optimize
from repro.transform import KernelExtractor
from repro.transform.kernels import (
    KBin,
    KConst,
    KParam,
    KSelect,
    match_accumulator_form,
)


def compiled(src):
    m = compile_c(src)
    optimize(m)
    return m


class TestOverlapResolution:
    def test_histogram_and_reduction_coexist_in_one_loop(self):
        """EP's pattern: both idioms in the accept/reject loop count."""
        r = detect_idioms(compiled("""
double f(int n, double *x, double *q) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    double v = x[i];
    if (v > 0.0) {
      int b = (int) (v * 4.0);
      q[b] = q[b] + 1.0;
      s = s + v;
    }
  }
  return s;
}
"""))
        assert r.by_idiom() == {"Histogram": 1, "Reduction": 1}

    def test_spmv_subsumes_only_its_own_accumulator(self):
        """A reduction in a *different* loop of the same function stays."""
        r = detect_idioms(compiled("""
double f(int m, double *a, int *rs, int *ci, double *z, double *r) {
  for (int j = 0; j < m; j++) {
    double d = 0.0;
    for (int k = rs[j]; k < rs[j+1]; k++)
      d = d + a[k] * z[ci[k]];
    r[j] = d;
  }
  double s = 0.0;
  for (int j = 0; j < m; j++) s += r[j];
  return s;
}
"""))
        assert r.by_idiom() == {"SPMV": 1, "Reduction": 1}


class TestSESE:
    def test_control_dependence(self):
        m = compiled("""
int f(int a) {
  int r = 0;
  if (a > 0) r = 1;
  return r + a;
}
""")
        f = m.get_function("f")
        an = FunctionAnalyses(f)
        cd = ControlDependence(an.cfg, an.postdom)
        branch = f.entry.terminator
        then_block = branch.targets()[0]
        guarded = then_block.instructions[0]
        assert cd.depends_on(guarded, branch)
        ret = f.blocks[-1].terminator
        assert not cd.depends_on(ret, branch)


class TestAccumulatorRecogniser:
    def test_sum_form(self):
        expr = KBin("fadd", KParam(1), KBin("fmul", KParam(0), KConst(2.0)))
        kind, delta = match_accumulator_form(expr, acc_param=1)
        assert kind == "sum"
        assert delta == KBin("fmul", KParam(0), KConst(2.0))

    def test_max_form(self):
        from repro.transform.kernels import KCmp

        expr = KSelect(KCmp("ogt", KParam(0), KParam(1)),
                       KParam(0), KParam(1))
        kind, other = match_accumulator_form(expr, acc_param=1)
        assert kind == "max"

    def test_min_form(self):
        from repro.transform.kernels import KCmp

        expr = KSelect(KCmp("olt", KParam(0), KParam(1)),
                       KParam(0), KParam(1))
        kind, _ = match_accumulator_form(expr, acc_param=1)
        assert kind == "min"

    def test_non_fold_rejected(self):
        # acc appears inside the delta: acc + acc*x is not a plain fold.
        expr = KBin("fadd", KParam(1), KBin("fmul", KParam(1), KParam(0)))
        assert match_accumulator_form(expr, acc_param=1) is None


class TestKernelExtraction:
    def test_conditional_kernel_if_converted(self):
        m = compiled("""
double f(int n, double *x) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    if (x[i] > 0.5) s += x[i] * 2.0;
  }
  return s;
}
""")
        r = detect_idioms(m)
        match = r.matches[0]
        an = FunctionAnalyses(match.function)
        reads = match.family("read_value")
        extractor = KernelExtractor(an, match.value("begin"),
                                    match.value("body.begin"),
                                    reads + [match.value("old_value")])
        kernel = extractor.extract(match.value("kernel.output"))
        assert isinstance(kernel.expr, KSelect)

    def test_captures_loop_invariants(self):
        m = compiled("""
double f(int n, double a, double *x) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += a * x[i];
  return s;
}
""")
        r = detect_idioms(m)
        match = r.matches[0]
        an = FunctionAnalyses(match.function)
        reads = match.family("read_value")
        extractor = KernelExtractor(an, match.value("begin"),
                                    match.value("body.begin"),
                                    reads + [match.value("old_value")])
        kernel = extractor.extract(match.value("kernel.output"))
        # `a` is loop invariant: captured as a runtime scalar parameter.
        assert len(kernel.captures) == 1
        assert kernel.captures[0].name == "a"


class TestDetectorRobustness:
    def test_empty_function(self):
        r = detect_idioms(compiled("void f() { }"))
        assert r.total() == 0

    def test_straight_line_code(self):
        r = detect_idioms(compiled(
            "double f(double a, double b) { return a * b + a / b; }"))
        assert r.total() == 0

    def test_while_loop_reduction(self):
        r = detect_idioms(compiled("""
double f(int n, double *x) {
  double s = 0.0;
  int i = 0;
  while (i < n) {
    s += x[i];
    i = i + 1;
  }
  return s;
}
"""))
        assert r.by_idiom() == {"Reduction": 1}

    def test_reverse_loop_not_matched(self):
        """Decrement loops are outside the canonical For idiom (documented
        limitation, matching the paper's canonical-loop focus)."""
        r = detect_idioms(compiled("""
double f(int n, double *x) {
  double s = 0.0;
  for (int i = n - 1; i > 0; i--) s += x[i];
  return s;
}
"""))
        assert r.total() == 0
