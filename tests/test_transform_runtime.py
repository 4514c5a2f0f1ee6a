"""Integration tests: transformation correctness (original == accelerated)."""

import numpy as np
import pytest

from repro.backends.sparse import csr_spmv, random_csr
from repro.runtime import (
    compile_workload,
    outputs_match,
    run_accelerated,
    run_original,
)


def roundtrip(name, src, entry, inputs):
    w1 = compile_workload(name, src)
    r1 = run_original(w1, entry, inputs)
    w2 = compile_workload(name, src)
    r2 = run_accelerated(w2, entry, inputs)
    return r1, r2


def csr_from_dense(dense: np.ndarray):
    """(row_ptr, col_idx, values) of a dense matrix."""
    rows, cols = dense.shape
    row_ptr = [0]
    col_idx: list[int] = []
    values: list[float] = []
    for i in range(rows):
        for j in range(cols):
            if dense[i, j] != 0.0:
                col_idx.append(j)
                values.append(float(dense[i, j]))
        row_ptr.append(len(values))
    return (np.asarray(row_ptr, dtype=np.int32),
            np.asarray(col_idx, dtype=np.int32),
            np.asarray(values, dtype=np.float64))


class TestReductionTransform:
    def test_sum(self):
        src = """
double s(int n, double *x) {
  double t = 0.0;
  for (int i = 0; i < n; i++) t += x[i];
  return t;
}
"""
        x = np.linspace(-1, 1, 50)
        r1, r2 = roundtrip("t", src, "s", {"n": 50, "x": x})
        assert outputs_match(r1, r2)
        assert r2.total_instructions < r1.total_instructions / 5

    def test_dot(self):
        src = """
double s(int n, double *x, double *y) {
  double t = 0.0;
  for (int i = 0; i < n; i++) t += x[i] * y[i];
  return t;
}
"""
        rng = np.random.default_rng(0)
        inputs = {"n": 40, "x": rng.uniform(-1, 1, 40),
                  "y": rng.uniform(-1, 1, 40)}
        r1, r2 = roundtrip("t", src, "s", inputs)
        assert outputs_match(r1, r2)

    def test_max(self):
        src = """
double s(int n, double *x) {
  double best = -1.0e30;
  for (int i = 0; i < n; i++)
    best = x[i] > best ? x[i] : best;
  return best;
}
"""
        rng = np.random.default_rng(1)
        inputs = {"n": 33, "x": rng.uniform(-5, 5, 33)}
        r1, r2 = roundtrip("t", src, "s", inputs)
        assert outputs_match(r1, r2)

    def test_conditional_sum(self):
        src = """
double s(int n, double *x) {
  double t = 0.0;
  for (int i = 0; i < n; i++) {
    if (x[i] > 0.0) t += x[i];
  }
  return t;
}
"""
        rng = np.random.default_rng(2)
        inputs = {"n": 64, "x": rng.uniform(-1, 1, 64)}
        r1, r2 = roundtrip("t", src, "s", inputs)
        assert outputs_match(r1, r2)

    def test_empty_range(self):
        src = """
double s(int n, double *x) {
  double t = 5.0;
  for (int i = 0; i < n; i++) t += x[i];
  return t;
}
"""
        r1, r2 = roundtrip("t", src, "s", {"n": 0, "x": np.zeros(1)})
        assert outputs_match(r1, r2)
        assert r1.value == 5.0


class TestHistogramTransform:
    def test_count(self):
        src = """
void h(int n, int *key, int *bin) {
  for (int i = 0; i < n; i++)
    bin[key[i]] = bin[key[i]] + 1;
}
"""
        rng = np.random.default_rng(3)
        inputs = {"n": 200,
                  "key": rng.integers(0, 16, 200, dtype=np.int32),
                  "bin": np.zeros(16, dtype=np.int32)}
        r1, r2 = roundtrip("t", src, "h", inputs)
        assert outputs_match(r1, r2)

    def test_weighted_conditional(self):
        src = """
void h(int n, int *g, double *v, double *acc) {
  for (int i = 0; i < n; i++) {
    if (v[i] > 0.0)
      acc[g[i]] = acc[g[i]] + v[i];
  }
}
"""
        rng = np.random.default_rng(4)
        inputs = {"n": 150,
                  "g": rng.integers(0, 8, 150, dtype=np.int32),
                  "v": rng.uniform(-1, 1, 150),
                  "acc": np.zeros(8)}
        r1, r2 = roundtrip("t", src, "h", inputs)
        assert outputs_match(r1, r2)


class TestSpmvTransform:
    SRC = """
void spmv(int m, double *a, int *rowstr, int *colidx, double *z, double *r) {
  for (int j = 0; j < m; j++) {
    double d = 0.0;
    for (int k = rowstr[j]; k < rowstr[j+1]; k++)
      d = d + a[k] * z[colidx[k]];
    r[j] = d;
  }
}
"""

    def test_csr(self):
        rows = 30
        rp, ci, vals = random_csr(rows, rows, 4)
        rng = np.random.default_rng(5)
        inputs = {"m": rows, "a": vals, "rowstr": rp, "colidx": ci,
                  "z": rng.uniform(-1, 1, rows), "r": np.zeros(rows)}
        r1, r2 = roundtrip("t", self.SRC, "spmv", inputs)
        assert outputs_match(r1, r2)

    def test_empty_rows(self):
        dense = np.zeros((6, 6))
        dense[0, 1] = 2.0
        dense[5, 0] = -1.0
        rp, ci, vals = csr_from_dense(dense)
        inputs = {"m": 6, "a": vals, "rowstr": rp, "colidx": ci,
                  "z": np.ones(6), "r": np.zeros(6)}
        r1, r2 = roundtrip("t", self.SRC, "spmv", inputs)
        assert outputs_match(r1, r2)


class TestGemmTransform:
    def test_flat_alpha_beta(self):
        src = """
void mm(int m, int n, int k, double *A, int lda, double *B, int ldb,
        double *C, int ldc, double alpha, double beta) {
  for (int mm = 0; mm < m; mm++) {
    for (int nn = 0; nn < n; nn++) {
      double c = 0.0;
      for (int i = 0; i < k; i++)
        c += A[mm + i * lda] * B[nn + i * ldb];
      C[mm + nn * ldc] = C[mm + nn * ldc] * beta + alpha * c;
    }
  }
}
"""
        rng = np.random.default_rng(6)
        m = n = k = 8
        inputs = {"m": m, "n": n, "k": k,
                  "A": rng.uniform(-1, 1, m * k), "lda": m,
                  "B": rng.uniform(-1, 1, n * k), "ldb": n,
                  "C": rng.uniform(-1, 1, m * n), "ldc": m,
                  "alpha": 1.5, "beta": 0.25}
        r1, r2 = roundtrip("t", src, "mm", inputs)
        assert outputs_match(r1, r2)

    def test_2d_global(self):
        src = """
double M1[10][10]; double M2[10][10]; double M3[10][10];
void seed(double *a, double *b) {
  for (int i = 0; i < 10; i++)
    for (int j = 0; j < 10; j++) {
      M1[i][j] = a[i*10+j];
      M2[i][j] = b[i*10+j];
      M3[i][j] = 0.0;
    }
}
double mm(double *a, double *b) {
  seed(a, b);
  for (int i = 0; i < 10; i++)
    for (int j = 0; j < 10; j++) {
      M3[i][j] = 0.0;
      for (int k = 0; k < 10; k++)
        M3[i][j] += M1[i][k] * M2[k][j];
    }
  return M3[3][4];
}
"""
        rng = np.random.default_rng(7)
        inputs = {"a": rng.uniform(-1, 1, 100), "b": rng.uniform(-1, 1, 100)}
        r1, r2 = roundtrip("t", src, "mm", inputs)
        assert outputs_match(r1, r2)


class TestStencilTransform:
    def test_1d(self):
        src = """
void sm(int n, double *out, double *in) {
  for (int i = 1; i < n; i++)
    out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1];
}
"""
        rng = np.random.default_rng(8)
        inputs = {"n": 63, "out": np.zeros(64), "in": rng.uniform(0, 1, 64)}
        r1, r2 = roundtrip("t", src, "sm", inputs)
        assert outputs_match(r1, r2)

    def test_2d(self):
        src = """
double A[16][16]; double B[16][16];
void seed(double *s) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++) {
      A[i][j] = s[i*16+j];
      B[i][j] = 0.0;
    }
}
double jac(double *s) {
  seed(s);
  for (int i = 1; i < 15; i++)
    for (int j = 1; j < 15; j++)
      B[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j]
                       + A[i][j-1] + A[i][j+1]);
  return B[7][8];
}
"""
        rng = np.random.default_rng(9)
        inputs = {"s": rng.uniform(0, 1, 256)}
        r1, r2 = roundtrip("t", src, "jac", inputs)
        assert outputs_match(r1, r2)


class TestSparseKernels:
    def test_csr_spmv_matches_scipy(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(10)
        dense = rng.uniform(-1, 1, (20, 20))
        dense[dense < 0.5] = 0.0
        rp, ci, vals = csr_from_dense(dense)
        x = rng.uniform(-1, 1, 20)
        ours = csr_spmv(rp.astype(np.int64), ci, vals, x)
        theirs = sp.csr_matrix(dense) @ x
        np.testing.assert_allclose(ours, theirs, atol=1e-12)
