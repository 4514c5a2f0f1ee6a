"""Sparse linear algebra kernels backing cuSPARSE / clSPARSE / libSPMV.

CSR matrix-vector multiply implemented with an exact segmented-sum
(cumulative-sum differencing), which is robust to empty rows — unlike
``np.add.reduceat`` — and validated against scipy in the test suite.
"""

from __future__ import annotations

import numpy as np


def csr_spmv(row_ptr: np.ndarray, col_idx: np.ndarray, values: np.ndarray,
             x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """y[i] = Σ_{k ∈ [row_ptr[i], row_ptr[i+1])} values[k] * x[col_idx[k]]."""
    rows = len(row_ptr) - 1
    nnz = int(row_ptr[-1])
    products = values[:nnz] * x[col_idx[:nnz]]
    prefix = np.concatenate(([0.0], np.cumsum(products)))
    result = prefix[row_ptr[1:]] - prefix[row_ptr[:-1]]
    if y is not None:
        y[:rows] = result
        return y
    return result


def register_backend(registry) -> None:
    """Register the sparse backend: three SPMV library descriptors behind
    one CSR lowering contract."""
    from .api import CLSPARSE, CUSPARSE, LIBSPMV
    from .registry import BackendEntry, LoweringContract

    contract = LoweringContract(
        backend="sparse", category="sparse_matrix_op",
        requires=("iter_begin", "iter_end", "ranges.lo_address",
                  "idx_read.address", "seq_read.address",
                  "indir_read.address", "output.address"),
        kernels={"spmv": csr_spmv},
        emits="y[lo:hi] = CSR(row_ptr, col, val) · x via segmented sum")
    registry.register(BackendEntry(
        name="sparse", title="Sparse matrix libraries",
        descriptors=(CUSPARSE, CLSPARSE, LIBSPMV),
        contracts={"sparse_matrix_op": contract}))


def random_csr(rows: int, cols: int, nnz_per_row: int, seed: int = 7):
    """A reproducible random CSR matrix (CG/spmv workload inputs)."""
    rng = np.random.default_rng(seed)
    row_ptr = np.zeros(rows + 1, dtype=np.int32)
    col_idx = np.zeros(rows * nnz_per_row, dtype=np.int32)
    values = np.zeros(rows * nnz_per_row, dtype=np.float64)
    pos = 0
    for i in range(rows):
        cols_i = np.sort(rng.choice(cols, size=min(nnz_per_row, cols),
                                    replace=False))
        for j in cols_i:
            col_idx[pos] = j
            values[pos] = rng.uniform(-1.0, 1.0)
            pos += 1
        row_ptr[i + 1] = pos
    return row_ptr, col_idx[:pos], values[:pos]
