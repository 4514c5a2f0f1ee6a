"""Dense linear algebra kernel backing the simulated BLAS libraries.

:func:`matmul_tt` is the shared *functional* implementation behind MKL /
cuBLAS / clBLAS / CLBlast in this reproduction: numerically exact (numpy
einsum), with the per-API performance distinctions living in the cost
model.
"""

from __future__ import annotations

import numpy as np


def matmul_tt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] = Σ_k a[i, k] · b[j, k] — both operands contraction-last.

    The kernel role the GEMM lowering contract supplies: operand views are
    normalised to [out_index, contraction] by the transformer, this does
    the multiply.
    """
    return np.einsum("ik,jk->ij", a, b)


def register_backend(registry) -> None:
    """Register the dense linear-algebra backend: four vendor BLAS
    descriptors sharing one GEMM lowering contract."""
    from .api import CLBLAS, CLBLAST, CUBLAS, MKL
    from .registry import BackendEntry, LoweringContract

    contract = LoweringContract(
        backend="blas", category="matrix_op",
        requires=("loop[0].iter_begin", "loop[0].iter_end",
                  "loop[1].iter_end", "loop[2].iter_end"),
        kernels={"matmul_tt": matmul_tt},
        emits="C = beta*C + alpha*(A·Bᵀ) over normalised operand views")
    registry.register(BackendEntry(
        name="blas", title="Dense BLAS libraries",
        descriptors=(MKL, CUBLAS, CLBLAS, CLBLAST),
        contracts={"matrix_op": contract}))
