"""The kernel tree-walking evaluator, kept as the oracle for
:func:`repro.transform.kernels.compile_kernel`: it re-walks the tree on
every call and decides each node's numpy call as it goes. Compare with
:func:`same_result`."""

import numpy as np

from repro.errors import TransformError
from repro.transform.kernels import (
    KBin,
    KCall,
    KCapture,
    KCast,
    KCmp,
    KConst,
    KParam,
    KSelect,
    _BIN_NUMPY,
    _CALL_NUMPY,
    _CMP_NUMPY,
    _all_int,
)


def evaluate(expr, params: list, captures: list):
    """Evaluate over numpy arrays (or scalars) — vectorised semantics."""
    if isinstance(expr, KConst):
        return expr.value
    if isinstance(expr, KParam):
        return params[expr.index]
    if isinstance(expr, KCapture):
        return captures[expr.index]
    if isinstance(expr, KBin):
        lhs = evaluate(expr.lhs, params, captures)
        rhs = evaluate(expr.rhs, params, captures)
        if expr.op in ("sdiv", "udiv"):
            return np.floor_divide(lhs, rhs) if _all_int(lhs, rhs) else \
                np.divide(lhs, rhs)
        if expr.op in ("srem", "urem"):
            return np.remainder(lhs, rhs)
        return _BIN_NUMPY[expr.op](lhs, rhs)
    if isinstance(expr, KCmp):
        return _CMP_NUMPY[expr.pred](
            evaluate(expr.lhs, params, captures),
            evaluate(expr.rhs, params, captures))
    if isinstance(expr, KSelect):
        return np.where(evaluate(expr.cond, params, captures),
                        evaluate(expr.on_true, params, captures),
                        evaluate(expr.on_false, params, captures))
    if isinstance(expr, KCast):
        value = evaluate(expr.operand, params, captures)
        if expr.kind in ("fptosi",):
            if _is_array(value):
                # Lanes holding non-finite values are guarded out later;
                # cast them to 0 to keep the vectorised evaluation silent.
                return np.nan_to_num(np.asarray(value), nan=0.0,
                                     posinf=0.0, neginf=0.0
                                     ).astype(np.int64)
            return int(value)
        if expr.kind in ("sitofp", "fpext", "fptrunc"):
            return np.asarray(value).astype(np.float64) if _is_array(value) \
                else float(value)
        return value
    if isinstance(expr, KCall):
        args = [evaluate(a, params, captures) for a in expr.args]
        # Lanes excluded by the guard may hold out-of-domain values
        # (e.g. sqrt of a negative); they are masked out downstream.
        with np.errstate(invalid="ignore", divide="ignore"):
            return _CALL_NUMPY[expr.name](*args)
    raise TransformError(f"cannot evaluate kernel node {expr!r}")


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)



def same_result(a, b) -> bool:
    """Equal type, dtype, shape and value, bit for bit (NaNs by payload);
    Python ints too wide for int64 compare by value."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return a.tolist() == b.tolist()
    return a.tobytes() == b.tobytes()
