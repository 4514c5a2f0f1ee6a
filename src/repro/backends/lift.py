"""A miniature Lift: functional data-parallel patterns.

Models the Lift pipeline the paper uses (§5.2, Figure 15): programs are
compositions of ``map``, ``reduce`` and ``zip`` over arrays, with user
functions supplied as sequential C kernels (here: extracted kernel
expressions). One rewrite rule mirrors Lift's device mapping
(map→mapGlobal), and :func:`compile_pattern` lowers a pattern tree to a
numpy-executable callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import BackendError


# ---------------------------------------------------------------------------
# Pattern language
# ---------------------------------------------------------------------------

class Pattern:
    """Base class of Lift expressions."""


@dataclass(frozen=True)
class Input(Pattern):
    """A named program input."""

    name: str


@dataclass(frozen=True)
class UserFun(Pattern):
    """A scalar user function (from an extracted kernel)."""

    name: str
    arity: int
    fn: Callable  # vectorised: ndarray args -> ndarray
    source: str = ""  # C source, as handed over by the IR-to-C backend


@dataclass(frozen=True)
class Map(Pattern):
    fn: Pattern  # UserFun or Lambda-like composition
    arg: Pattern
    device: str = "seq"  # 'seq' | 'global' | 'local'


@dataclass(frozen=True)
class Reduce(Pattern):
    fn: Pattern  # binary UserFun
    init: float
    arg: Pattern


@dataclass(frozen=True)
class Zip(Pattern):
    args: tuple


# ---------------------------------------------------------------------------
# Rewrite rules (Lift's exploration, abridged)
# ---------------------------------------------------------------------------

def rewrite_map_to_global(pattern: Pattern) -> Pattern:
    """Outermost maps become device-parallel (mapGlobal)."""
    if isinstance(pattern, Map) and pattern.device == "seq":
        return Map(pattern.fn, pattern.arg, device="global")
    return pattern


# ---------------------------------------------------------------------------
# Compilation to numpy callables
# ---------------------------------------------------------------------------

def compile_pattern(pattern: Pattern) -> Callable[[dict], np.ndarray]:
    """Lower a pattern tree to ``fn(inputs: dict[str, ndarray])``."""

    def run(node: Pattern, env: dict):
        if isinstance(node, Input):
            if node.name not in env:
                raise BackendError(f"unbound Lift input {node.name!r}")
            return env[node.name]
        if isinstance(node, Zip):
            parts = [run(a, env) for a in node.args]
            return tuple(parts)
        if isinstance(node, Map):
            arg = run(node.arg, env)
            fn = node.fn
            if isinstance(fn, UserFun):
                if isinstance(arg, tuple):
                    return fn.fn(*arg)
                return fn.fn(arg)
            raise BackendError("map over non-userfun")
        if isinstance(node, Reduce):
            arg = run(node.arg, env)
            fn = node.fn
            if not isinstance(fn, UserFun) or fn.arity != 2:
                raise BackendError("reduce requires a binary user function")
            if isinstance(arg, tuple):
                raise BackendError("reduce over unzipped tuple")
            if fn.name == "add":
                return node.init + np.sum(arg)
            if fn.name == "max":
                return max(node.init, np.max(arg)) if np.size(arg) else \
                    node.init
            if fn.name == "min":
                return min(node.init, np.min(arg)) if np.size(arg) else \
                    node.init
            acc = node.init
            for value in np.asarray(arg).reshape(-1):
                acc = fn.fn(acc, value)
            return acc
        raise BackendError(f"cannot compile Lift node {node!r}")

    return lambda inputs: run(pattern, inputs)


# ---------------------------------------------------------------------------
# Translation from detected idioms (paper §6.2)
# ---------------------------------------------------------------------------

def reduction_to_lift(delta_fn: Callable, kind: str, init: float,
                      n_inputs: int, kernel_source: str = "") -> Pattern:
    """reduce(op, init, map(delta, zip(inputs...))) — Figure 15's shape."""
    op_name = {"sum": "add", "max": "max", "min": "min"}.get(kind)
    if op_name is None:
        raise BackendError(f"unknown reduction kind {kind!r}")
    op = UserFun(op_name, 2, {"add": np.add, "max": np.maximum,
                              "min": np.minimum}[op_name])
    inputs: Pattern
    if n_inputs == 1:
        inputs = Input("in0")
    else:
        inputs = Zip(tuple(Input(f"in{i}") for i in range(n_inputs)))
    mapped = Map(UserFun("delta", n_inputs, delta_fn, kernel_source), inputs)
    mapped = rewrite_map_to_global(mapped)
    return Reduce(op, init, mapped)


def register_backend(registry) -> None:
    """Register the Lift backend: reduction / histogram / stencil lowering
    contracts around the shared kernel compiler, with the pattern
    translators exposed for the DSL code path."""
    from ..transform.kernels import compile_kernel
    from .api import LIFT
    from .registry import BackendEntry, LoweringContract

    reduction = LoweringContract(
        backend="lift", category="scalar_reduction",
        requires=("old_value", "iter_begin", "iter_end", "ind_init",
                  "kernel.output"),
        kernels={"compile": compile_kernel, "pipeline": reduction_to_lift},
        emits="reduce(op, init, map(delta, zip(inputs)))")
    histogram = LoweringContract(
        backend="lift", category="histogram_reduction",
        requires=("base_pointer", "old_value", "iter_begin", "iter_end",
                  "kernel.output", "indexkernel.output", "store"),
        kernels={"compile": compile_kernel},
        emits="guarded scatter-accumulate over computed bins")
    stencil = LoweringContract(
        backend="lift", category="stencil",
        requires=("kernel.output",),
        kernels={"compile": compile_kernel},
        emits="shifted-slice kernel evaluation over the index box")
    registry.register(BackendEntry(
        name="lift", title="Lift data-parallel pattern DSL",
        descriptors=(LIFT,),
        contracts={"scalar_reduction": reduction,
                   "histogram_reduction": histogram,
                   "stencil": stencil}))
