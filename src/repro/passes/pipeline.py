"""The standard optimisation pipeline applied before idiom detection.

Mirrors the subset of ``clang -O2`` the paper's matching relies on:
SSA construction, constant folding, peephole canonicalisation, dead code
elimination and CFG simplification, iterated to a fixed point.
"""

from __future__ import annotations

from ..ir.module import Function, Module
from ..ir.verifier import verify_function
from .constfold import fold_constants
from .cse import eliminate_common_subexpressions, eliminate_redundant_loads
from .dce import eliminate_dead_code
from .instcombine import combine_instructions
from .licm import hoist_loop_invariants
from .mem2reg import promote_allocas, remove_trivial_phis
from .promote import forward_stores, promote_loop_accumulators
from .simplifycfg import remove_unreachable_blocks, simplify_cfg


#: The fixed-point pass sequence. Order matters; each entry is a
#: deterministic function(function) -> number of changes.
_PIPELINE = (
    fold_constants,
    combine_instructions,
    eliminate_common_subexpressions,
    eliminate_redundant_loads,
    eliminate_dead_code,
    simplify_cfg,
    remove_trivial_phis,
    hoist_loop_invariants,
    forward_stores,
    promote_loop_accumulators,
)


#: One-shot passes run before the fixed-point loop, shared with
#: :func:`pipeline_signature` so the cache key can never drift from what
#: :func:`optimize_function` actually runs.
_PROLOGUE = (
    remove_unreachable_blocks,
    promote_allocas,
)


def pipeline_signature() -> str:
    """The pass pipeline as a cache-key input: every pass that shapes the
    IR before detection, in execution order. Detection artifacts are keyed
    on this (see :mod:`repro.cache.fingerprint`) so a pipeline change can
    never serve match reports computed for differently canonicalised
    code."""
    return "|".join(p.__name__ for p in _PROLOGUE + _PIPELINE)


def optimize_function(function: Function, verify: bool = True) -> None:
    if function.is_declaration():
        return
    for pass_fn in _PROLOGUE:
        pass_fn(function)
    # Worklist-style fixed point: a pass is re-run only while "dirty" —
    # i.e. some pass has changed the IR since its last run. A clean pass
    # is deterministic over unchanged IR, so skipping it elides a provable
    # no-op: the sequence of IR-changing runs (and the final IR) is
    # identical to naively re-running every pass each round, but the
    # convergence-confirmation runs disappear. ``verify_function`` runs
    # once, after convergence.
    dirty = [True] * len(_PIPELINE)
    for _ in range(8):  # safety bound, as before
        if not any(dirty):
            break
        for i, pass_fn in enumerate(_PIPELINE):
            if not dirty[i]:
                continue
            dirty[i] = False
            if pass_fn(function):
                for j in range(len(dirty)):
                    dirty[j] = True
    if verify:
        verify_function(function)


def optimize(module: Module, verify: bool = True) -> Module:
    """Optimise all functions in place and return the module.

    Each defined function is verified once, after it converges (see
    :func:`optimize_function`); ``verify=False`` skips that."""
    for function in module.functions.values():
        optimize_function(function, verify=verify)
    return module
