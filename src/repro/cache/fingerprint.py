"""Content fingerprints for incremental detection.

A function's detection outcome is a pure function of

* the function's IR structure (the canonical printed form — name-
  independent, see :func:`repro.ir.printer.print_function_canonical`),
* the module's global variables (they are part of the solver's candidate
  universe, so adding or retyping one can change the match set),
* the idiom library (every loaded IDL source, the native constraints and
  the memoized building-block set),
* the detector configuration (which idioms run, in what order, and the
  solve limits), and
* the optimisation pipeline that shaped the IR (conservative: detection
  runs on already-optimised IR, but keying on the pass list means a
  pipeline change can never serve results computed for differently
  canonicalised code).

:func:`function_fingerprint` folds all of these into one hex digest: the
artifact store's content address. Anything not in this list must not be
able to change the match set — that is the correctness contract of the
whole cache layer, and why this module is the only place fingerprints are
assembled.

All inputs are strings built from ordered structures; nothing here
iterates a set or hashes by ``id()``, so fingerprints are stable across
processes and ``PYTHONHASHSEED`` values (the warm-start-across-sessions
requirement).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..ir.module import Function, Module
from ..ir.printer import print_function_canonical

#: Bump when the fingerprint recipe itself changes (new inputs, changed
#: canonical form); old entries then simply stop being addressable.
FINGERPRINT_VERSION = 1


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    h.update(f"repro-fingerprint-v{FINGERPRINT_VERSION}".encode())
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def globals_signature(module: Module) -> str:
    """The printed form of the module's globals, in declaration order.

    Globals enter every function's candidate universe (in declaration
    order, which is also solution-enumeration order), so they are part of
    every function fingerprint — order included: reordering declarations
    can reorder enumerated solutions, and cached reports must replay the
    exact report a cold solve would produce."""
    lines = []
    for gv in module.globals.values():
        kind = "constant" if gv.constant else "global"
        lines.append(f"@{gv.name} = {kind} {gv.value_type}")
    return "\n".join(lines)


def function_fingerprint(function: Function, config_signature: str,
                         globals_sig: str | None = None) -> str:
    """The content address of one function's detection artifact.

    ``globals_sig`` lets callers that fingerprint several functions of
    one module print its globals once; it must be exactly
    ``globals_signature(function.module)``."""
    if globals_sig is None:
        module = function.module
        globals_sig = globals_signature(module) if module is not None else ""
    return _digest("detection", config_signature, globals_sig,
                   print_function_canonical(function))


@dataclass(frozen=True)
class ModuleFingerprints:
    """One module's detection addresses under one configuration: per
    defined function in module order, its detection key.

    The detection service memoises this on its parse cache, so a
    re-submitted text costs neither a re-print nor a re-hash;
    :meth:`~repro.idioms.scheduler.DetectionSession.detect_many` takes
    it instead of fingerprinting the module itself."""

    config_signature: str
    keys: tuple[str, ...]


def module_fingerprints(module: Module,
                        config_signature: str) -> ModuleFingerprints:
    """Fingerprint every defined function of ``module`` once."""
    globals_sig = globals_signature(module)
    return ModuleFingerprints(config_signature, tuple(
        function_fingerprint(function, config_signature, globals_sig)
        for function in module.functions.values()
        if not function.is_declaration()))


def detection_config_signature(library_signature: str,
                               idioms: list[str] | tuple[str, ...],
                               max_solutions: int, max_steps: int,
                               pipeline_signature: str) -> str:
    """Fold every non-IR input of a detection run into one string.

    Detection always solves with the plan forest, so no solve-engine
    choice enters the key; the per-idiom oracles
    (:mod:`repro.idioms.oracle`) take no cache."""
    return _digest(
        "config",
        library_signature,
        "\x1f".join(idioms),
        f"{max_solutions}:{max_steps}",
        pipeline_signature,
    )
