"""Profile-guided tiering policy: hotness counters and the JIT code cache.

The JIT tier (:mod:`repro.runtime.jit`) separates *policy* from
*mechanism*: this module decides **when** a function is worth compiling
and **whether** a previous session or sibling VM already compiled it;
the specializer decides *how*. Two pieces:

* :class:`HotnessTracker` — per-function call counters against a
  threshold. The VM's per-block ``_counts`` arrays answer "where inside
  a function is hot" (they order the generated dispatch arms); the
  tracker answers the cheaper question "has this function been entered
  often enough to pay for compilation".

* :class:`CodeCache` — compiled code objects keyed by the function's
  **content fingerprint** (the same sha256-over-canonical-text recipe
  PR 5's detection cache uses, see :mod:`repro.cache.fingerprint`).
  Everything *semantically visible* in the generated source is a pure
  function of the canonical IR text plus the JIT configuration, so two
  VMs running structurally identical modules share one compilation, and
  a transformed function (different canonical text) correctly misses.
  One perf-only input is deliberately excluded from the key: dispatch
  *arm ordering* consults the compiling VM's warm per-block counts when
  available (static loop depth otherwise), so a cache hit may serve a
  sibling VM's ordering — identical results and profiles, possibly a
  different hottest-first layout. An optional :class:`~repro.cache.store
  .ArtifactStore` backing persists the generated *source text*, letting
  warm sessions skip the bytecode walk and codegen and go straight to
  ``compile()``.
"""

from __future__ import annotations

import hashlib

from ..cache.fingerprint import globals_signature
from ..ir.module import Function
from ..ir.printer import print_function_canonical

#: Bump whenever the generated-code shape changes (new preamble, changed
#: guard structure, …); stale persisted sources then simply miss.
JIT_VERSION = 2


def jit_fingerprint(function: Function, profiling: bool,
                    vectorize: bool) -> str:
    """Content address of one function's specialized source.

    Folds everything the generated text *semantically* depends on: the
    canonical IR form, the module's globals (generated code binds them
    by name), and the JIT configuration (profiled sources carry count
    increments; vectorized sources carry guards and kernels). Dispatch
    arm ordering — a perf-only layout choice steered by the compiling
    VM's dynamic counts — is intentionally not folded in; see the module
    docstring.
    """
    module = function.module
    globals_sig = globals_signature(module) if module is not None else ""
    h = hashlib.sha256()
    h.update(f"repro-jit-v{JIT_VERSION}".encode())
    for part in (print_function_canonical(function), globals_sig,
                 f"profile={int(profiling)}:vectorize={int(vectorize)}"):
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


class HotnessTracker:
    """Call counters with a compile threshold.

    ``note_call`` returns True exactly once — on the call that crosses
    the threshold — which is the caller's cue to compile. A threshold of
    1 compiles on first entry (the default: suite workloads enter most
    functions exactly once and run their heat inside loops, so waiting
    would skip the tentpole entirely); higher thresholds keep early
    calls in the VM and let its per-block counts steer arm ordering.
    """

    def __init__(self, threshold: int = 1):
        self.threshold = max(1, threshold)
        self.calls: dict[str, int] = {}

    def note_call(self, name: str) -> bool:
        count = self.calls.get(name, 0) + 1
        self.calls[name] = count
        return count == self.threshold


class CodeCache:
    """Fingerprint-keyed cache of compiled specializations.

    In-process entries map a fingerprint to a Python *code object* (the
    expensive artifacts: codegen walk + ``compile()``); callers ``exec``
    it into a fresh namespace per VM, so no VM-instance state is ever
    shared through the cache. With a ``store`` attached, source text is
    additionally persisted under the same key (payload: one ``source``
    string), so a later process rebuilds the code object from text
    without re-walking bytecode.
    """

    def __init__(self, store=None):
        self.store = store
        self._code: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.compiles = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "compiles": self.compiles, "entries": len(self._code)}

    def get(self, fingerprint: str):
        """The cached code object, or None. Consults the persistent
        backing on an in-process miss."""
        code = self._code.get(fingerprint)
        if code is not None:
            self.hits += 1
            return code
        if self.store is not None:
            payload = self.store.get(fingerprint)
            source = payload.get("source") if payload else None
            if isinstance(source, str):
                try:
                    code = compile(source, f"<jit:{fingerprint[:12]}>",
                                   "exec")
                except SyntaxError:  # corrupt/stale payload: treat as miss
                    code = None
                if code is not None:
                    self._code[fingerprint] = code
                    self.hits += 1
                    return code
        self.misses += 1
        return None

    def put(self, fingerprint: str, source: str, code) -> None:
        self._code[fingerprint] = code
        self.compiles += 1
        if self.store is not None:
            self.store.put(fingerprint, {"source": source})


#: Process-wide default cache: VMs over identical module content share
#: compilations (bench_interp's repeated runs, test fixtures, …).
GLOBAL_CODE_CACHE = CodeCache()
