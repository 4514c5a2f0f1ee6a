"""Profile-guided tiering policy: hotness counters and the JIT code cache.

The JIT tier (:mod:`repro.runtime.jit`) separates *policy* from
*mechanism*: this module decides **when** a function is worth compiling
and **whether** a previous session or sibling VM already compiled it;
the specializer decides *how*. Two pieces:

* :class:`HotnessTracker` — per-function heat counters against a
  threshold. The VM's per-block ``_counts`` arrays answer "where inside
  a function is hot" (they order the generated dispatch arms); the
  tracker answers the cheaper question "has this function run long
  enough to pay for compilation".

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
JIT_VERSION = 4

#: Heat at which the jit tier compiles a function. Measured on the
#: suite-eval benchmark (EXPERIMENTS.md → "Tier-up threshold"): 16 and 64
#: are about equal, 1 compiles too much cold code, 256 leaves hot loops
#: in the VM too long.
DEFAULT_JIT_THRESHOLD = 16


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
    """Per-function heat counters with a compile threshold.

    A function's heat is its calls plus the loop back edges its VM frames
    take, summed over every frame. ``note`` adds one unit and returns
    True exactly once — on the call or back edge that reaches the
    threshold — which is the caller's cue to compile (and, on a back
    edge, to enter the compiled code at that loop header). Suite
    workloads enter most functions once and run their heat inside
    loops, which is why back edges count: a hot loop tiers up mid-call,
    while a function that never loops much is never compiled. A
    threshold of 1 compiles every function on its first call.
    """

    def __init__(self, threshold: int = DEFAULT_JIT_THRESHOLD):
        self.threshold = max(1, threshold)
        self.heat: dict[str, int] = {}

    def note(self, name: str) -> bool:
        heat = self.heat.get(name, 0) + 1
        self.heat[name] = heat
        return heat == self.threshold


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
