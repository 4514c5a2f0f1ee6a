"""Deterministic, site-addressed fault injection.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
naming a **seam** (where), a **kind** (what), and an **occurrence set**
(when). The instrumented seams call :func:`maybe_fire` with their seam
name and a key (a function name, a store key, a call-site name); the
active plan counts occurrences per seam and fires the matching specs.

Seams instrumented across the codebase::

    store.read        ArtifactStore.get          (key = artifact key)
    store.write       ArtifactStore.put          (key = artifact key)
    backend.dispatch  ApiRuntime.dispatch        (key = site callee)
    jit.compile       JIT specialization         (key = function name)
    service.admit     DetectionService.submit    (key = tenant)
    service.batch     micro-batch execution      (key = batch size)
    daemon.conn       daemon request handling    (key = request op;
                      an ``exception`` here drops the TCP connection,
                      exercising the client's reconnect path)

Fault kinds:

* ``exception`` — raise :class:`~repro.errors.InjectedFault`; the code
  around the seam must treat it like the real failure it stands in for.
* ``hang`` — sleep ``seconds``, then continue normally; the result stays
  correct, only late (nothing interrupts the sleep).
* ``torn`` — returned to the seam as a directive rather than raised;
  only :meth:`ArtifactStore.put` consumes it, writing a truncated
  payload to the final path (simulating a non-atomic writer dying
  mid-write) which later reads must classify as a corrupt miss.

Determinism: firing depends only on (seed, seam, occurrence index).
``at`` lists explicit occurrence indexes; ``rate`` arms a seeded hash
over the occurrence counter so large sweeps can scatter faults without
enumerating them.

Activation: :func:`install_plan` programmatically, or the
``REPRO_FAULT_PLAN`` environment variable (inline JSON, or ``@path`` to
a JSON file) consulted once on first use — which is how the experiment
CLIs and the daemon pick plans up.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

from ..errors import InjectedFault, ReproError

#: The seams maybe_fire accepts; a typo'd seam name in a plan would
#: silently never fire, so both ends are validated against this set.
SEAMS = frozenset({
    "store.read", "store.write", "backend.dispatch", "jit.compile",
    "service.admit", "service.batch", "daemon.conn",
})

KINDS = frozenset({"exception", "hang", "torn"})


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: where, what, and when it fires."""

    site: str                       # seam name, one of SEAMS
    kind: str                       # one of KINDS
    at: tuple = (0,)                # occurrence indexes that fire
    rate: float = 0.0               # seeded per-occurrence probability
    key: str | None = None          # substring filter on the seam key
    seconds: float = 0.25           # hang duration

    def __post_init__(self):
        if self.site not in SEAMS:
            raise ReproError(f"unknown fault seam {self.site!r} "
                             f"(known: {', '.join(sorted(SEAMS))})")
        if self.kind not in KINDS:
            raise ReproError(f"unknown fault kind {self.kind!r} "
                             f"(known: {', '.join(sorted(KINDS))})")
        object.__setattr__(self, "at", tuple(self.at))

    def matches(self, seed: int, occurrence: int, key: str) -> bool:
        if self.key is not None and self.key not in key:
            return False
        if occurrence in self.at:
            return True
        if self.rate > 0.0:
            digest = hashlib.sha256(
                f"{seed}:{self.site}:{occurrence}".encode()).digest()
            return (int.from_bytes(digest[:8], "big") / 2**64) < self.rate
        return False


class FaultPlan:
    """A seeded set of fault specs plus per-seam occurrence counters.

    Occurrence counters and the ``fired`` record are guarded by a lock:
    the service's seams fire from its connection threads concurrently.
    """

    def __init__(self, specs, seed: int = 0):
        self.specs = [s if isinstance(s, FaultSpec) else FaultSpec(**s)
                      for s in specs]
        self.seed = int(seed)
        #: Seams some spec names; the rest cannot fire, so they return
        #: before the lock.
        self._sites = frozenset(s.site for s in self.specs)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Every fault that fired, in firing order:
        #: dicts of site/kind/occurrence/key.
        self.fired: list[dict] = []

    def as_spec(self) -> dict:
        """JSON-serializable form; :func:`plan_from_spec` rebuilds it."""
        return {
            "seed": self.seed,
            "specs": [{
                "site": s.site, "kind": s.kind, "at": list(s.at),
                "rate": s.rate, "key": s.key,
                "seconds": s.seconds,
            } for s in self.specs],
        }

    def fire(self, site: str, key: str = ""):
        """Advance the seam's occurrence counter and fire matching specs.

        Raising kinds raise; ``torn`` directives are returned for the
        seam to implement. Returns None when nothing fires."""
        if site not in self._sites:
            return None
        with self._lock:
            occurrence = self._counts.get(site, 0)
            self._counts[site] = occurrence + 1
            spec = next(
                (s for s in self.specs if s.site == site and
                 s.matches(self.seed, occurrence, key)), None)
            if spec is None:
                return None
            self.fired.append({
                "site": site, "kind": spec.kind, "occurrence": occurrence,
                "key": key,
            })
        return _execute(spec, site, key, occurrence)


def _execute(spec: FaultSpec, site: str, key: str, occurrence: int):
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        return None
    if spec.kind == "torn":
        return spec  # seam-implemented (store.put tears the write)
    raise InjectedFault(
        f"injected exception at {site} "
        f"(occurrence {occurrence}, key {key!r})")


# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_CHECKED = False


def plan_from_spec(spec) -> FaultPlan:
    """Build a plan from its JSON form (a dict, JSON text, or ``@path``)."""
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str):
        if spec.startswith("@"):
            with open(spec[1:], "r") as fh:
                spec = json.load(fh)
        else:
            spec = json.loads(spec)
    if isinstance(spec, list):
        spec = {"specs": spec}
    if not isinstance(spec, dict):
        raise ReproError(f"cannot build a fault plan from {spec!r}")
    return FaultPlan(spec.get("specs", ()), seed=spec.get("seed", 0))


def install_plan(plan) -> FaultPlan | None:
    """Install (or with None, clear) the process-wide fault plan."""
    global _ACTIVE, _ENV_CHECKED
    _ENV_CHECKED = True
    if plan is None:
        _ACTIVE = None
        return None
    _ACTIVE = plan_from_spec(plan)
    return _ACTIVE


def active_plan() -> FaultPlan | None:
    """The installed plan, initialized from ``$REPRO_FAULT_PLAN`` once."""
    global _ENV_CHECKED, _ACTIVE
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        env = os.environ.get("REPRO_FAULT_PLAN")
        if env:
            _ACTIVE = plan_from_spec(env)
    return _ACTIVE


def maybe_fire(site: str, key: str = ""):
    """The seam hook: a no-op global read unless a plan is installed."""
    plan = _ACTIVE if _ENV_CHECKED else active_plan()
    if plan is None:
        return None
    return plan.fire(site, key)

