"""Fault tolerance: fault injection and quarantine.

The reliability subsystem generalizes PR 6's "blacklist and replay on the
VM" pattern into a repo-wide discipline: every tier has an always-correct
fallback and every failure is contained or degraded — never allowed
to take the process down. Two pieces:

* :mod:`.faults` — a deterministic, seeded, site-addressed fault plan.
  Named seams (``store.read``, ``store.write``, ``backend.dispatch``,
  ``jit.compile`` and the service's) call
  :func:`~repro.reliability.faults.maybe_fire`; an installed plan decides
  per occurrence whether to raise, hang or tear. With no plan
  installed the hook is one global read — injection stays compiled in at
  negligible cost (the ``seams`` gate of :mod:`repro.experiments.gates`).
* :mod:`.quarantine` — (backend, category) pairs that failed at dispatch
  more than N times are quarantined: the aliasing-guard machinery steers
  their sites onto the intact original loops and the transformer stops
  selecting the backend for new sites.
"""

from .faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    install_plan,
    maybe_fire,
    plan_from_spec,
)
from .quarantine import Quarantine

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "Quarantine",
    "active_plan",
    "install_plan",
    "maybe_fire",
    "plan_from_spec",
]
