"""Fault tolerance: supervised execution, quarantine, fault injection.

The reliability subsystem generalizes PR 6's "blacklist and replay on the
VM" pattern into a repo-wide discipline: every tier has an always-correct
fallback and every failure is contained, retried, or degraded — never
allowed to take the process down. Three pieces:

* :mod:`.faults` — a deterministic, seeded, site-addressed fault plan.
  Named seams (``store.read``, ``store.write``, ``worker.solve``,
  ``backend.dispatch``, ``jit.compile`` and the service's) call
  :func:`~repro.reliability.faults.maybe_fire`; an installed plan decides
  per occurrence whether to raise, hang or tear. With no plan
  installed the hook is one global read — injection stays compiled in at
  negligible cost (gated by ``bench_faults --check``).
* :mod:`.supervisor` — the detection session's execution ladder:
  per-function in-band wall-clock deadlines, bounded retry with backoff
  for transient failures and staged degradation thread → serial, with
  per-function :class:`~repro.reliability.supervisor.FunctionOutcome`
  records merged into a deterministic report.
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
from .supervisor import (
    FunctionOutcome,
    RetryPolicy,
    SessionOutcomes,
    Supervisor,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FunctionOutcome",
    "Quarantine",
    "RetryPolicy",
    "SessionOutcomes",
    "Supervisor",
    "active_plan",
    "install_plan",
    "maybe_fire",
    "plan_from_spec",
]
