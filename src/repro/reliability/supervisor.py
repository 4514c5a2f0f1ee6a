"""What a detection session records about each function, and its deadline.

A :class:`~repro.idioms.scheduler.DetectionSession` solves its cold
functions one after another, in-process. A per-function deadline
(``DetectionSession.deadline_s``) is enforced only in-band, by the
solver's sampled wall clock (:class:`~repro.errors.SolveTimeout`); a
solve that hangs outside the solver is not interrupted, and any error
other than the deadline propagates. :func:`tightened_deadline` clamps
that deadline to a caller's remaining budget; :class:`SessionOutcomes`
collects one :class:`FunctionOutcome` per function plus the faults the
injector fired during the session, which a report carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def tightened_deadline(deadline_s: float | None,
                       budget_s: float | None) -> float | None:
    """A per-function deadline clamped to a caller's remaining
    wall-clock budget.

    End-to-end deadline propagation: the service threads each batch's
    tightest surviving request deadline through here, so a slow solve
    runs out of in-band solver ticks (:class:`~repro.errors.SolveTimeout`,
    degraded to a ``timed-out-partial`` outcome) instead of outliving
    the caller. A non-positive budget is clamped to a near-zero
    deadline: the solve fails fast rather than being granted infinity."""
    if budget_s is None:
        return deadline_s
    budget_s = max(float(budget_s), 1e-6)
    if deadline_s is not None and deadline_s <= budget_s:
        return deadline_s
    return budget_s


@dataclass
class FunctionOutcome:
    """What happened to one function on its way into the report."""

    function: str
    status: str          # ok|cache-hit|dedupe-hit|timed-out-partial

    def as_dict(self) -> dict:
        return {"function": self.function, "status": self.status}


@dataclass
class SessionOutcomes:
    """Per-function outcome records plus session-level fault events."""

    records: dict = field(default_factory=dict)  # name -> FunctionOutcome
    #: Faults the injector fired during the session (the store handles
    #: its own), in firing order.
    session_faults: list = field(default_factory=list)

    def record(self, outcome: FunctionOutcome) -> None:
        self.records[outcome.function] = outcome

    def note_fault(self, description: str) -> None:
        self.session_faults.append(description)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for outcome in self.records.values():
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def as_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "functions": [o.as_dict() for o in self.records.values()],
            "session_faults": list(self.session_faults),
        }
