"""Supervised fan-out: deadlines, retries, staged degradation.

The :class:`Supervisor` owns the execution ladder a
:class:`~repro.idioms.scheduler.DetectionSession` runs its cold
functions through. The contract with the caller is deliberately narrow —
the session supplies

* ``solve_one(function, epoch) -> row`` — solve one function in-process
  (rows are tuples whose first element is the function name),
* ``batcher(functions) -> batches`` — the thread tier's load-balancing
  split —

and the supervisor guarantees: **every function produces exactly one
row**, in a dict the caller merges deterministically in module order.
The ladder is thread → serial with ``workers > 1`` and serial alone
otherwise. Transient failures (:class:`~repro.errors.InjectedFault`) are
retried with backoff up to ``max_retries`` per tier, and a thread tier
that keeps failing degrades to serial. Only a *persistent,
non-transient* error — one that survives serial retry — propagates,
because at that point the failure is the workload's, not the
infrastructure's.

Every tier runs in-process, so a per-function deadline is enforced only
in-band, by the solver's sampled wall clock
(:class:`~repro.errors.SolveTimeout`); a solve that hangs outside the
solver is not interrupted.

Interrupts (``KeyboardInterrupt``) shut the thread pool down with
``cancel_futures=True`` before re-raising.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from ..errors import InjectedFault
from . import faults

#: Failure classes the ladder retries/degrades on. Anything else is a
#: deterministic workload error and propagates exactly as it did before
#: the reliability layer existed.
TRANSIENT = (InjectedFault,)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs, threaded from the CLI / session constructor."""

    deadline_s: float | None = None  # per-function wall-clock allowance
    max_retries: int = 2             # per tier, for transient failures
    backoff_s: float = 0.05          # base sleep between retries (linear)

    def tightened(self, budget_s: float | None) -> "RetryPolicy":
        """This policy with its per-function deadline clamped to a
        caller's remaining wall-clock budget.

        End-to-end deadline propagation: the service threads each
        batch's tightest surviving request deadline through here, so a
        slow solve runs out of in-band solver ticks
        (:class:`~repro.errors.SolveTimeout`, degraded to a
        ``timed-out-partial`` outcome) instead of outliving the caller.
        A non-positive budget is clamped to a near-zero deadline: the
        solve fails fast rather than being granted infinity."""
        if budget_s is None:
            return self
        budget_s = max(float(budget_s), 1e-6)
        if self.deadline_s is not None and self.deadline_s <= budget_s:
            return self
        return replace(self, deadline_s=budget_s)


@dataclass
class FunctionOutcome:
    """What happened to one function on its way into the report."""

    function: str
    status: str          # ok|cache-hit|retried|timed-out-partial|degraded
    tier: str            # cache|dedupe|thread|serial
    attempts: int = 1
    faults: tuple = ()   # human-readable handled-fault descriptions

    def as_dict(self) -> dict:
        return {"function": self.function, "status": self.status,
                "tier": self.tier, "attempts": self.attempts,
                "faults": list(self.faults)}


@dataclass
class SessionOutcomes:
    """Per-function outcome records plus session-level fault events."""

    records: dict = field(default_factory=dict)  # name -> FunctionOutcome
    #: Handled faults not attributable to one function (failed thread
    #: batches, store faults, injector firings), in observation order.
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

    def ordered(self, names) -> list:
        return [self.records[n] for n in names if n in self.records]

    def as_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "functions": [o.as_dict() for o in self.records.values()],
            "session_faults": list(self.session_faults),
        }


class Supervisor:
    """Runs the ladder; collects one row per function, come what may."""

    def __init__(self, policy: RetryPolicy, outcomes: SessionOutcomes,
                 workers: int = 1):
        self.policy = policy
        self.outcomes = outcomes
        self.workers = max(1, int(workers))
        self.epoch = 0
        #: name -> {"attempts": int, "faults": [str], "tier": str}
        self.meta: dict[str, dict] = {}

    # -- bookkeeping ---------------------------------------------------------
    def _meta(self, name: str) -> dict:
        meta = self.meta.get(name)
        if meta is None:
            meta = self.meta[name] = {"attempts": 0, "faults": [],
                                      "tier": "", "degraded": False}
        return meta

    def _note_batch_failure(self, batch, description: str) -> None:
        self.outcomes.note_fault(description)
        for function in batch:
            self._meta(function.name)["faults"].append(description)

    def _bump_epoch(self) -> None:
        self.epoch += 1
        plan = faults.active_plan()
        if plan is not None:
            plan.epoch = self.epoch

    def _backoff(self, attempt: int) -> None:
        if self.policy.backoff_s > 0:
            time.sleep(self.policy.backoff_s * (attempt + 1))

    # -- entry point ---------------------------------------------------------
    def run(self, functions, solve_one, batcher) -> dict:
        """Rows for every function in ``functions`` (dict name -> row)."""
        done: dict[str, object] = {}
        remaining = list(functions)
        if self.workers > 1:
            self._run_thread(remaining, done, solve_one, batcher)
            remaining = [f for f in remaining if f.name not in done]
        if remaining:
            self._run_serial(remaining, done, solve_one,
                             degraded=self.workers > 1)
        return done

    # -- tiers ---------------------------------------------------------------
    def _mark_done(self, rows, done: dict, tier: str,
                   degraded: bool) -> None:
        for row in rows:
            name = row[0]
            done[name] = row
            meta = self._meta(name)
            meta["attempts"] += 1
            meta["tier"] = tier
            meta["degraded"] = degraded

    def _run_thread(self, functions, done, solve_one, batcher) -> None:
        policy = self.policy
        remaining = list(functions)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            try:
                for attempt in range(policy.max_retries + 1):
                    if not remaining:
                        return
                    if attempt:
                        self._backoff(attempt - 1)
                    epoch = self.epoch

                    def run_batch(batch, _epoch=epoch):
                        return [solve_one(f, _epoch) for f in batch]

                    batches = batcher(remaining)
                    futures = [(pool.submit(run_batch, batch), batch)
                               for batch in batches]
                    failed = False
                    for future, batch in futures:
                        try:
                            rows = future.result()
                        except InjectedFault as exc:
                            self._note_batch_failure(batch, str(exc))
                            failed = True
                            continue
                        self._mark_done(rows, done, "thread", False)
                    if not failed:
                        return
                    self._bump_epoch()
                    remaining = [f for f in remaining
                                 if f.name not in done]
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    def _run_serial(self, functions, done, solve_one,
                    degraded: bool) -> None:
        policy = self.policy
        for function in functions:
            for attempt in range(policy.max_retries + 1):
                try:
                    row = solve_one(function, self.epoch)
                except TRANSIENT as exc:
                    self._meta(function.name)["faults"].append(str(exc))
                    self.outcomes.note_fault(str(exc))
                    self._bump_epoch()
                    if attempt >= policy.max_retries:
                        raise
                    self._backoff(attempt)
                    continue
                self._mark_done([row], done, "serial", degraded)
                break
