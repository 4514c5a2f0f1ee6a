"""Supervised fan-out: deadlines, retries, respawn, staged degradation.

The :class:`Supervisor` owns the execution ladder a
:class:`~repro.idioms.scheduler.DetectionSession` runs its cold
functions through. The contract with the caller is deliberately narrow —
the session supplies

* ``solve_one(function, epoch) -> row`` — solve one function in-process
  (rows are tuples whose first element is the function name),
* ``batcher(functions) -> batches`` — the load-balancing split,
* and, for process mode, a pool factory / submit / decode triple that
  speaks the session's textual-IR wire format —

and the supervisor guarantees: **every function produces exactly one
row**, in a dict the caller merges deterministically in module order, no
matter what the workers do. Worker death (``BrokenProcessPool``) respawns
the pool and re-solves only the unfinished functions; a batch stuck past
its wall-clock allowance is killed and retried; transient failures
(:class:`~repro.errors.InjectedFault`, pool breakage, timeouts) are
retried with backoff up to ``max_retries`` per tier; a tier that keeps
failing degrades process → thread → serial. Only a *persistent,
non-transient* error — one that survives serial retry — propagates,
because at that point the failure is the workload's, not the
infrastructure's.

Interrupts (``KeyboardInterrupt``) shut pools down with
``cancel_futures=True`` before re-raising, so an interrupted session
leaks no worker processes.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    Future,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from ..errors import InjectedFault
from . import faults

#: Failure classes the ladder retries/degrades on. Anything else is a
#: deterministic workload error and propagates exactly as it did before
#: the reliability layer existed.
TRANSIENT = (InjectedFault, BrokenProcessPool, FutureTimeout)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs, threaded from the CLI / session constructor."""

    deadline_s: float | None = None  # per-function wall-clock allowance
    max_retries: int = 2             # per tier, for transient failures
    backoff_s: float = 0.05          # base sleep between retries (linear)
    grace_s: float = 1.0             # slack added to out-of-band waits

    def batch_timeout(self, batch_len: int) -> float | None:
        """Out-of-band allowance for a whole batch (process tier)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s * max(1, batch_len) + self.grace_s

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
    tier: str            # cache|process|thread|serial
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
    #: Handled faults not attributable to one function (pool deaths,
    #: store faults, injector firings), in observation order.
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
                 mode: str = "thread", workers: int = 1):
        self.policy = policy
        self.outcomes = outcomes
        self.mode = mode
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
    def run(self, functions, solve_one, batcher, process_pool=None,
            process_submit=None, process_decode=None) -> dict:
        """Rows for every function in ``functions`` (dict name -> row)."""
        done: dict[str, object] = {}
        remaining = list(functions)
        tiers = {"process": ("process", "thread", "serial"),
                 "thread": ("thread", "serial"),
                 "serial": ("serial",)}[self.mode]
        for tier in tiers:
            if not remaining:
                break
            degraded = tier != self.mode
            if tier == "process":
                self._run_process(remaining, done, batcher, process_pool,
                                  process_submit, process_decode)
            elif tier == "thread":
                self._run_thread(remaining, done, solve_one, batcher,
                                 degraded)
            else:
                self._run_serial(remaining, done, solve_one, degraded)
            remaining = [f for f in remaining if f.name not in done]
        if remaining:  # pragma: no cover - serial tier never leaves work
            raise RuntimeError(
                f"supervisor left {len(remaining)} functions unsolved")
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

    def _run_process(self, functions, done, batcher, process_pool,
                     process_submit, process_decode) -> None:
        policy = self.policy
        remaining = list(functions)
        for attempt in range(policy.max_retries + 1):
            if not remaining:
                return
            if attempt:
                self._backoff(attempt - 1)
            pool = process_pool(self.workers, self.epoch)
            batches = batcher(remaining)
            try:
                futures: list[tuple[Future, list]] = []
                failed = False
                for batch in batches:
                    try:
                        futures.append(
                            (process_submit(pool, batch, self.epoch), batch))
                    except BrokenProcessPool:
                        # A worker died before this submit (e.g. in its
                        # initializer): the pool takes no more work.
                        self._note_batch_failure(
                            batch, "worker process died "
                            "(BrokenProcessPool) before the batch was "
                            "submitted; pool respawned for the "
                            "unfinished functions")
                        failed = True
                        break
                for future, batch in futures:
                    timeout = policy.batch_timeout(len(batch))
                    try:
                        raw = future.result(timeout=timeout)
                    except FutureTimeout:
                        self._note_batch_failure(
                            batch, f"process batch of {len(batch)} "
                            f"functions exceeded its "
                            f"{timeout:.2f}s allowance; workers killed "
                            f"and the batch re-solved")
                        self._kill_pool(pool)
                        failed = True
                        break
                    except BrokenProcessPool:
                        self._note_batch_failure(
                            batch, "worker process died "
                            "(BrokenProcessPool); pool respawned for "
                            "the unfinished functions")
                        failed = True
                        break
                    except InjectedFault as exc:
                        self._note_batch_failure(batch, str(exc))
                        failed = True
                        break
                    self._mark_done(process_decode(raw), done, "process",
                                    False)
                pool.shutdown(wait=False, cancel_futures=True)
                if not failed:
                    return
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                self._kill_pool(pool)
                raise
            self._bump_epoch()
            remaining = [f for f in remaining if f.name not in done]
        # retries exhausted with work left: the caller degrades to the
        # next tier (remaining recomputed there).

    @staticmethod
    def _kill_pool(pool) -> None:
        """Terminate a pool whose workers may be hung (shutdown alone
        would join them forever)."""
        # A broken pool has already dropped its process table (None).
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass

    def _run_thread(self, functions, done, solve_one, batcher,
                    degraded: bool) -> None:
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
                        self._mark_done(rows, done, "thread", degraded)
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
