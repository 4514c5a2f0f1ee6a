"""Detection scheduling: one compiled plan set, batched functions, an
optional supervised thread pool.

A :class:`DetectionSession` is the unit of repository-scale detection:
it compiles every idiom's execution plan once, shares one
:class:`FunctionAnalyses` per function across all idioms, batches the
module's functions and, with ``workers > 1``, fans the batches out over
a thread pool that shares the IR in place. Results are merged back in
module order, so a parallel session produces a :class:`DetectionReport`
identical to the sequential one — same matches, same order.

Execution is **supervised** (:mod:`repro.reliability.supervisor`): every
function gets a wall-clock deadline (``deadline_s``, enforced in-band by
the solver via :class:`~repro.errors.SolveTimeout`, sampled every 4,096
ticks), transient failures are retried with backoff (``max_retries``),
and a thread tier that keeps failing degrades to serial. Nothing kills a
solve that hangs outside the solver; the in-band deadline is the only
bound. The session always returns a complete report — every function
appears, in module order — and ``report.outcomes`` /
``session.outcomes`` records what it took per function (ok, cache-hit,
retried, timed-out-partial, degraded).

When the detector carries an artifact cache (:mod:`repro.cache`), the
session consults it *before* scheduling: every function whose fingerprint
has a stored entry is served from the store (matches decoded against the
caller's IR, solve stats restored), and only the remaining functions are
solved. Freshly solved functions are written back — except timed-out
partial results, which must never be served as the function's truth
later — and hits and fresh solves are merged in module order, so the
report is bit-identical to a cold run's: same matches, same order, same
aggregated stats.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError
from ..ir.module import Module
from ..reliability import faults
from ..reliability.supervisor import (
    FunctionOutcome,
    RetryPolicy,
    SessionOutcomes,
    Supervisor,
)
from .matches import DetectionReport


class InflightLedger:
    """Cross-request in-flight dedupe for concurrent detection sessions.

    The serving layer's second dedupe tier (the first is the store): when
    two tenants submit the same function while the first solve is still
    running, the second session must *await the first's future*, not
    re-solve. The ledger maps a function's content fingerprint to a
    future resolving to its :func:`~repro.cache.detection.encode_detection`
    payload — structural, so any session can decode it against its own
    module's IR objects.

    Protocol: :meth:`claim` returns ``(is_owner, future)``. The owner
    solves and must :meth:`publish` the payload (or None when the result
    cannot be replayed — waiters then solve locally); publishing pops the
    key, so the in-flight window is exactly the solve's duration and the
    store takes over afterwards. ``publish`` is idempotent per claim,
    letting owners publish None from a ``finally`` as a no-deadlock
    backstop."""

    def __init__(self, wait_s: float = 120.0):
        #: How long a waiter blocks on an owner before giving up and
        #: solving locally (a safety valve, not a correctness knob).
        self.wait_s = wait_s
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}

    def claim(self, key: str) -> tuple[bool, Future]:
        with self._lock:
            future = self._futures.get(key)
            if future is not None:
                return False, future
            future = Future()
            self._futures[key] = future
            return True, future

    def publish(self, key: str, payload: dict | None) -> None:
        with self._lock:
            future = self._futures.pop(key, None)
        if future is not None:
            future.set_result(payload)

    def pending(self) -> int:
        with self._lock:
            return len(self._futures)


class _Job:
    """One function scheduled for detection.

    ``uid`` doubles as the supervisor-facing ``name``: :meth:`detect`
    uses the function name, while :meth:`DetectionSession.detect_many`
    qualifies it with the module's position, because function names
    collide across tenants' modules and supervisor bookkeeping (and the
    session's ``analyses`` map) key on it. ``text`` is the canonical
    print (None when nothing needed it) and ``key`` the content
    fingerprint (detect_many only)."""

    __slots__ = ("uid", "function", "module", "text", "globals_sig", "key")

    def __init__(self, uid, function, module, text=None, globals_sig=None,
                 key=None):
        self.uid = uid
        self.function = function
        self.module = module
        self.text = text
        self.globals_sig = globals_sig
        self.key = key

    @property
    def name(self) -> str:
        return self.uid


class DetectionSession:
    """Shared-plan, batched, supervised, optionally threaded detection."""

    def __init__(self, detector=None, workers: int = 1,
                 deadline_s: float | None = None, max_retries: int = 2,
                 backoff_s: float = 0.05):
        if detector is None:
            from .detector import IdiomDetector

            detector = IdiomDetector()
        self.detector = detector
        self.workers = max(1, int(workers))
        self.policy = RetryPolicy(deadline_s=deadline_s,
                                  max_retries=max(0, int(max_retries)),
                                  backoff_s=backoff_s)
        #: Per-function reliability records for the most recent detect()
        #: call (also attached to the report as ``report.outcomes``).
        self.outcomes = SessionOutcomes()
        #: FunctionAnalyses per function name (per job uid in
        #: detect_many), reset and refilled by each detect() call for
        #: reuse by later pipeline stages. Cache-served functions have
        #: no entry — nothing was analysed for them.
        self.analyses: dict[str, FunctionAnalyses] = {}
        #: Artifact-cache accounting for the most recent detect() call:
        #: functions served from the store vs actually solved (always 0 /
        #: all-functions without a cache).
        self.cache_hits = 0
        self.cache_misses = 0
        #: detect_many() dedupe accounting: functions replayed from an
        #: identical function solved in the same fan-out / from another
        #: session's in-flight future, and functions actually solved.
        self.dedupe_hits = 0
        self.inflight_hits = 0
        self.solved_functions = 0

    # -- public API ---------------------------------------------------------------
    def detect(self, module: Module) -> DetectionReport:
        functions = [f for f in module.functions.values()
                     if not f.is_declaration()]
        report = DetectionReport(module.name)
        self.analyses = {}
        self.cache_hits = self.cache_misses = 0
        self.dedupe_hits = self.inflight_hits = self.solved_functions = 0
        self.outcomes = SessionOutcomes()
        report.outcomes = self.outcomes
        if not functions:
            return report
        plan = faults.active_plan()
        fired_before = len(plan.fired) if plan is not None else 0
        cache = self.detector.cache
        warm: dict[str, object] = {}
        if cache is not None:
            from ..cache.fingerprint import globals_signature
            from ..ir.printer import print_function_canonical

            globals_sig = globals_signature(module)
            cold = []
            for function in functions:
                text = print_function_canonical(function)
                entry = cache.load(function, module, globals_sig, text)
                if entry is not None:
                    warm[function.name] = entry
                else:
                    cold.append(_Job(function.name, function, module,
                                     text, globals_sig))
            self.cache_hits = len(warm)
        else:
            cold = [_Job(f.name, f, module) for f in functions]
        self.cache_misses = self.solved_functions = len(cold)
        for name in warm:
            self.outcomes.record(
                FunctionOutcome(name, "cache-hit", "cache", attempts=0))
        solved = self._run(cold) if cold else {}
        for job in cold:
            self._save(cache, job, *solved[job.uid])
        if plan is not None:
            for event in plan.fired[fired_before:]:
                self.outcomes.note_fault(
                    "fault injected at {site} (kind {kind}, occurrence "
                    "{occurrence}, epoch {epoch}, key {key!r})"
                    .format(**event))
        # Deterministic merge in module order, hits and fresh solves
        # interleaved — bit-identical to the all-cold report.
        for function in functions:
            entry = warm.get(function.name)
            if entry is not None:
                matches, stats = entry.matches, entry.stats
            else:
                matches, stats, _ = solved[function.name]
            report.matches.extend(matches)
            report.stats.merge(stats)
        return report

    def detect_many(self, modules, dedupe: bool = True,
                    inflight: InflightLedger | None = None
                    ) -> list[DetectionReport]:
        """Detect across several modules in ONE supervised fan-out — the
        serving layer's micro-batch unit.

        All modules' cold functions are batched into a single run (uids
        disambiguate colliding function names). Three dedupe tiers serve
        a function without solving it, every one replaying the same
        structural wire format so each module's report still references
        its own IR objects:

        1. the artifact store (when the detector carries a cache),
        2. ``dedupe=True``: identical functions *within this fan-out* —
           one representative per content fingerprint is solved, the
           rest decode its encoded result (cross-tenant overlap),
        3. ``inflight``: fingerprints another session is solving right
           now — this session awaits that future instead of re-solving.

        Results that cannot be replayed (timed-out partials, unencodable
        bindings) fall back to a local solve, so dedupe can degrade but
        never change a report. Per-module reports are merged in module
        order and are bit-identical to per-module :meth:`detect` calls.
        """
        from ..cache.detection import encode_detection
        from ..cache.fingerprint import (
            function_fingerprint,
            globals_signature,
        )
        from ..ir.printer import print_function_canonical

        modules = list(modules)
        self.analyses = {}
        self.cache_hits = self.cache_misses = 0
        self.dedupe_hits = self.inflight_hits = self.solved_functions = 0
        self.outcomes = SessionOutcomes()
        cache = self.detector.cache
        config_sig = self.detector.config_signature()

        results: dict[str, tuple] = {}  # uid -> (matches, stats)
        jobs_by_module: list[list[_Job]] = []
        cold: list[_Job] = []
        for index, module in enumerate(modules):
            globals_sig = globals_signature(module)
            module_jobs: list[_Job] = []
            for function in module.functions.values():
                if function.is_declaration():
                    continue
                text = print_function_canonical(function)
                key = function_fingerprint(function, config_sig,
                                           globals_sig, text)
                job = _Job(f"m{index}:{function.name}", function, module,
                           text, globals_sig, key)
                module_jobs.append(job)
                entry = cache.load(function, module, globals_sig, text) \
                    if cache is not None else None
                if entry is not None:
                    results[job.uid] = (entry.matches, entry.stats)
                    self.outcomes.record(FunctionOutcome(
                        job.uid, "cache-hit", "cache", attempts=0))
                else:
                    cold.append(job)
            jobs_by_module.append(module_jobs)
        self.cache_hits = len(results)
        self.cache_misses = len(cold)

        # Tier 2/3 grouping: one group per content fingerprint. Without
        # dedupe every job is its own group (the "!" prefix keeps two
        # identical functions apart and out of any shared ledger key).
        groups: dict[str, list[_Job]] = {}
        for position, job in enumerate(cold):
            group_key = job.key if dedupe else f"!{position}:{job.key}"
            groups.setdefault(group_key, []).append(job)
        owned: set[str] = set()
        waiting: dict[str, Future] = {}
        if inflight is not None and dedupe:
            for group_key in groups:
                is_owner, future = inflight.claim(group_key)
                if is_owner:
                    owned.add(group_key)
                else:
                    waiting[group_key] = future
        scheduled = [group[0] for group_key, group in groups.items()
                     if group_key not in waiting]

        try:
            solved = self._run(scheduled) if scheduled else {}
            self.solved_functions += len(scheduled)

            for group_key, group in groups.items():
                if group_key in waiting:
                    continue
                representative = group[0]
                matches, stats, summary = solved[representative.uid]
                results[representative.uid] = (matches, stats)
                self._save(cache, representative, matches, stats, summary)
                payload = None
                if len(group) > 1 or group_key in owned:
                    payload = encode_detection(representative.function,
                                               matches, stats)
                if group_key in owned:
                    inflight.publish(group_key, payload)
                for duplicate in group[1:]:
                    self._serve_job(duplicate, payload, results,
                                    "dedupe-hit")
        finally:
            if inflight is not None:
                # Backstop: resolve any future this session still owns
                # (solve failed before publishing) so waiters elsewhere
                # fall back to their own solve instead of deadlocking.
                for group_key in owned:
                    inflight.publish(group_key, None)

        for group_key, future in waiting.items():
            try:
                payload = future.result(timeout=inflight.wait_s)
            except Exception:
                payload = None
            for job in groups[group_key]:
                self._serve_job(job, payload, results, "inflight-hit")

        reports = []
        for module, module_jobs in zip(modules, jobs_by_module):
            report = DetectionReport(module.name)
            report.outcomes = self.outcomes
            for job in module_jobs:
                matches, stats = results[job.uid]
                report.matches.extend(matches)
                report.stats.merge(stats)
            reports.append(report)
        return reports

    def _serve_job(self, job: _Job, payload: dict | None,
                   results: dict, status: str) -> None:
        """Serve one deduped job from an encoded payload, falling back
        to a local serial solve (recorded, cached) when the payload is
        missing or does not decode."""
        from ..cache.detection import decode_detection

        if payload is not None:
            try:
                entry = decode_detection(payload, job.function, job.module)
            except (IDLError, KeyError, IndexError, TypeError, ValueError):
                entry = None
            if entry is not None:
                results[job.uid] = (entry.matches, entry.stats)
                if status == "inflight-hit":
                    self.inflight_hits += 1
                else:
                    self.dedupe_hits += 1
                self.outcomes.record(FunctionOutcome(
                    job.uid, status, "dedupe", attempts=0))
                return
        uid, matches, stats, summary = self._solve(job)
        results[uid] = (matches, stats)
        self.solved_functions += 1
        self._save(self.detector.cache, job, matches, stats, summary)
        self.outcomes.record(FunctionOutcome(uid, "ok", "serial"))

    # -- solving primitives -------------------------------------------------------
    def _run(self, jobs: list[_Job]) -> dict:
        """Solve ``jobs`` through the supervisor's ladder; returns
        uid -> (matches, stats, summary) and records each outcome."""
        # Compile up front: pool threads must only read the compiler
        # caches (the shared Lowerer's memo machinery, like the forest
        # builder, is not safe to run concurrently).
        self.detector.warmup()
        supervisor = Supervisor(self.policy, self.outcomes,
                                workers=self.workers)
        rows = supervisor.run(jobs, self._solve, self._batches)
        solved = {uid: (matches, stats, summary)
                  for uid, matches, stats, summary in rows.values()}
        self._record_outcomes(jobs, solved, supervisor)
        return solved

    def _solve(self, job: _Job, epoch: int = 0) -> tuple:
        """Solve one function in-process — the unit both tiers run; the
        row is keyed by the job's uid."""
        function = job.function
        faults.maybe_fire("worker.solve", function.name)
        cache = self.detector.cache
        analyses = FunctionAnalyses(function)
        adopted = False
        if cache is not None:
            # Body-keyed summaries survive config changes: a re-solve
            # under new limits / idiom sets still skips re-deriving the
            # feasibility-signature inputs.
            summary = cache.load_summary(function, job.text)
            if summary is not None:
                analyses.adopt_summary(summary)
                adopted = True
        self.analyses[job.uid] = analyses
        matches, stats = self.detector.detect_function_with_stats(
            function, analyses, deadline_s=self.policy.deadline_s)
        # An adopted summary is already in the store — returning None
        # keeps save() from recomputing (loop info) and rewriting it.
        return (job.uid, matches, stats,
                None if adopted or cache is None else analyses.summary())

    @staticmethod
    def _save(cache, job: _Job, matches, stats, summary) -> None:
        """Write one fresh solve back to the store; timed-out partial
        results are never stored."""
        if cache is not None and not stats.timed_out:
            cache.save(job.function, matches, stats, summary,
                       job.globals_sig, text=job.text)

    def _batches(self, jobs: list[_Job]) -> list[list[_Job]]:
        # Small batches load-balance; at least one per worker.
        size = max(1, -(-len(jobs) // (self.workers * 4)))
        return [jobs[i:i + size] for i in range(0, len(jobs), size)]

    def _record_outcomes(self, jobs, solved, supervisor) -> None:
        for job in jobs:
            name = job.name
            _, stats, _ = solved[name]
            meta = supervisor.meta.get(name, {})
            seen = tuple(meta.get("faults", ()))
            # Completions plus failed attempts the supervisor charged to
            # this function's batches.
            attempts = max(1, meta.get("attempts", 0) + len(seen))
            if getattr(stats, "timed_out", False):
                status = "timed-out-partial"
            elif meta.get("degraded"):
                status = "degraded"
            elif attempts > 1:
                status = "retried"
            else:
                status = "ok"
            self.outcomes.record(FunctionOutcome(
                name, status, meta.get("tier") or "serial",
                attempts=attempts, faults=seen))
