"""Detection scheduling: one compiled plan set, functions solved one
after another.

A :class:`DetectionSession` is the unit of repository-scale detection:
it compiles every idiom's execution plan once, shares one
:class:`FunctionAnalyses` per function across all idioms and solves the
module's functions in module order, so the :class:`DetectionReport` is
deterministic — same matches, same order.

Every function gets a wall-clock deadline (``deadline_s``, enforced
in-band by the solver via :class:`~repro.errors.SolveTimeout`, sampled
every 4,096 ticks); a function that runs out of time contributes the
idioms it completed. Nothing kills a solve that hangs outside the
solver; the in-band deadline is the only bound. Any other error
propagates. The session always returns a complete report — every
function appears, in module order — and ``report.outcomes`` records what
each function took (ok, cache-hit, dedupe-hit, timed-out-partial).

When the detector carries an artifact cache (:mod:`repro.cache`), the
session consults it *before* solving: every function whose fingerprint
has a stored entry is served from the store (matches decoded against the
caller's IR, solve stats restored), and only the remaining functions are
solved. Freshly solved functions are written back — except timed-out
partial results, which must never be served as the function's truth
later — and hits and fresh solves are merged in module order, so the
report is bit-identical to a cold run's: same matches, same order, same
aggregated stats.
"""

from __future__ import annotations

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError
from ..ir.module import Module
from ..reliability import faults
from ..reliability.supervisor import (
    FunctionOutcome,
    RetryPolicy,
    SessionOutcomes,
)
from .matches import DetectionReport


class _Job:
    """One function scheduled for detection.

    ``uid`` keys the session's results and ``analyses`` map:
    :meth:`DetectionSession.detect` uses the function name, while
    :meth:`DetectionSession.detect_many` qualifies it with the module's
    position, because function names collide across tenants' modules.
    ``outcomes`` is the record set of the job's own module, keyed by
    function name. ``text`` is the canonical print (None when nothing
    needed it) and ``key`` the content fingerprint (detect_many only)."""

    __slots__ = ("uid", "function", "module", "outcomes", "text",
                 "globals_sig", "key")

    def __init__(self, uid, function, module, outcomes, text=None,
                 globals_sig=None, key=None):
        self.uid = uid
        self.function = function
        self.module = module
        self.outcomes = outcomes
        self.text = text
        self.globals_sig = globals_sig
        self.key = key

    def record(self, status: str) -> None:
        self.outcomes.record(FunctionOutcome(self.function.name, status))


class DetectionSession:
    """Shared-plan, cache-aware detection of one module or one batch."""

    def __init__(self, detector=None, deadline_s: float | None = None):
        if detector is None:
            from .detector import IdiomDetector

            detector = IdiomDetector()
        self.detector = detector
        self.policy = RetryPolicy(deadline_s=deadline_s)
        #: Per-function records for the most recent detect() call (also
        #: attached to the report as ``report.outcomes``); detect_many()
        #: attaches one record set per module to that module's report.
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
        #: identical function solved in the same batch, and functions
        #: actually solved.
        self.dedupe_hits = 0
        self.solved_functions = 0

    # -- public API ---------------------------------------------------------------
    def detect(self, module: Module) -> DetectionReport:
        functions = [f for f in module.functions.values()
                     if not f.is_declaration()]
        report = DetectionReport(module.name)
        self.analyses = {}
        self.cache_hits = self.cache_misses = 0
        self.dedupe_hits = self.solved_functions = 0
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
                                     self.outcomes, text, globals_sig))
            self.cache_hits = len(warm)
        else:
            cold = [_Job(f.name, f, module, self.outcomes)
                    for f in functions]
        self.cache_misses = self.solved_functions = len(cold)
        for name in warm:
            self.outcomes.record(FunctionOutcome(name, "cache-hit"))
        solved = self._run(cold)
        for job in cold:
            self._save(cache, job, *solved[job.uid])
        if plan is not None:
            for event in plan.fired[fired_before:]:
                self.outcomes.note_fault(
                    "fault injected at {site} (kind {kind}, occurrence "
                    "{occurrence}, key {key!r})".format(**event))
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

    def detect_many(self, modules, dedupe: bool = True
                    ) -> list[DetectionReport]:
        """Detect across several modules in one batch — the serving
        layer's micro-batch unit.

        All modules' cold functions are solved in one run (uids
        disambiguate colliding function names). Two tiers serve a
        function without solving it, both replaying the same structural
        wire format so each module's report still references its own IR
        objects:

        1. the artifact store (when the detector carries a cache),
        2. ``dedupe=True``: identical functions *within this batch* —
           one representative per content fingerprint is solved, the
           rest decode its encoded result (cross-tenant overlap).

        Results that cannot be replayed (timed-out partials, unencodable
        bindings) fall back to a local solve, so dedupe can degrade but
        never change a report. Per-module reports are merged in module
        order and are bit-identical to per-module :meth:`detect` calls;
        each carries only its own module's outcome records.
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
        self.dedupe_hits = self.solved_functions = 0
        self.outcomes = SessionOutcomes()
        cache = self.detector.cache
        config_sig = self.detector.config_signature()

        results: dict[str, tuple] = {}  # uid -> (matches, stats)
        reports: list[DetectionReport] = []
        jobs_by_module: list[list[_Job]] = []
        cold: list[_Job] = []
        for index, module in enumerate(modules):
            report = DetectionReport(module.name)
            report.outcomes = SessionOutcomes()
            reports.append(report)
            globals_sig = globals_signature(module)
            module_jobs: list[_Job] = []
            for function in module.functions.values():
                if function.is_declaration():
                    continue
                text = print_function_canonical(function)
                key = function_fingerprint(function, config_sig,
                                           globals_sig, text)
                job = _Job(f"m{index}:{function.name}", function, module,
                           report.outcomes, text, globals_sig, key)
                module_jobs.append(job)
                entry = cache.load(function, module, globals_sig, text) \
                    if cache is not None else None
                if entry is not None:
                    results[job.uid] = (entry.matches, entry.stats)
                    job.record("cache-hit")
                else:
                    cold.append(job)
            jobs_by_module.append(module_jobs)
        self.cache_hits = len(results)
        self.cache_misses = len(cold)

        # One group per content fingerprint. Without dedupe every job is
        # its own group (the "!" prefix keeps two identical functions
        # apart).
        groups: dict[str, list[_Job]] = {}
        for position, job in enumerate(cold):
            group_key = job.key if dedupe else f"!{position}:{job.key}"
            groups.setdefault(group_key, []).append(job)
        representatives = [group[0] for group in groups.values()]
        solved = self._run(representatives)
        self.solved_functions += len(representatives)
        for group in groups.values():
            representative = group[0]
            matches, stats, summary = solved[representative.uid]
            results[representative.uid] = (matches, stats)
            self._save(cache, representative, matches, stats, summary)
            if len(group) > 1:
                payload = encode_detection(representative.function,
                                           matches, stats)
                for duplicate in group[1:]:
                    self._serve_duplicate(duplicate, payload, results)

        for report, module_jobs in zip(reports, jobs_by_module):
            for job in module_jobs:
                matches, stats = results[job.uid]
                report.matches.extend(matches)
                report.stats.merge(stats)
        return reports

    def _serve_duplicate(self, job: _Job, payload: dict | None,
                         results: dict) -> None:
        """Serve one deduped job from its representative's encoded
        payload, falling back to a local solve (recorded, cached) when
        the payload is missing or does not decode."""
        from ..cache.detection import decode_detection

        if payload is not None:
            try:
                entry = decode_detection(payload, job.function, job.module)
            except (IDLError, KeyError, IndexError, TypeError, ValueError):
                entry = None
            if entry is not None:
                results[job.uid] = (entry.matches, entry.stats)
                self.dedupe_hits += 1
                job.record("dedupe-hit")
                return
        matches, stats, summary = self._run([job])[job.uid]
        results[job.uid] = (matches, stats)
        self.solved_functions += 1
        self._save(self.detector.cache, job, matches, stats, summary)

    # -- solving primitives -------------------------------------------------------
    def _run(self, jobs: list[_Job]) -> dict:
        """Solve ``jobs`` one after another; returns
        uid -> (matches, stats, summary) and records each outcome."""
        solved = {}
        for job in jobs:
            solved[job.uid] = self._solve(job)
            job.record("timed-out-partial" if solved[job.uid][1].timed_out
                       else "ok")
        return solved

    def _solve(self, job: _Job) -> tuple:
        """Solve one function in-process."""
        function = job.function
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
        return (matches, stats,
                None if adopted or cache is None else analyses.summary())

    @staticmethod
    def _save(cache, job: _Job, matches, stats, summary) -> None:
        """Write one fresh solve back to the store; timed-out partial
        results are never stored."""
        if cache is not None and not stats.timed_out:
            cache.save(job.function, matches, stats, summary,
                       job.globals_sig, text=job.text)
