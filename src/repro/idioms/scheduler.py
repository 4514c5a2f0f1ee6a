"""Detection scheduling: one compiled plan set, functions solved one
after another.

A :class:`DetectionSession` is the unit of repository-scale detection:
it compiles every idiom's execution plan once, shares one
:class:`FunctionAnalyses` per function across all idioms and solves the
functions of one module, or of a batch of modules, in module order, so
each :class:`DetectionReport` is deterministic — same matches, same
order. :meth:`~DetectionSession.detect` is a batch of one.

Every function gets a wall-clock deadline (``deadline_s``, enforced
in-band by the solver via :class:`~repro.errors.SolveTimeout`, sampled
every 4,096 ticks); a function that runs out of time contributes the
idioms it completed. Nothing kills a solve that hangs outside the
solver; the in-band deadline is the only bound. Any other error
propagates. The session always returns complete reports — every
function appears, in module order — and ``report.outcomes`` maps each
function's name to what it took (ok, cache-hit, dedupe-hit,
timed-out-partial); :meth:`~DetectionSession.counts` tallies those
records over the last call.

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

from collections import Counter

from ..errors import IDLError
from ..ir.module import Module
from .matches import DetectionReport


class _Job:
    """One function scheduled for detection.

    ``uid`` keys the call's results; it qualifies the function name with
    the module's position, because function names collide across
    tenants' modules. ``outcomes`` is the record dict of the job's own
    module. ``key`` is the content fingerprint, None when nothing reads
    it (a lone module and no store)."""

    __slots__ = ("uid", "function", "module", "outcomes", "key")

    def __init__(self, uid, function, module, outcomes, key):
        self.uid = uid
        self.function = function
        self.module = module
        self.outcomes = outcomes
        self.key = key

    def record(self, status: str) -> None:
        self.outcomes[self.function.name] = status


class DetectionSession:
    """Shared-plan, cache-aware detection of one module or one batch."""

    def __init__(self, detector=None, deadline_s: float | None = None):
        if detector is None:
            from .detector import IdiomDetector

            detector = IdiomDetector()
        self.detector = detector
        #: Per-function in-band solve deadline (seconds, None = none).
        self.deadline_s = deadline_s
        #: The last call's outcome records, one dict per module (each
        #: is also that module's ``report.outcomes``).
        self._outcomes: list[dict[str, str]] = []

    # -- public API ---------------------------------------------------------------
    def detect(self, module: Module) -> DetectionReport:
        return self.detect_many([module])[0]

    def detect_many(self, modules,
                    fingerprints=None) -> list[DetectionReport]:
        """Detect across several modules in one batch — the serving
        layer's micro-batch unit.

        All modules' cold functions are solved in one run (uids
        disambiguate colliding function names). Two tiers serve a
        function without solving it, both replaying the same structural
        wire format so each module's report still references its own IR
        objects:

        1. the artifact store (when the detector carries a cache),
        2. identical functions *within this batch* — one representative
           per content fingerprint is solved, the rest decode its
           encoded result (cross-tenant overlap).

        Results that cannot be replayed (timed-out partials, unencodable
        bindings) fall back to a local solve, so dedupe can degrade but
        never change a report. Per-module reports are merged in module
        order and are bit-identical to per-module :meth:`detect` calls;
        each carries only its own module's outcome records.

        Functions are fingerprinted only when something reads the keys:
        a store, or a batch of more than one module. ``fingerprints``,
        when given, runs parallel to ``modules``: each item is a
        :class:`~repro.cache.fingerprint.ModuleFingerprints` memo of
        that module (or None), used instead of re-printing and re-hashing
        its functions. A memo made under another configuration, or with
        another number of functions, is recomputed.
        """
        from ..cache.detection import encode_detection
        from ..cache.fingerprint import module_fingerprints

        modules = list(modules)
        if fingerprints is None:
            fingerprints = [None] * len(modules)
        cache = self.detector.cache
        keyed = cache is not None or len(modules) > 1
        if keyed:
            config_sig = (self.detector.config_signature() if cache is None
                          else cache.config_signature)
        self._outcomes = []

        results: dict[str, tuple] = {}  # uid -> (matches, stats)
        reports: list[DetectionReport] = []
        jobs_by_module: list[list[_Job]] = []
        cold: list[_Job] = []
        for index, (module, prints) in enumerate(zip(modules,
                                                     fingerprints)):
            report = DetectionReport(module.name)
            report.outcomes = {}
            self._outcomes.append(report.outcomes)
            reports.append(report)
            defined = [f for f in module.functions.values()
                       if not f.is_declaration()]
            if not keyed:
                keys = [None] * len(defined)
            else:
                if prints is None or prints.config_signature != config_sig \
                        or len(prints.keys) != len(defined):
                    prints = module_fingerprints(module, config_sig)
                keys = prints.keys
            module_jobs: list[_Job] = []
            for function, key in zip(defined, keys):
                job = _Job(f"m{index}:{function.name}", function, module,
                           report.outcomes, key)
                module_jobs.append(job)
                entry = cache.load(function, module, key) \
                    if cache is not None else None
                if entry is not None:
                    results[job.uid] = (entry.matches, entry.stats)
                    job.record("cache-hit")
                else:
                    cold.append(job)
            jobs_by_module.append(module_jobs)

        # One group per content fingerprint; unkeyed jobs stand alone.
        groups: dict[str, list[_Job]] = {}
        for job in cold:
            groups.setdefault(job.key or job.uid, []).append(job)
        solved = self._run([group[0] for group in groups.values()])
        for group in groups.values():
            representative = group[0]
            matches, stats = results[representative.uid] = \
                solved[representative.uid]
            self._save(cache, representative, matches, stats)
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

    def counts(self) -> dict[str, int]:
        """Functions per outcome status over the last call, plus
        ``solved`` (ok and timed-out-partial) and ``cache_misses``
        (every function the store did not serve)."""
        counts = dict(Counter(status for outcomes in self._outcomes
                              for status in outcomes.values()))
        counts["solved"] = counts.get("ok", 0) + \
            counts.get("timed-out-partial", 0)
        counts["cache_misses"] = sum(map(len, self._outcomes)) - \
            counts.get("cache-hit", 0)
        return counts

    @property
    def cache_hits(self) -> int:
        return self.counts().get("cache-hit", 0)

    @property
    def cache_misses(self) -> int:
        return self.counts()["cache_misses"]

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
                job.record("dedupe-hit")
                return
        matches, stats = results[job.uid] = self._run([job])[job.uid]
        self._save(self.detector.cache, job, matches, stats)

    # -- solving primitives -------------------------------------------------------
    def _run(self, jobs: list[_Job]) -> dict:
        """Solve ``jobs`` one after another in-process; returns
        uid -> (matches, stats) and records each outcome."""
        solved = {}
        for job in jobs:
            solved[job.uid] = self.detector.detect_function_with_stats(
                job.function, deadline_s=self.deadline_s)
            job.record("timed-out-partial" if solved[job.uid][1].timed_out
                       else "ok")
        return solved

    @staticmethod
    def _save(cache, job: _Job, matches, stats) -> None:
        """Write one fresh solve back to the store; timed-out partial
        results are never stored."""
        if cache is not None and not stats.timed_out:
            cache.save(job.function, matches, stats, job.key)
