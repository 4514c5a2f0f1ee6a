"""The idiom detection driver (paper Figure 1's "Constraints Solver" stage).

Runs every top-level idiom over every function, deduplicates witness
variants, applies idiom-specific post-filters and resolves overlaps by
specificity (a GEMM loop nest is not additionally reported as the scalar
reduction its inner loop also matches — mirroring the paper's per-idiom
counting discipline).
"""

from __future__ import annotations

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError, SolveTimeout
from ..ir.module import Function, Module
from ..idl.compiler import IdiomCompiler
from ..idl.solver import SolveLimits, SolverStats
from .library import SPECIFICITY_ORDER, load_library
from .matches import DetectionReport, IdiomMatch

#: Idioms detected by default, in specificity order.
TOP_LEVEL_IDIOMS: list[str] = list(SPECIFICITY_ORDER)

#: The detection pipeline's solve budget. Tighter on solutions than the
#: raw solver default (witness variants explode on large functions; the
#: anchor dedup collapses them anyway) but the same step budget — one
#: config object threaded through detector → compiler → solver.
DETECTOR_LIMITS = SolveLimits(max_solutions=2_000)


class IdiomDetector:
    """Detects the paper's five idiom classes across a module.

    ``ordering``/``memo``/``indexed`` select the solve configuration.
    The default ``ordering="forest"`` matches the whole idiom library as
    one fused plan forest per function — compile-time feasibility
    signatures skip provably unmatchable idioms, shared constraint
    prefixes execute once, and one per-function subquery memo serves
    every idiom (see :mod:`repro.idl.forest`). ``ordering="plan"``
    retains the per-idiom static-plan executor and ``"dynamic"`` (with
    ``memo=False``/``indexed=False``) the seed's per-step behaviour, both
    for benchmarking; all three produce bit-identical match sets.

    ``cache`` (a directory path or an :class:`~repro.cache.ArtifactStore`)
    enables the content-addressed artifact cache: module-level detection
    (:meth:`detect`, via :class:`~repro.idioms.scheduler.DetectionSession`)
    then serves unchanged functions from the store (in memory, or on
    disk when it has a root) and solves only the rest.
    Cached entries are keyed on :meth:`config_signature` plus each
    function's canonical IR text, so any change to the idiom library, the
    solve configuration or the IR re-solves exactly the affected
    functions. The per-function entry points (:meth:`detect_function*`)
    never consult the cache — they are the solving primitive the
    scheduler falls back to on a miss.
    """

    def __init__(self, compiler: IdiomCompiler | None = None,
                 idioms: list[str] | None = None,
                 limits: SolveLimits | None = None,
                 max_solutions: int | None = None,
                 ordering: str = "forest",
                 memo: bool = True,
                 indexed: bool = True,
                 cache=None):
        if ordering not in ("forest", "plan", "dynamic"):
            raise IDLError(f"unknown ordering {ordering!r}")
        if compiler is None:
            compiler = IdiomCompiler(
                memo_specs=None if memo else frozenset())
            load_library(compiler)
        self.compiler = compiler
        self.idioms = idioms or list(TOP_LEVEL_IDIOMS)
        self.limits = (limits or DETECTOR_LIMITS).with_overrides(
            max_solutions)
        self.ordering = ordering
        self.memo = memo
        self.indexed = indexed
        self._cache_store = self._bind_store(cache)
        self._cache = None

    def _bind_store(self, cache):
        if cache is None:
            return None
        import os

        from ..cache import ArtifactStore

        if isinstance(cache, (str, os.PathLike)):
            cache = ArtifactStore(os.fspath(cache))
        if not isinstance(cache, ArtifactStore):
            raise IDLError(
                f"cache must be a directory path or an ArtifactStore, "
                f"got {type(cache).__name__}")
        # The cache is bound to *this* detector's live configuration
        # (see the `cache` property); handing it a pre-built
        # DetectionCache could pair entries with the wrong signature, so
        # only the raw store is accepted.
        return cache

    @property
    def cache(self):
        """The store facade bound to the *current* config signature.

        Rebound lazily: loading more IDL into the compiler after
        construction changes the library signature, and a signature
        frozen at construction would keep serving entries keyed for the
        old library — stale match sets. Recomputing on access keeps the
        content-address contract airtight."""
        if self._cache_store is None:
            return None
        from ..cache import DetectionCache

        signature = self.config_signature()
        if self._cache is None or \
                self._cache.config_signature != signature:
            self._cache = DetectionCache(self._cache_store, signature)
        return self._cache

    def config_signature(self) -> str:
        """Digest of every non-IR input that can change this detector's
        match sets — the configuration half of the artifact cache's
        content addresses (the other half is per-function canonical IR)."""
        from ..cache.fingerprint import detection_config_signature
        from ..passes.pipeline import pipeline_signature

        return detection_config_signature(
            self.compiler.library_signature(), tuple(self.idioms),
            self.limits.max_solutions, self.limits.max_steps,
            self.ordering, self.memo, self.indexed, pipeline_signature())

    @property
    def max_solutions(self) -> int:
        return self.limits.max_solutions

    def warmup(self) -> "IdiomDetector":
        """Eagerly compile every idiom's lowered form and plan (and, in
        forest ordering, the fused plan forest) so the first request
        pays no compile cost — the resident-daemon startup step. The
        compiler caches make this idempotent; repeated detects through
        a warmed detector never rebuild the forest. Returns self."""
        self.compiler.prepare(self.idioms, memo=self.memo,
                              forest=self.ordering == "forest")
        return self

    # -- public API ---------------------------------------------------------------
    def detect(self, module: Module, workers: int = 1,
               deadline_s: float | None = None,
               max_retries: int = 2) -> DetectionReport:
        """Detect across a module; ``workers > 1`` fans functions out over
        a :class:`~repro.idioms.scheduler.DetectionSession` thread pool
        (same report, deterministic merge order). ``deadline_s`` bounds
        each function's solve wall-clock (overruns degrade to partial
        results); ``max_retries`` bounds the session's retry ladder for
        transient failures."""
        from .scheduler import DetectionSession

        return DetectionSession(self, workers=workers,
                                deadline_s=deadline_s,
                                max_retries=max_retries).detect(module)

    def detect_function(self, function: Function,
                        analyses: FunctionAnalyses | None = None
                        ) -> list[IdiomMatch]:
        matches, _ = self.detect_function_with_stats(function, analyses)
        return matches

    def detect_function_with_stats(
            self, function: Function,
            analyses: FunctionAnalyses | None = None,
            deadline_s: float | None = None
    ) -> tuple[list[IdiomMatch], SolverStats]:
        """Matches plus aggregated search stats (which include solves that
        found nothing — matches alone would under-report the work).

        ``deadline_s`` (or ``limits.deadline_s``) arms a wall-clock bound
        on the solve; blowing it yields a *partial* result — whatever
        idioms completed before the cutoff, with ``stats.timed_out`` set
        so downstream layers (cache, session report) can tell a partial
        match list from a complete one."""
        stats = SolverStats()
        if function.is_declaration():
            return [], stats
        if analyses is None:
            analyses = FunctionAnalyses(function)
        limits = self.limits if deadline_s is None else \
            self.limits.with_overrides(deadline_s=deadline_s)
        matches: list[IdiomMatch] = []
        try:
            if self.ordering == "forest":
                # One fused pass: every idiom's matches from a single
                # forest walk. Match.stats is the pass-level accounting,
                # shared by every match of the function.
                solutions, solve_stats = self.compiler.match_library(
                    function, self.idioms, analyses=analyses,
                    limits=limits, memo=self.memo, indexed=self.indexed)
                stats.merge(solve_stats)
                for idiom in self.idioms:
                    matches.extend(
                        m for m in (IdiomMatch(idiom, function, sol,
                                               stats=solve_stats)
                                    for sol in solutions[idiom])
                        if _post_filter(m))
            else:
                for idiom in self.idioms:
                    found, solve_stats = self._detect_idiom(
                        function, idiom, analyses, limits)
                    stats.merge(solve_stats)
                    matches.extend(found)
        except SolveTimeout:
            stats.timed_out = True
        matches = _dedup_by_anchor(matches)
        matches = _resolve_overlaps(matches)
        return matches, stats

    # -- internals --------------------------------------------------------------
    def _detect_idiom(self, function: Function, idiom: str,
                      analyses: FunctionAnalyses,
                      limits: SolveLimits | None = None
                      ) -> tuple[list[IdiomMatch], SolverStats]:
        solutions, stats = self.compiler.match_with_stats(
            function, idiom, analyses=analyses,
            limits=limits or self.limits,
            ordering=self.ordering, memo=self.memo, indexed=self.indexed)
        matches = [IdiomMatch(idiom, function, sol, stats=stats)
                   for sol in solutions]
        return [m for m in matches if _post_filter(m)], stats


def _post_filter(match: IdiomMatch) -> bool:
    """Idiom-specific sanity requirements beyond the IDL constraints."""
    if match.idiom.startswith("Stencil"):
        offsets = match.stencil_offsets()
        if not offsets:
            return False  # a stencil must read something
        # Require a true neighbourhood: some read at a nonzero offset
        # (otherwise the loop is an elementwise map, which the paper does
        # not count as a stencil — Table 1 reports only 6 stencils).
        if not any(any(o != 0 for o in off) for off in offsets):
            return False
        # Out-of-place only: an input read from the written array means a
        # loop-carried recurrence (Gauss-Seidel), which is not the Jacobi
        # form the Halide/Lift translation supports.
        write_base = match.value("write.base_pointer")
        i = 0
        while f"reads[{i}].base_pointer" in match.solution:
            if match.solution[f"reads[{i}].base_pointer"] is write_base:
                return False
            i += 1
        return True
    if match.idiom == "Reduction":
        return match.value("old_value") is not None
    return True


def _dedup_by_anchor(matches: list[IdiomMatch]) -> list[IdiomMatch]:
    seen: set = set()
    result: list[IdiomMatch] = []
    for match in matches:
        key = match.anchor()
        if key in seen:
            continue
        seen.add(key)
        result.append(match)
    return result


def _resolve_overlaps(matches: list[IdiomMatch]) -> list[IdiomMatch]:
    """Drop matches subsumed by a more specific idiom on the same values.

    A Reduction is the inner accumulation of every SPMV/GEMM (its
    ``old_value`` is the dot-product accumulator phi), so those matches are
    counted once under the more specific idiom — mirroring the paper's
    per-idiom counting. Independent idioms sharing a loop (e.g. EP's
    histogram and conditional sum in one accept/reject loop) both count.
    """
    order = {name: i for i, name in enumerate(SPECIFICITY_ORDER)}
    matches = sorted(matches, key=lambda m: order.get(m.idiom, 99))
    claimed_accumulators: set[int] = set()
    claimed_stores: set[int] = set()
    kept: list[IdiomMatch] = []
    for match in matches:
        if match.idiom in ("SPMV", "GEMM"):
            acc = match.value("acc") or match.value("dotp.acc")
            if acc is not None:
                claimed_accumulators.add(id(acc))
            store = match.value("output.store") or match.value("store")
            if store is not None:
                claimed_stores.add(id(store))
            kept.append(match)
            continue
        if match.idiom.startswith("Stencil"):
            store = match.value("write.store")
            if store is not None:
                if id(store) in claimed_stores:
                    continue
                claimed_stores.add(id(store))
            kept.append(match)
            continue
        if match.idiom == "Histogram":
            store = match.value("store")
            if store is not None:
                if id(store) in claimed_stores:
                    continue
                claimed_stores.add(id(store))
            kept.append(match)
            continue
        if match.idiom == "Reduction":
            old = match.value("old_value")
            if old is not None and id(old) in claimed_accumulators:
                continue
            kept.append(match)
            continue
        kept.append(match)
    return kept


def detect_idioms(module: Module, workers: int = 1,
                  cache_dir: str | None = None) -> DetectionReport:
    """One-shot convenience: build a detector and run it."""
    return IdiomDetector(cache=cache_dir).detect(module, workers=workers)
