"""Per-idiom detection: the engines the plan forest is built from, kept
as oracles for tests and the solver/detection benchmarks.

:class:`PerIdiomDetector` solves one idiom at a time through
:meth:`~repro.idl.compiler.IdiomCompiler.match_with_stats` — each idiom's
static plan (``ordering="plan"``) or the seed's per-step conjunct order
(``"dynamic"``), optionally with full-universe generators
(``indexed=False``). :meth:`PerIdiomDetector.seed` adds a compiler built
without memoized building blocks. Every configuration enumerates the
forest's match sets bit for bit, and a
:class:`~repro.idioms.scheduler.DetectionSession` runs it unchanged, with
one stats object per (function, idiom) solve. It takes no artifact
cache: store entries are keyed for the forest detector.
"""

from __future__ import annotations

from ..analysis.info import FunctionAnalyses
from ..errors import SolveTimeout
from ..idl.compiler import IdiomCompiler
from ..idl.solver import SolveLimits, SolverStats
from ..ir.module import Function
from .detector import IdiomDetector, idiom_matches, resolve_matches
from .library import load_library
from .matches import IdiomMatch


class PerIdiomDetector(IdiomDetector):
    """An :class:`IdiomDetector` that solves each idiom separately."""

    def __init__(self, compiler: IdiomCompiler | None = None,
                 idioms: list[str] | None = None,
                 limits: SolveLimits | None = None,
                 max_solutions: int | None = None,
                 ordering: str = "plan",
                 indexed: bool = True):
        super().__init__(compiler, idioms, limits, max_solutions)
        self.ordering = ordering
        self.indexed = indexed

    @classmethod
    def seed(cls, **kwargs) -> "PerIdiomDetector":
        """The seed's configuration: dynamic ordering, no memoized
        building blocks, unindexed generators."""
        compiler = IdiomCompiler(memo_specs=frozenset())
        load_library(compiler)
        return cls(compiler, ordering="dynamic", indexed=False, **kwargs)

    def warmup(self) -> "PerIdiomDetector":
        """Lower and plan every idiom; no forest is built."""
        for idiom in self.idioms:
            self.compiler.plan_for(idiom)
        return self

    def detect_function_with_stats(
            self, function: Function,
            analyses: FunctionAnalyses | None = None,
            deadline_s: float | None = None
    ) -> tuple[list[IdiomMatch], SolverStats]:
        stats = SolverStats()
        if function.is_declaration():
            return [], stats
        if analyses is None:
            analyses = FunctionAnalyses(function)
        limits = self.limits if deadline_s is None else \
            self.limits.with_overrides(deadline_s=deadline_s)
        matches: list[IdiomMatch] = []
        try:
            for idiom in self.idioms:
                solutions, solve_stats = self.compiler.match_with_stats(
                    function, idiom, analyses=analyses, limits=limits,
                    ordering=self.ordering, indexed=self.indexed)
                stats.merge(solve_stats)
                matches.extend(idiom_matches(idiom, function, solutions,
                                             solve_stats))
        except SolveTimeout:
            stats.timed_out = True
        return resolve_matches(matches), stats
