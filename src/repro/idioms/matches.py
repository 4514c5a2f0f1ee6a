"""Idiom match objects: solver solutions enriched with derived structure."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..idl.solver import SolverStats
from ..ir.instructions import Instruction
from ..ir.module import Function
from ..ir.values import ConstantInt, Value

#: Table-1 category for each top-level idiom.
CATEGORY_OF: dict[str, str] = {
    "Reduction": "scalar_reduction",
    "Histogram": "histogram_reduction",
    "Stencil1D": "stencil",
    "Stencil2D": "stencil",
    "Stencil3D": "stencil",
    "GEMM": "matrix_op",
    "SPMV": "sparse_matrix_op",
}


@dataclass
class IdiomMatch:
    """One detected idiom instance within a function."""

    idiom: str
    function: Function
    solution: dict[str, Value]
    #: Search stats of the (function, idiom) solve that produced this
    #: match; shared by every match of that solve.
    stats: SolverStats | None = field(default=None, compare=False)

    @property
    def category(self) -> str:
        return CATEGORY_OF.get(self.idiom, self.idiom)

    # -- anchors for overlap resolution / counting -----------------------------
    def anchor(self) -> tuple:
        """A stable identity for this instance.

        Two solutions describe the same instance when they agree on the
        loop(s) and the principal updated value — extra witness bindings
        (which read matched ``reads[0]`` etc.) do not create new instances.
        """
        keys: list[str] = []
        if self.idiom == "Reduction":
            keys = ["iterator", "old_value"]
        elif self.idiom == "Histogram":
            keys = ["iterator", "store"]
        elif self.idiom == "SPMV":
            keys = ["iterator", "inner.iterator", "output.store"]
        elif self.idiom == "GEMM":
            keys = ["iterator[0]", "iterator[1]", "iterator[2]",
                    "output.store"]
        elif self.idiom.startswith("Stencil"):
            keys = [k for k in ("iterator", "iterator[0]", "iterator[1]",
                                "iterator[2]") if k in self.solution]
            keys.append("write.store")
        ids = tuple(id(self.solution[k]) for k in keys if k in self.solution)
        return (self.idiom, id(self.function), ids)

    def loop_headers(self) -> list[Instruction]:
        """Header phi instructions of every loop this idiom spans."""
        headers = []
        for key in ("iterator", "inner.iterator", "iterator[0]",
                    "iterator[1]", "iterator[2]"):
            value = self.solution.get(key)
            if isinstance(value, Instruction):
                headers.append(value)
        return headers

    def region_blocks(self) -> set[int]:
        """ids of the basic blocks spanned by the idiom's loops."""
        from ..analysis.loops import LoopInfo

        info = LoopInfo(self.function)
        blocks: set[int] = set()
        for header in self.loop_headers():
            if header.parent is None:
                continue
            loop = info.loop_of_block(header.parent)
            # loop_of_block returns the innermost; walk up to the loop whose
            # header matches this phi's block.
            while loop is not None and loop.header is not header.parent:
                loop = loop.parent
            if loop is not None:
                blocks.update(id(b) for b in loop.blocks)
        return blocks

    # -- convenience accessors for the transformer -----------------------------
    def value(self, name: str) -> Value | None:
        return self.solution.get(name)

    def family(self, base: str) -> list[Value]:
        values = []
        i = 0
        while f"{base}[{i}]" in self.solution:
            values.append(self.solution[f"{base}[{i}]"])
            i += 1
        return values

    def stencil_offsets(self) -> list[tuple[int, ...]]:
        """Per-read constant offsets for stencil matches (0 when absent)."""
        dims = {"Stencil1D": 1, "Stencil2D": 2, "Stencil3D": 3}.get(
            self.idiom, 0)
        offsets: list[tuple[int, ...]] = []
        i = 0
        while f"reads[{i}].address" in self.solution:
            per_dim: list[int] = []
            for d in range(dims):
                off = "off" if dims == 1 else f"off{d + 1}"
                sidx = "sidx" if dims == 1 else f"sidx{d + 1}"
                const = self.solution.get(f"reads[{i}].{off}.offset")
                if isinstance(const, ConstantInt):
                    # A subtracted offset means negative displacement; the
                    # sign is recovered from the index expression opcode.
                    index = self.solution.get(f"reads[{i}].{sidx}")
                    sign = -1 if (index is not None and getattr(
                        index, "opcode", "") == "sub") else 1
                    per_dim.append(sign * const.value)
                else:
                    per_dim.append(0)
            offsets.append(tuple(per_dim))
            i += 1
        return offsets

    def __repr__(self) -> str:
        return (f"<IdiomMatch {self.idiom} in @{self.function.name} "
                f"({len(self.solution)} vars)>")


@dataclass
class DetectionReport:
    """All idiom instances found in one module."""

    module_name: str
    matches: list[IdiomMatch] = field(default_factory=list)
    #: Aggregated search effort over every (function, idiom) solve —
    #: including solves that produced no match.
    stats: SolverStats = field(default_factory=SolverStats)
    #: Per-function reliability records
    #: (:class:`~repro.reliability.supervisor.SessionOutcomes`) when the
    #: report came from a :class:`~repro.idioms.scheduler.DetectionSession`;
    #: None for reports assembled by hand. A report with any
    #: ``timed-out-partial`` outcome is complete in *shape* (every
    #: function accounted for) but possibly missing matches for those
    #: functions.
    outcomes: object = None

    def by_category(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for match in self.matches:
            counts[match.category] = counts.get(match.category, 0) + 1
        return counts

    def by_idiom(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for match in self.matches:
            counts[match.idiom] = counts.get(match.idiom, 0) + 1
        return counts

    def total(self) -> int:
        return len(self.matches)


def report_fingerprint(report: DetectionReport,
                       by_identity: bool = True) -> list[tuple]:
    """A comparable digest of a report's match set — matches in order,
    solutions as sorted (variable, value-key) tuples.

    This is THE bit-identity check used by the benchmarks, the CI gates
    and the tests: two reports fingerprint equal iff they contain the
    same matches, in the same order, with the same bindings.
    ``by_identity=True`` keys values by object identity (exact for
    reports over one IR instance); ``by_identity=False`` uses the
    solver's structural :func:`~repro.idl.atoms.value_key`, which also
    equates constants decoded from the artifact-cache / daemon wire
    format with their originals.
    """
    from ..idl.atoms import value_key

    def vkey(value):
        return id(value) if by_identity else value_key(value)

    return [(m.idiom, m.function.name,
             tuple((k, vkey(v)) for k, v in sorted(m.solution.items())))
            for m in report.matches]
