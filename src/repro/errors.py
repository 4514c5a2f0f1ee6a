"""Shared exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch failures from any layer (frontend, IR, IDL, transform, runtime) with
one handler while still being able to discriminate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceLocation:
    """A (line, column) position in a source file, used in diagnostics."""

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int, column: int, filename: str = "<input>"):
        self.line = line
        self.column = column
        self.filename = filename

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.line, self.column, self.filename) == (
            other.line,
            other.column,
            other.filename,
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))


class DiagnosticError(ReproError):
    """An error with an attached source location."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(DiagnosticError):
    """Tokenisation failure in one of the front ends (C or IDL)."""


class ParseError(DiagnosticError):
    """Syntax error in one of the front ends (C or IDL)."""


class SemanticError(DiagnosticError):
    """A well-formed program that violates static semantics."""


class IRError(ReproError):
    """Malformed IR detected while building or verifying a module."""


class VerificationError(IRError):
    """The IR verifier found a structural violation."""


class IDLError(ReproError):
    """Errors in IDL compilation or constraint solving."""


class SolveTimeout(IDLError):
    """A constraint solve exceeded its wall-clock deadline.

    Raised from :meth:`repro.idl.solver.SolverStats.tick` when a
    :class:`~repro.idl.solver.SolveLimits` deadline is armed; the
    detection layer catches it and degrades to a partial (possibly
    empty) match list for the offending function instead of aborting
    the session."""


class InjectedFault(ReproError):
    """A deterministic fault raised by :mod:`repro.reliability.faults`.

    Never raised in production: only an installed fault plan produces
    it. Every layer around a fallible seam treats it exactly like the
    real failure it stands in for (an I/O error, a backend crash, a
    dropped connection), which is what makes the fault-injection
    matrix a faithful test of the recovery paths."""


class TransformError(ReproError):
    """Idiom replacement could not be applied."""


class BackendError(ReproError):
    """A heterogeneous API backend rejected or failed a request."""


class PlacementError(ReproError):
    """The offload planner could not produce a valid assignment."""


class CalibrationError(ReproError):
    """A calibration profile is malformed or could not be produced."""


class InterpreterError(ReproError):
    """Runtime failure while interpreting IR."""


class WorkloadError(ReproError):
    """A benchmark workload is misconfigured."""
