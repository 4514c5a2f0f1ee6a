"""Workload registry: mini-C recreations of NAS and Parboil benchmarks.

Each :class:`Workload` carries the benchmark's computational kernels
(faithful to the idioms the original contains — e.g. CG's CSR SPMV loop is
the paper's Figure 4 verbatim), an input generator, the expected idiom
census (the reproduction target for Table 1 / Figure 16) and the paper's
reported numbers used for shape checks in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import WorkloadError


@dataclass
class Workload:
    """One benchmark recreation."""

    name: str
    suite: str  # 'NAS' | 'Parboil'
    source: str
    entry: str
    #: inputs(scale) -> dict of entry-argument values (ints / numpy arrays).
    make_inputs: Callable[[int], dict]
    #: Expected idiom census: category -> count (Figure 16 target).
    expected: dict = field(default_factory=dict)
    #: Idioms dominate sequential runtime (the paper's 10 exploitable).
    dominant: bool = False
    #: Paper-reported approximate coverage percentage (Figure 17).
    paper_coverage: float = 0.0
    #: Paper-reported best end-to-end speedup and platform (Figure 18).
    paper_speedup: float | None = None
    paper_platform: str | None = None
    #: Reference (Figure 19): handwritten version rewrote the algorithm.
    reference_rewrites_algorithm: bool = False
    default_scale: int = 1
    #: Analytic extrapolation factor from interpreter-scale inputs to the
    #: paper's problem sizes (NAS class B / Parboil full inputs). Applied
    #: to dynamic statistics before costing; see EXPERIMENTS.md.
    paper_scale: float = 1.0


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise WorkloadError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(f"unknown workload {name!r}") from None


def all_workloads() -> list[Workload]:
    """All 21 benchmarks, NAS first, in the paper's Figure 16 order."""
    _ensure_loaded()
    nas_order = ["BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG", "SP", "UA"]
    parboil_order = ["bfs", "cutcp", "histo", "lbm", "mri-g", "mri-q",
                     "sad", "sgemm", "spmv", "stencil", "tpacf"]
    return [_REGISTRY[n] for n in nas_order + parboil_order]


def dominant_workloads() -> list[Workload]:
    return [w for w in all_workloads() if w.dominant]


def expected_totals() -> dict:
    """Suite-wide expected census (must equal Table 1's IDL row)."""
    totals: dict[str, int] = {}
    for workload in all_workloads():
        for category, count in workload.expected.items():
            totals[category] = totals.get(category, 0) + count
    return totals


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if not _loaded:
        from . import nas, parboil  # noqa: F401  (registration side effect)
        _loaded = True
