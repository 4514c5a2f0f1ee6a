"""Workload selection and compilation shared by the gates and the
service CLI: validate a restriction to named workloads against the
registry, then compile and optimise each selected workload.
"""

from __future__ import annotations

from ..frontend import compile_c
from ..passes import optimize
from ..workloads import Workload, all_workloads


def select_workloads(workload_names: list[str] | None) -> list[Workload]:
    """The registry's workloads, restricted to ``workload_names`` (all
    when None); unknown names exit with the standard CLI error."""
    workloads = all_workloads()
    if workload_names:
        unknown = set(workload_names) - {w.name for w in workloads}
        if unknown:
            raise SystemExit(
                f"unknown workloads: {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(w.name for w in workloads)})")
        workloads = [w for w in workloads if w.name in workload_names]
    return workloads


def compile_suite(workload_names: list[str] | None) -> list[tuple]:
    """[(workload, optimised module)] for the selected workloads."""
    modules = []
    for workload in select_workloads(workload_names):
        module = compile_c(workload.source, workload.name)
        optimize(module)
        modules.append((workload, module))
    return modules
