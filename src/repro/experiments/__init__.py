"""Experiment regeneration for every table and figure in the paper."""

from .harness import (
    Evaluations,
    RunConfig,
    evaluate_workload,
    fig16,
    fig17,
    fig18,
    fig19,
    main,
    table1,
    table2,
    table3,
)

__all__ = [
    "Evaluations", "RunConfig", "evaluate_workload", "fig16", "fig17",
    "fig18", "fig19", "main", "table1", "table2", "table3",
]
