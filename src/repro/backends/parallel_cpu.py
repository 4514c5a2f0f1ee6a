"""Parallel-CPU backend: an OpenMP-style host runtime.

Models compiling the matched idiom to threaded host code instead of
offloading it: every category is supported on the CPU at modest
efficiency (calibrated strictly below the per-category CPU winners so
Table 3 / Figure 18 orderings are unchanged) with near-zero launch
overhead and no transfer cost. Its role is planner scenario diversity —
the fallback placement when transfer costs sink every accelerator, and
the last-resort lowering contract when a backend subset excludes the DSLs.
"""

from __future__ import annotations


def register_backend(registry) -> None:
    from ..transform.kernels import compile_kernel
    from .api import OPENMP_RT
    from .registry import BackendEntry, LoweringContract

    def generic(category: str, requires: tuple) -> LoweringContract:
        return LoweringContract(
            backend="parallel-cpu", category=category,
            requires=requires,
            kernels={"compile": compile_kernel},
            emits="threaded host loop over the extracted kernel")

    registry.register(BackendEntry(
        name="parallel-cpu", title="OpenMP-style host runtime",
        descriptors=(OPENMP_RT,),
        contracts={
            "scalar_reduction": generic(
                "scalar_reduction",
                ("old_value", "iter_begin", "iter_end", "ind_init",
                 "kernel.output")),
            "histogram_reduction": generic(
                "histogram_reduction",
                ("base_pointer", "old_value", "iter_begin", "iter_end",
                 "kernel.output", "indexkernel.output", "store")),
            "stencil": generic("stencil", ("kernel.output",)),
        }))
