"""Experiment harness: regenerates every table and figure of the paper.

Run ``python -m repro.experiments <table1|table2|table3|fig16|fig17|fig18|
fig19|placement|all>`` (``--list`` names the workloads, backends and
experiments; ``--scale``, ``--cache-dir``, ``--profile`` and
``--calibrate`` set up the run) or call the per-experiment functions.
One run's settings are a frozen :class:`RunConfig`; its
:class:`Evaluations` hold one compile, detection and execution pass per
workload, which every table and figure reads. Library callers that pass no
``Evaluations`` share one of the default configuration.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field

from ..backends.api import API_DESCRIPTORS, ApiCallSite
from ..backends.registry import default_registry
from ..cache import ArtifactStore
from ..detect.baselines import baseline_counts
from ..platform.calibrate import (
    CalibrationProfile,
    Calibrator,
    read_profile_json,
    write_profile_json,
)
from ..platform.cost import (
    OPENCL,
    OPENMP,
    best_api_cost,
    reference_time,
    site_cost,
)
from ..platform.machine import MACHINES
from ..platform.placement import PlacementPlan, plan_module, site_at_scale
from ..runtime.runner import (
    CompiledWorkload,
    compile_workload,
    outputs_match,
    run_accelerated,
    run_original,
)
from ..workloads import Workload, all_workloads, dominant_workloads

CATEGORIES = ["scalar_reduction", "histogram_reduction", "stencil",
              "matrix_op", "sparse_matrix_op"]

#: Iterative benchmarks where the paper's lazy-copying runtime
#: optimisation applies (the red bars of Figure 18).
LAZY_BENCHMARKS = {"CG", "lbm", "spmv", "stencil"}

CATEGORY_LABELS = {
    "scalar_reduction": "Scalar Reduction",
    "histogram_reduction": "Histogram Reduction",
    "stencil": "Stencil",
    "matrix_op": "Matrix Op.",
    "sparse_matrix_op": "Sparse Matrix Op.",
}

#: The planner search the placement experiment runs.
STRATEGY = "beam"


@dataclass
class WorkloadEvaluation:
    """Everything measured for one benchmark."""

    workload: Workload
    compiled: CompiledWorkload
    coverage: float = 0.0
    sequential_seconds: float = 0.0
    outputs_equal: bool | None = None
    sites: list[ApiCallSite] = field(default_factory=list)
    compile_base_s: float = 0.0
    compile_idl_s: float = 0.0
    #: Table 1's modelled Polly/ICC rows for this workload's matches,
    #: taken from the IR before the accelerated run transforms it.
    baselines: dict = field(default_factory=dict)
    #: Residency event log from the accelerated run (placement input).
    events: list = field(default_factory=list)
    events_overflowed: bool = False
    #: Dynamic opcode counts of the original run — lets a calibration
    #: profile recompute the sequential model with measured per-class
    #: scalar costs instead of the static table.
    opcode_counts: dict = field(default_factory=dict)

    @property
    def uncovered_seconds(self) -> float:
        """Paper-scale host time outside the replaced idioms."""
        return self.sequential_seconds * self.workload.paper_scale * \
            (1.0 - self.coverage)

    def uncovered_seconds_with(self, profile) -> float:
        """:attr:`uncovered_seconds` under a calibration profile's
        measured scalar costs (static model when the profile carries
        none or the opcode counts were not captured)."""
        if profile is None or not self.opcode_counts:
            return self.uncovered_seconds
        measured = profile.sequential_seconds(self.opcode_counts)
        return measured * self.workload.paper_scale * (1.0 - self.coverage)


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run: the inputs' problem-size multiplier, the
    artifact-store directory (None: every function solved cold; reports
    are bit-identical either way) and the calibration profile placement
    is costed with (None: the documented static constants)."""

    scale: int = 1
    cache_dir: str | None = None
    profile: CalibrationProfile | None = None


class Evaluations:
    """One run's evaluations, keyed by workload name, and the run's one
    artifact store when its configuration names a directory. Each
    workload is compiled, detected and run once per ``Evaluations``."""

    def __init__(self, config: RunConfig = RunConfig()):
        self.config = config
        self.store = ArtifactStore(config.cache_dir) \
            if config.cache_dir else None
        self.by_key: dict[str, WorkloadEvaluation] = {}


@functools.cache
def _shared() -> Evaluations:
    """The evaluations library callers that pass none share: the default
    configuration, memoised for the process. :func:`main` never uses it."""
    return Evaluations()


def evaluate_workload(workload: Workload,
                      evals: Evaluations | None = None
                      ) -> WorkloadEvaluation:
    """Compile and detect ``workload``, then run its original version
    and, for a dominant workload, its accelerated one; memoised in
    ``evals`` by workload name."""
    evals = evals or _shared()
    if workload.name in evals.by_key:
        return evals.by_key[workload.name]
    compiled = compile_workload(workload.name, workload.source,
                                verify=False, cache_dir=evals.store)
    ev = WorkloadEvaluation(workload, compiled,
                            compile_base_s=compiled.compile_seconds,
                            compile_idl_s=compiled.detect_seconds,
                            baselines=baseline_counts(
                                compiled.report.matches))
    scale = evals.config.scale
    original = run_original(compiled, workload.entry,
                            workload.make_inputs(scale))
    ev.coverage = original.coverage
    ev.sequential_seconds = original.sequential_seconds
    ev.opcode_counts = dict(original.opcode_counts)
    if workload.dominant:
        # The original run has already captured its outputs in private
        # buffers, so the accelerated run can transform the same
        # compiled module in place — no second compile+detect pass.
        accelerated = run_accelerated(compiled, workload.entry,
                                      workload.make_inputs(scale))
        ev.outputs_equal = outputs_match(original, accelerated)
        runtime = accelerated.api_runtime
        if runtime is not None:
            ev.sites = runtime.all_sites()
            ev.events = list(runtime.events)
            ev.events_overflowed = runtime.events_overflowed
    evals.by_key[workload.name] = ev
    return ev


# ---------------------------------------------------------------------------
# Table 1 — idiom counts by detector
# ---------------------------------------------------------------------------

def table1(evals: Evaluations | None = None) -> dict:
    """Rows: detector -> category -> count across all 21 benchmarks."""
    table = {detector: dict.fromkeys(CATEGORIES, 0)
             for detector in ("Polly", "ICC", "IDL")}
    for workload in all_workloads():
        ev = evaluate_workload(workload, evals=evals)
        for detector, row in (*ev.baselines.items(),
                              ("IDL", ev.compiled.report.by_category())):
            for category, count in row.items():
                table[detector][category] = \
                    table[detector].get(category, 0) + count
    return table


def print_table1(evals: Evaluations) -> dict:
    table = table1(evals)
    print("\nTable 1: idioms detected by IDL, ICC, Polly")
    header = f"{'':8s}" + "".join(f"{CATEGORY_LABELS[c]:>22s}"
                                  for c in CATEGORIES)
    print(header)
    for detector in ("Polly", "ICC", "IDL"):
        row = table[detector]
        cells = "".join(f"{row.get(c, 0) or '—':>22}" for c in CATEGORIES)
        print(f"{detector:8s}{cells}")
    return table


# ---------------------------------------------------------------------------
# Table 2 — compile-time cost
# ---------------------------------------------------------------------------

def table2(evals: Evaluations | None = None) -> dict:
    """Per-benchmark compile seconds without/with IDL detection."""
    rows = {}
    for workload in all_workloads():
        ev = evaluate_workload(workload, evals=evals)
        base = ev.compile_base_s
        with_idl = base + ev.compile_idl_s
        overhead = 100.0 * (with_idl - base) / base if base > 0 else 0.0
        rows[workload.name] = {
            "without_idl_s": base,
            "with_idl_s": with_idl,
            "overhead_pct": overhead,
        }
    return rows


def print_table2(evals: Evaluations) -> dict:
    rows = table2(evals)
    print("\nTable 2: compile time cost (seconds, this machine)")
    print(f"{'bench':8s}{'without':>10s}{'with IDL':>10s}{'overhead':>10s}")
    overheads = []
    for name, row in rows.items():
        overheads.append(row["overhead_pct"])
        print(f"{name:8s}{row['without_idl_s']:>10.3f}"
              f"{row['with_idl_s']:>10.3f}{row['overhead_pct']:>9.0f}%")
    print(f"{'mean':8s}{'':>10s}{'':>10s}"
          f"{sum(overheads) / len(overheads):>9.0f}%")
    return rows


# ---------------------------------------------------------------------------
# Figure 16 — idioms per benchmark / Figure 17 — runtime coverage
# ---------------------------------------------------------------------------

def fig16(evals: Evaluations | None = None) -> dict:
    return {w.name: evaluate_workload(w, evals=evals)
            .compiled.report.by_category()
            for w in all_workloads()}


def print_fig16(evals: Evaluations) -> dict:
    data = fig16(evals)
    print("\nFigure 16: detected idioms per benchmark")
    for name, counts in data.items():
        total = sum(counts.values())
        parts = ", ".join(f"{CATEGORY_LABELS[c]}: {n}"
                          for c, n in sorted(counts.items()))
        print(f"{name:8s} {total:2d}  {parts}")
    return data


def fig17(evals: Evaluations | None = None) -> dict:
    return {w.name: 100.0 * evaluate_workload(w, evals=evals).coverage
            for w in all_workloads()}


def print_fig17(evals: Evaluations) -> dict:
    data = fig17(evals)
    print("\nFigure 17: runtime coverage of detected idioms (%)")
    for name, cov in data.items():
        bar = "#" * int(cov / 2.5)
        print(f"{name:8s} {cov:5.1f} {bar}")
    return data


# ---------------------------------------------------------------------------
# Table 3 / Figure 18 / Figure 19 — performance
# ---------------------------------------------------------------------------

def accelerated_seconds(ev: WorkloadEvaluation, api, machine,
                         lazy: bool) -> float | None:
    """End-to-end simulated seconds on ``machine``.

    ``api`` is used for every site it supports; remaining sites fall back
    to the best available API (the paper maps different idioms of one
    program to different APIs and "pick[s] the best executing code").
    Returns None when ``api`` supports none of the program's idioms on
    this machine.
    """
    if not ev.sites:
        return None
    scale = ev.workload.paper_scale
    total = ev.uncovered_seconds
    used_api = False
    for site in ev.sites:
        # Shared with the placement layer: matrix_op bytes scale with the
        # 2/3 power of the element factor, everything else linearly.
        scaled = site_at_scale(site, scale)
        if api.supports(machine.name, site.category):
            used_api = True
            total += site_cost(scaled, api, machine, lazy).total_s
        else:
            best = best_api_cost(scaled, list(API_DESCRIPTORS.values()),
                                 machine, lazy)
            if best is None:
                return None
            total += best[1].total_s
    return total if used_api else None


def table3(evals: Evaluations | None = None) -> dict:
    """benchmark -> platform -> api -> simulated milliseconds."""
    results: dict = {}
    for workload in dominant_workloads():
        ev = evaluate_workload(workload, evals=evals)
        per_platform: dict = {}
        for mname, machine in MACHINES.items():
            row = {}
            for api in API_DESCRIPTORS.values():
                seconds = accelerated_seconds(ev, api, machine, lazy=True)
                if seconds is not None:
                    row[api.name] = seconds * 1e3
            per_platform[mname] = row
        results[workload.name] = per_platform
    return results


def print_table3(evals: Evaluations) -> dict:
    data = table3(evals)
    print("\nTable 3: per-API runtime (simulated ms; fastest per platform *)")
    for bench, platforms in data.items():
        for mname, row in platforms.items():
            if not row:
                continue
            best = min(row.values())
            cells = "  ".join(
                f"{api}={ms:.3f}{'*' if ms == best else ''}"
                for api, ms in sorted(row.items()))
            print(f"{bench:8s} {mname:5s} {cells}")
    return data


def fig18(evals: Evaluations | None = None) -> dict:
    """benchmark -> platform -> dict(speedup, api, lazy_speedup).

    The "lazy" entry exists only for the iterative benchmarks the paper's
    runtime optimisation covers; other benchmarks report "eager" only and
    the consumer falls back accordingly.
    """
    results: dict = {}
    for workload in dominant_workloads():
        ev = evaluate_workload(workload, evals=evals)
        per_platform: dict = {}
        lazy_modes = (False, True) if workload.name in LAZY_BENCHMARKS \
            else (False,)
        for mname, machine in MACHINES.items():
            apis = list(API_DESCRIPTORS.values())
            entries = {}
            for lazy in lazy_modes:
                best_total, best_api = None, None
                for api in apis:
                    seconds = accelerated_seconds(ev, api, machine, lazy)
                    if seconds is None:
                        continue
                    if best_total is None or seconds < best_total:
                        best_total, best_api = seconds, api.name
                if best_total is not None and best_total > 0:
                    seq = ev.sequential_seconds * ev.workload.paper_scale
                    entries["lazy" if lazy else "eager"] = {
                        "speedup": seq / best_total,
                        "api": best_api,
                    }
            per_platform[mname] = entries
        results[workload.name] = per_platform
    return results


def print_fig18(evals: Evaluations) -> dict:
    data = fig18(evals)
    print("\nFigure 18: speedup vs sequential (simulated; * = with the "
          "lazy-transfer runtime optimisation)")
    print(f"{'bench':8s}{'cpu':>12s}{'igpu':>12s}{'gpu':>12s}   best")
    for name, platforms in data.items():
        cells = []
        best_platform, best_speed = None, 0.0
        for mname in ("cpu", "igpu", "gpu"):
            entry = platforms.get(mname, {})
            chosen = entry.get("lazy") or entry.get("eager")
            mark = "*" if "lazy" in entry else " "
            speed = chosen["speedup"] if chosen else 0.0
            cells.append(f"{speed:>10.2f}x{mark}")
            if speed > best_speed:
                best_speed, best_platform = speed, mname
        print(f"{name:8s}" + "".join(cells) +
              f"  {best_platform} ({best_speed:.2f}x)")
    return data


def fig19(evals: Evaluations | None = None) -> dict:
    """benchmark -> {idl, opencl, openmp} speedups vs sequential."""
    results: dict = {}
    best_api = fig18(evals)
    for workload in dominant_workloads():
        ev = evaluate_workload(workload, evals=evals)
        platforms = best_api[workload.name]
        idl_best = 0.0
        for m in ("cpu", "igpu", "gpu"):
            entry = platforms.get(m, {})
            chosen = entry.get("lazy") or entry.get("eager")
            if chosen:
                idl_best = max(idl_best, chosen["speedup"])
        seq = ev.sequential_seconds
        omp = seq / reference_time(seq, ev.coverage, OPENMP,
                                   whole_program=True)
        # The handwritten OpenCL version runs the same kernels on the GPU:
        # comparable to our generated code unless the reference rewrote
        # the algorithm (EP, IS, MG, tpacf per the paper), where it wins
        # by parallelising/restructuring the entire application.
        gpu_entry = platforms.get("gpu", {})
        gpu_chosen = gpu_entry.get("lazy") or gpu_entry.get("eager")
        idl_gpu = gpu_chosen["speedup"] if gpu_chosen else idl_best
        if workload.reference_rewrites_algorithm:
            ocl = max(idl_gpu * 4.0, OPENCL.base_factor)
        else:
            ocl = idl_gpu * 0.95
        results[workload.name] = {
            "IDL": idl_best, "OpenCL": ocl, "OpenMP": omp,
        }
    return results


def print_fig19(evals: Evaluations) -> dict:
    data = fig19(evals)
    print("\nFigure 19: IDL (best device) vs handwritten OpenCL / OpenMP")
    print(f"{'bench':8s}{'IDL':>10s}{'OpenCL':>10s}{'OpenMP':>10s}")
    for name, row in data.items():
        print(f"{name:8s}{row['IDL']:>9.2f}x{row['OpenCL']:>9.2f}x"
              f"{row['OpenMP']:>9.2f}x")
    return data


# ---------------------------------------------------------------------------
# Offload placement — residency-aware whole-module planning
# ---------------------------------------------------------------------------

def workload_plans(ev: WorkloadEvaluation,
                   profile: CalibrationProfile | None = None
                   ) -> tuple[PlacementPlan, PlacementPlan]:
    """(per-site-greedy plan, planner plan) for one evaluated workload.

    Both are costed under the exact residency model, so the comparison
    isolates *assignment quality*: greedy places each site in isolation
    with the legacy lazy/eager formula (the seed policy, lazy only where
    the paper's §8.3 optimisation applied), the planner optimises the
    whole module with the :data:`STRATEGY` search. A calibration
    ``profile`` swaps measured parameters into both evaluations —
    greedy's *picks* stay static, so the gap shows what trusting the
    unmeasured constants costs.
    """
    kwargs = dict(
        host_seconds=ev.uncovered_seconds_with(profile),
        scale=ev.workload.paper_scale,
        greedy_lazy=ev.workload.name in LAZY_BENCHMARKS,
        events_overflowed=ev.events_overflowed,
        profile=profile,
    )
    greedy = plan_module(ev.sites, ev.events, strategy="greedy", **kwargs)
    planner = plan_module(ev.sites, ev.events, strategy=STRATEGY, **kwargs)
    return greedy, planner


def placement(evals: Evaluations | None = None) -> dict:
    """benchmark -> {greedy_ms, planner_ms, speedup, sites}."""
    evals = evals or _shared()
    results: dict = {}
    for workload in dominant_workloads():
        ev = evaluate_workload(workload, evals=evals)
        greedy, planner = workload_plans(ev, evals.config.profile)
        results[workload.name] = {
            "greedy_ms": greedy.total_s * 1e3,
            "planner_ms": planner.total_s * 1e3,
            "speedup": greedy.total_s / planner.total_s
            if planner.total_s > 0 else 1.0,
            "strategy": planner.strategy,
            "sites": planner.as_dict()["sites"],
        }
    return results


def print_placement(evals: Evaluations) -> dict:
    data = placement(evals)
    print(f"\nOffload placement: whole-module planner ({STRATEGY}) vs "
          f"per-site greedy (simulated ms)")
    print(f"{'bench':8s}{'greedy':>12s}{'planner':>12s}{'gain':>8s}"
          f"   assignment")
    for name, row in data.items():
        assigns = ", ".join(f"{s['api']}@{s['device']}"
                            for s in row["sites"][:4])
        if len(row["sites"]) > 4:
            assigns += f", … ({len(row['sites'])} sites)"
        print(f"{name:8s}{row['greedy_ms']:>12.3f}{row['planner_ms']:>12.3f}"
              f"{row['speedup']:>7.2f}x   {assigns}")
    return data


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def print_catalog() -> None:
    """``--list``: workloads, backends and experiments."""
    print("Workloads (NAS + Parboil recreations):")
    for w in all_workloads():
        census = ", ".join(f"{c}:{n}" for c, n in sorted(w.expected.items())
                           if n) or "-"
        flag = " [dominant]" if w.dominant else ""
        print(f"  {w.name:8s} {w.suite:8s} {census}{flag}")
    print("\nBackends:")
    for entry in default_registry().entries():
        apis = ", ".join(d.name for d in entry.descriptors)
        categories = ", ".join(entry.contracts) or "descriptors only"
        print(f"  {entry.name:14s} {entry.title}")
        print(f"  {'':14s}   APIs: {apis}")
        print(f"  {'':14s}   lowers: {categories}")
    print("\nExperiments:", ", ".join(list(_EXPERIMENTS) + ["all"]))


_EXPERIMENTS = {
    "table1": print_table1,
    "table2": print_table2,
    "table3": print_table3,
    "fig16": print_fig16,
    "fig17": print_fig17,
    "fig18": print_fig18,
    "fig19": print_fig19,
    "placement": print_placement,
}


def print_cache_stats(store: ArtifactStore) -> None:
    """The run's artifact-store counters, printed after the experiments
    whenever ``--cache-dir`` is given."""
    stats = store.stats.as_dict()
    print(f"\nArtifact store ({store.root}):")
    print(f"  hits={stats['hits']} misses={stats['misses']} "
          f"writes={stats['writes']} evictions={stats['evictions']}")
    print(f"  bytes={store.total_bytes()} corrupt={stats['corrupt']} "
          f"write_errors={stats['write_errors']}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures (simulated)")
    parser.add_argument("experiment", nargs="?",
                        choices=list(_EXPERIMENTS) + ["all"])
    parser.add_argument("--list", action="store_true",
                        help="print available workloads, backends and "
                             "experiments, then exit")
    parser.add_argument("--scale", type=int, default=1,
                        help="problem-size multiplier for workload inputs "
                             "(default 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent detection artifact store "
                             "(default: none); warm runs serve unchanged "
                             "functions from disk with bit-identical "
                             "reports, and the store's counters are "
                             "printed after the experiments")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="load a measured calibration profile (JSON "
                             "written by --calibrate) and cost every "
                             "placement with it; default: the static "
                             "fallback constants")
    parser.add_argument("--calibrate", action="store_true",
                        help="run the seeded calibration microbenchmarks "
                             "on this machine and use (and, with "
                             "--profile PATH, write) the resulting "
                             "profile for this run")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print_catalog()
        return 0
    if args.experiment is None:
        parser.error("an experiment is required unless --list is given")
    if args.calibrate:
        profile = Calibrator().run()
        if args.profile:
            write_profile_json(profile, args.profile)
    elif args.profile:
        profile = read_profile_json(args.profile, strict=True)
    else:
        profile = None
    evals = Evaluations(RunConfig(args.scale, args.cache_dir, profile))
    experiments = _EXPERIMENTS.values() if args.experiment == "all" \
        else [_EXPERIMENTS[args.experiment]]
    for fn in experiments:
        fn(evals)
    if evals.store is not None:
        print_cache_stats(evals.store)
    # Every accelerated run was checked against its original; a
    # mismatch fails the command.
    mismatched = [ev.workload.name for ev in evals.by_key.values()
                  if ev.outputs_equal is False]
    for name in mismatched:
        print(f"FAIL {name}: accelerated outputs differ from the "
              f"original run")
    return 1 if mismatched else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
