"""Experiment harness: regenerates every table and figure of the paper.

Run ``python -m repro.experiments <table1|table2|table3|fig16|fig17|fig18|
fig19|all>`` or use the per-experiment functions programmatically. Results
are cached per workload within a process so the figure/table functions can
share one detection+execution pass.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from ..backends.api import API_DESCRIPTORS, ApiCallSite
from ..backends.registry import default_registry
from ..detect.baselines import baseline_counts
from ..platform.cost import (
    OPENCL,
    OPENMP,
    best_api_cost,
    reference_time,
    site_cost,
)
from ..platform.machine import MACHINES
from ..platform.placement import (
    STRATEGIES,
    PlacementPlan,
    plan_module,
    site_at_scale,
)
from ..runtime.profile import DEFAULT_JIT_THRESHOLD
from ..runtime.runner import (
    DEFAULT_ENGINE,
    ENGINE_DESCRIPTIONS,
    ENGINES,
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


_CACHE: dict[str, WorkloadEvaluation] = {}

#: Detection thread-pool size, settable from the CLI (``--workers``).
#: The report is identical at any worker count, so cached evaluations stay
#: valid across settings.
DETECT_WORKERS = 1
#: Solve configuration (``--ordering``): the cross-idiom plan forest by
#: default; "plan" (per-idiom static plans) and "dynamic" (the seed's
#: per-step ordering) produce bit-identical reports, more slowly.
DETECT_ORDERING = "forest"

#: Execution defaults, settable from the CLI (``--engine`` / ``--scale``;
#: the ``REPRO_ENGINE`` environment variable supplies the ``--engine``
#: default). Engines are output- and profile-identical, so results only
#: depend on the scale; both stay in the cache key because wall-clock
#: measurements differ. ``JIT_THRESHOLD`` (``--jit-threshold``) is the
#: heat (calls plus loop back edges) at which the jit tier specializes a
#: function; other tiers ignore it.
def default_engine() -> str:
    """``$REPRO_ENGINE`` if set and valid, else :data:`DEFAULT_ENGINE`."""
    env = os.environ.get("REPRO_ENGINE")
    if env and env in ENGINES:
        return env
    return DEFAULT_ENGINE


def default_workers() -> int:
    """``$REPRO_WORKERS`` if set to a positive integer, else 1 — the
    ``--workers`` default, mirroring ``$REPRO_ENGINE``/``$REPRO_CACHE_DIR``
    so CI matrices select a pool size without editing command lines."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            return 1
        if value >= 1:
            return value
    return 1


ENGINE = default_engine()
SCALE = 1
JIT_THRESHOLD: int | None = None

#: Offload configuration, settable from the CLI (``--backends`` /
#: ``--placement``): which registry backends may lower and run matches,
#: and which planner strategy the placement experiment uses.
BACKENDS: list[str] | None = None
PLACEMENT = "beam"

#: Artifact-cache directory (``--cache-dir`` / ``--no-cache``; the
#: ``REPRO_CACHE_DIR`` environment variable supplies the default). None
#: disables the persistent cache; reports are bit-identical either way.
CACHE_DIR: str | None = None
#: Shared store instance when ``--cache-stats`` is given: every workload
#: detects through ONE ArtifactStore so hit/miss/eviction telemetry
#: aggregates across the run instead of resetting per workload.
CACHE_STORE = None

#: Detection supervision (``--deadline`` / ``--max-retries``): a
#: per-function solve wall-clock bound — overruns degrade to partial
#: results flagged in ``report.outcomes`` — and the retry budget for
#: transient detection failures (see :mod:`repro.reliability.supervisor`).
DEADLINE_S: float | None = None
MAX_RETRIES = 2

#: Active calibration profile (``--profile PATH`` loads one,
#: ``--calibrate`` measures one on this machine). None keeps every cost
#: evaluation on the documented static constants.
PROFILE = None
PROFILE_PATH: str | None = None


def load_active_profile(path: str | None = None, calibrate: bool = False,
                        out: str | None = None):
    """Resolve the session's calibration profile.

    ``calibrate`` runs the seeded microbench probes on this machine
    (and writes the result to ``out`` when given); otherwise ``path``
    names a previously written profile JSON. Returns None — static
    fallback constants — when neither is requested."""
    from ..platform.calibrate import Calibrator, read_profile_json, \
        write_profile_json
    if calibrate:
        profile = Calibrator().run()
        if out:
            write_profile_json(profile, out)
        return profile
    if path:
        return read_profile_json(path, strict=True)
    return None


def evaluate_workload(workload: Workload, scale: int | None = None,
                      execute: bool = True,
                      workers: int | None = None,
                      engine: str | None = None) -> WorkloadEvaluation:
    """Compile, detect, (optionally) run original + accelerated versions."""
    effective_workers = DETECT_WORKERS if workers is None else workers
    scale = SCALE if scale is None else scale
    engine = ENGINE if engine is None else engine
    # The report is worker-count independent, but the recorded detection
    # wall clock is not — keep the pool config in the cache key.
    backends_key = "*" if BACKENDS is None else ",".join(sorted(BACKENDS))
    key = f"{workload.name}@{scale}:{execute}:{effective_workers}:" \
          f"{DETECT_ORDERING}:{engine}:{JIT_THRESHOLD}:" \
          f"{backends_key}:{CACHE_DIR}:{DEADLINE_S}:{MAX_RETRIES}"
    if key in _CACHE:
        return _CACHE[key]
    compiled = compile_workload(
        workload.name, workload.source,
        workers=effective_workers,
        ordering=DETECT_ORDERING,
        verify=False,
        cache_dir=CACHE_STORE if CACHE_STORE is not None else CACHE_DIR,
        deadline_s=DEADLINE_S,
        max_retries=MAX_RETRIES)
    ev = WorkloadEvaluation(workload, compiled,
                            compile_base_s=compiled.compile_seconds,
                            compile_idl_s=compiled.detect_seconds)
    if execute:
        inputs = workload.make_inputs(scale)
        original = run_original(compiled, workload.entry, inputs,
                                engine=engine, jit_threshold=JIT_THRESHOLD)
        ev.coverage = original.coverage
        ev.sequential_seconds = original.sequential_seconds
        ev.opcode_counts = dict(original.opcode_counts)
        if workload.dominant:
            # The original run has already captured its outputs in private
            # buffers, so the accelerated run can transform the same
            # compiled module in place — no second compile+detect pass.
            accelerated = run_accelerated(compiled, workload.entry,
                                          workload.make_inputs(scale),
                                          engine=engine, backends=BACKENDS,
                                          jit_threshold=JIT_THRESHOLD)
            ev.outputs_equal = outputs_match(original, accelerated)
            runtime = accelerated.api_runtime
            if runtime is not None:
                ev.sites = runtime.all_sites()
                ev.events = list(runtime.events)
                ev.events_overflowed = runtime.events_overflowed
    _CACHE[key] = ev
    return ev


# ---------------------------------------------------------------------------
# Table 1 — idiom counts by detector
# ---------------------------------------------------------------------------

def table1(execute: bool = False) -> dict:
    """Rows: detector -> category -> count across all 21 benchmarks."""
    idl_row: dict[str, int] = {c: 0 for c in CATEGORIES}
    all_matches = []
    for workload in all_workloads():
        ev = evaluate_workload(workload, execute=execute)
        for category, count in ev.compiled.report.by_category().items():
            idl_row[category] = idl_row.get(category, 0) + count
        all_matches.extend(ev.compiled.report.matches)
    rows = baseline_counts(all_matches)
    table = {
        "Polly": {c: rows["Polly"].get(c, 0) for c in CATEGORIES},
        "ICC": {c: rows["ICC"].get(c, 0) for c in CATEGORIES},
        "IDL": idl_row,
    }
    return table


def print_table1() -> dict:
    table = table1()
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

def table2() -> dict:
    """Per-benchmark compile seconds without/with IDL detection."""
    rows = {}
    for workload in all_workloads():
        ev = evaluate_workload(workload, execute=False)
        base = ev.compile_base_s
        with_idl = base + ev.compile_idl_s
        overhead = 100.0 * (with_idl - base) / base if base > 0 else 0.0
        rows[workload.name] = {
            "without_idl_s": base,
            "with_idl_s": with_idl,
            "overhead_pct": overhead,
        }
    return rows


def print_table2() -> dict:
    rows = table2()
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

def fig16() -> dict:
    return {w.name: evaluate_workload(w, execute=False)
            .compiled.report.by_category()
            for w in all_workloads()}


def print_fig16() -> dict:
    data = fig16()
    print("\nFigure 16: detected idioms per benchmark")
    for name, counts in data.items():
        total = sum(counts.values())
        parts = ", ".join(f"{CATEGORY_LABELS[c]}: {n}"
                          for c, n in sorted(counts.items()))
        print(f"{name:8s} {total:2d}  {parts}")
    return data


def fig17() -> dict:
    return {w.name: 100.0 * evaluate_workload(w).coverage
            for w in all_workloads()}


def print_fig17() -> dict:
    data = fig17()
    print("\nFigure 17: runtime coverage of detected idioms (%)")
    for name, cov in data.items():
        bar = "#" * int(cov / 2.5)
        print(f"{name:8s} {cov:5.1f} {bar}")
    return data


# ---------------------------------------------------------------------------
# Table 3 / Figure 18 / Figure 19 — performance
# ---------------------------------------------------------------------------



def _accelerated_seconds(ev: WorkloadEvaluation, api, machine,
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


def table3(scale: int | None = None) -> dict:
    """benchmark -> platform -> api -> simulated milliseconds."""
    results: dict = {}
    for workload in dominant_workloads():
        ev = evaluate_workload(workload, scale)
        per_platform: dict = {}
        for mname, machine in MACHINES.items():
            row = {}
            for api in API_DESCRIPTORS.values():
                seconds = _accelerated_seconds(ev, api, machine, lazy=True)
                if seconds is not None:
                    row[api.name] = seconds * 1e3
            per_platform[mname] = row
        results[workload.name] = per_platform
    return results


def print_table3() -> dict:
    data = table3()
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


def fig18() -> dict:
    """benchmark -> platform -> dict(speedup, api, lazy_speedup).

    The "lazy" entry exists only for the iterative benchmarks the paper's
    runtime optimisation covers; other benchmarks report "eager" only and
    the consumer falls back accordingly.
    """
    results: dict = {}
    for workload in dominant_workloads():
        ev = evaluate_workload(workload)
        per_platform: dict = {}
        lazy_modes = (False, True) if workload.name in LAZY_BENCHMARKS \
            else (False,)
        for mname, machine in MACHINES.items():
            apis = list(API_DESCRIPTORS.values())
            entries = {}
            for lazy in lazy_modes:
                best_total, best_api = None, None
                for api in apis:
                    seconds = _accelerated_seconds(ev, api, machine, lazy)
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


def print_fig18() -> dict:
    data = fig18()
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


def fig19() -> dict:
    """benchmark -> {idl, opencl, openmp} speedups vs sequential."""
    results: dict = {}
    best_api = fig18()
    for workload in dominant_workloads():
        ev = evaluate_workload(workload)
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


def print_fig19() -> dict:
    data = fig19()
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
                   strategy: str | None = None,
                   profile=None
                   ) -> tuple[PlacementPlan, PlacementPlan]:
    """(per-site-greedy plan, planner plan) for one evaluated workload.

    Both are costed under the exact residency model, so the comparison
    isolates *assignment quality*: greedy places each site in isolation
    with the legacy lazy/eager formula (the seed policy, lazy only where
    the paper's §8.3 optimisation applied), the planner optimises the
    whole module. A calibration ``profile`` (default: the session's
    :data:`PROFILE`) swaps measured parameters into both evaluations —
    greedy's *picks* stay static, so the gap shows what trusting the
    unmeasured constants costs.
    """
    strategy = PLACEMENT if strategy is None else strategy
    profile = PROFILE if profile is None else profile
    kwargs = dict(
        backends=BACKENDS,
        host_seconds=ev.uncovered_seconds_with(profile),
        scale=ev.workload.paper_scale,
        greedy_lazy=ev.workload.name in LAZY_BENCHMARKS,
        events_overflowed=ev.events_overflowed,
        profile=profile,
    )
    greedy = plan_module(ev.sites, ev.events, strategy="greedy", **kwargs)
    planner = plan_module(ev.sites, ev.events, strategy=strategy, **kwargs)
    return greedy, planner


def placement() -> dict:
    """benchmark -> {greedy_ms, planner_ms, speedup, sites}."""
    results: dict = {}
    for workload in dominant_workloads():
        ev = evaluate_workload(workload)
        greedy, planner = workload_plans(ev)
        results[workload.name] = {
            "greedy_ms": greedy.total_s * 1e3,
            "planner_ms": planner.total_s * 1e3,
            "speedup": greedy.total_s / planner.total_s
            if planner.total_s > 0 else 1.0,
            "strategy": planner.strategy,
            "sites": planner.as_dict()["sites"],
        }
    return results


def print_placement() -> dict:
    data = placement()
    print(f"\nOffload placement: whole-module planner ({PLACEMENT}) vs "
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
    """``--list``: workloads, engines, backends, placement strategies."""
    print("Workloads (NAS + Parboil recreations):")
    for w in all_workloads():
        census = ", ".join(f"{c}:{n}" for c, n in sorted(w.expected.items())
                           if n) or "-"
        flag = " [dominant]" if w.dominant else ""
        print(f"  {w.name:8s} {w.suite:8s} {census}{flag}")
    print("\nExecution tiers (--engine; $REPRO_ENGINE sets the default):")
    for name in sorted(ENGINES):
        default = " (default)" if name == default_engine() else ""
        description = ENGINE_DESCRIPTIONS.get(name, "")
        print(f"  {name:10s}{description}{default}")
    print("\nBackends (--backends):")
    for entry in default_registry().entries():
        apis = ", ".join(d.name for d in entry.descriptors)
        categories = ", ".join(entry.contracts) or "descriptors only"
        print(f"  {entry.name:14s} {entry.title}")
        print(f"  {'':14s}   APIs: {apis}")
        print(f"  {'':14s}   lowers: {categories}")
    print("\nPlacement strategies (--placement):")
    for name in STRATEGIES:
        default = " (default)" if name == PLACEMENT else ""
        print(f"  {name}{default}")
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


def print_cache_stats() -> None:
    """``--cache-stats``: the shared store's aggregate telemetry."""
    if CACHE_STORE is None:
        print("\nArtifact store: disabled (no cache directory)")
        return
    stats = CACHE_STORE.stats.as_dict()
    print(f"\nArtifact store ({CACHE_STORE.root}):")
    print(f"  hits={stats['hits']} misses={stats['misses']} "
          f"writes={stats['writes']} evictions={stats['evictions']}")
    print(f"  bytes={CACHE_STORE.total_bytes()}"
          + (f" budget={CACHE_STORE.budget_bytes}"
             f" policy={CACHE_STORE.eviction}"
             if CACHE_STORE.budget_bytes is not None else "")
          + f" corrupt={stats['corrupt']} "
            f"write_errors={stats['write_errors']}")


def main(argv: list[str] | None = None) -> int:
    global DETECT_WORKERS, DETECT_ORDERING, ENGINE, SCALE, \
        JIT_THRESHOLD, BACKENDS, PLACEMENT, CACHE_DIR, CACHE_STORE, \
        DEADLINE_S, MAX_RETRIES, PROFILE, PROFILE_PATH

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures (simulated)")
    parser.add_argument("experiment", nargs="?",
                        choices=list(_EXPERIMENTS) + ["all"])
    parser.add_argument("--list", action="store_true",
                        help="print available workloads, engines, backends "
                             "and placement strategies, then exit")
    parser.add_argument("--workers", type=int, default=default_workers(),
                        help="detection thread pool size (default "
                             f"{default_workers()}, override with "
                             "$REPRO_WORKERS)")
    parser.add_argument("--ordering",
                        choices=["forest", "plan", "dynamic"],
                        default=DETECT_ORDERING,
                        help="constraint-solve configuration: the fused "
                             "cross-idiom plan forest (default), per-idiom "
                             "static plans, or the seed's dynamic ordering "
                             "— reports are bit-identical")
    parser.add_argument("--engine", choices=sorted(ENGINES),
                        default=default_engine(),
                        help="execution tier (default "
                             f"{default_engine()}, override with "
                             "$REPRO_ENGINE; 'reference' is the "
                             "tree-walking interpreter, 'jit' adds "
                             "profile-guided specialization on the vm)")
    parser.add_argument("--jit-threshold", type=int, default=None,
                        metavar="N",
                        help="heat (calls plus loop back edges) at which "
                             "the jit tier specializes a function, "
                             "entering a hot loop at its header "
                             f"(default {DEFAULT_JIT_THRESHOLD}; 1 compiles "
                             "every function on its first call; ignored "
                             "by other engines)")
    parser.add_argument("--scale", type=int, default=1,
                        help="problem-size multiplier for workload inputs "
                             "(default 1; larger-than-paper sizes need the "
                             "vm engine to stay tractable)")
    parser.add_argument("--backends", nargs="*", default=None,
                        metavar="NAME",
                        help="restrict lowering and placement to these "
                             "registry backends (see --list; default: all)")
    parser.add_argument("--placement", choices=list(STRATEGIES),
                        default=PLACEMENT,
                        help="offload planner strategy for the 'placement' "
                             f"experiment (default {PLACEMENT})")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent detection artifact cache "
                             "directory (default: $REPRO_CACHE_DIR if "
                             "set, else disabled); warm runs serve "
                             "unchanged functions from disk with "
                             "bit-identical reports")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache even if "
                             "$REPRO_CACHE_DIR is set")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print aggregate artifact-store telemetry "
                             "(hits, misses, bytes, evictions) after the "
                             "experiments; requires a cache directory")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-function detection solve deadline; "
                             "overruns yield partial results flagged in "
                             "the report outcomes (default: none)")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retry budget for transient detection "
                             "failures before the session degrades to "
                             "a safer tier (default 2)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="load a measured calibration profile (JSON "
                             "written by --calibrate) and cost every "
                             "placement with it; default: the static "
                             "fallback constants")
    parser.add_argument("--calibrate", action="store_true",
                        help="run the seeded calibration microbenchmarks "
                             "on this machine and use (and, with "
                             "--profile PATH, write) the resulting "
                             "profile for this session")
    parser.add_argument("--fault-plan", default=None, metavar="PLAN",
                        help="deterministic fault-injection plan: inline "
                             "JSON or @path to a JSON file (also "
                             "$REPRO_FAULT_PLAN); reliability testing "
                             "only — results must stay bit-identical")
    args = parser.parse_args(argv)
    if args.list:
        print_catalog()
        return 0
    if args.experiment is None:
        parser.error("an experiment is required unless --list is given")
    if args.backends is not None:
        known = set(default_registry().names())
        unknown = sorted(set(args.backends) - known)
        if unknown:
            parser.error(f"unknown backends: {', '.join(unknown)} "
                         f"(choose from {', '.join(sorted(known))})")
    DETECT_WORKERS = args.workers
    DETECT_ORDERING = args.ordering
    ENGINE = args.engine
    SCALE = args.scale
    JIT_THRESHOLD = args.jit_threshold
    BACKENDS = args.backends
    PLACEMENT = args.placement
    DEADLINE_S = args.deadline
    MAX_RETRIES = args.max_retries
    PROFILE_PATH = args.profile
    PROFILE = load_active_profile(args.profile, calibrate=args.calibrate,
                                  out=args.profile if args.calibrate
                                  else None)
    if args.fault_plan is not None:
        from ..reliability import faults
        faults.install_plan(args.fault_plan)
    if args.no_cache:
        CACHE_DIR = None
    else:
        CACHE_DIR = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") \
            or None
    CACHE_STORE = None
    if args.cache_stats and CACHE_DIR is not None:
        from ..cache import ArtifactStore

        CACHE_STORE = ArtifactStore(CACHE_DIR)
    if args.experiment == "all":
        for fn in _EXPERIMENTS.values():
            fn()
    else:
        _EXPERIMENTS[args.experiment]()
    if args.cache_stats:
        print_cache_stats()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
