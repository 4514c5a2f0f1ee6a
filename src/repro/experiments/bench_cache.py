"""Artifact-cache benchmark: cold vs warm detection + an edit-session
workload.

Models the warm-traffic regime the cache layer exists for — the same
modules re-submitted over and over with small edits — over the NAS +
Parboil suite::

    PYTHONPATH=src python -m repro.experiments.bench_cache \
        --output BENCH_cache.json

Three stanzas:

* **cold vs warm** — full-suite detection without a cache vs fully warm
  (every function served from the store), per workload and aggregated;
  match sets are asserted bit-identical (the headline requires warm to be
  >= 5x faster with zero changed functions).
* **edit session** — N rounds of "mutate k functions, re-detect the whole
  suite". Every round asserts that *exactly* the mutated functions were
  re-solved (the invalidation-granularity guarantee) and that the warm
  reports for the mutated modules are bit-identical to fresh no-cache
  solves of the edited IR.
* **matrix** — cold vs warm bit-identity for every solve ordering
  (``forest`` / ``plan`` / ``dynamic``) crossed with serial and
  thread-pool detection, sharing one store (the per-ordering config
  signatures keep their entries apart).

CI runs the smoke variant on the full suite and fails if cold and warm
match sets diverge anywhere, if an edit round re-solves anything besides
the mutated functions, or if a fully warm re-run is slower than cold::

    PYTHONPATH=src python -m repro.experiments.bench_cache --check
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from ..cache import ArtifactStore
from ..idioms import DetectionSession, IdiomDetector, report_fingerprint
from ..ir.values import const_int
from ..ir.instructions import BinaryOperator
from .suites import compile_suite
from .timing import best_of

#: Timing repetitions; best-of, as everywhere in the benchmarks
#: (--check raises it).
REPEATS = 3

#: The matrix' detection worker counts (1 runs serial, 2 a thread pool).
POOLS = (1, 2)


def _function_count(module) -> int:
    return sum(1 for f in module.functions.values()
               if not f.is_declaration())


def _mutate(function, round_no: int) -> None:
    """Deterministically edit one function: a dead (but fingerprint-
    changing) add at the top of the entry block, distinct per round."""
    dead = BinaryOperator("add", const_int(0), const_int(round_no + 1))
    dead.name = function.unique_name("editbump")
    function.blocks[0].insert(0, dead)


def run_benchmark(workload_names: list[str] | None = None,
                  cache_dir: str | None = None,
                  rounds: int = 5, mutate_k: int = 1,
                  full: bool = True) -> dict:
    """Measure cold vs warm detection and the edit-session workload.

    ``full=False`` (the CI smoke mode) shrinks the correctness matrix to
    the forest ordering (the other orderings' cold solves dominate the
    runtime and are covered by the committed full run).
    """
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-cache-bench-")
    modules = [(w.name, module)
               for w, module in compile_suite(workload_names)]

    # One store instance shared by every cached detector below, so the
    # emitted "store" stanza accounts for all stanzas' traffic.
    store = ArtifactStore(cache_dir)
    cold_det = IdiomDetector()
    warm_det = IdiomDetector(cache=store)
    cold_det.compiler.prepare(cold_det.idioms, forest=True)
    warm_det.compiler.prepare(warm_det.idioms, forest=True)

    # -- cold vs fully warm ---------------------------------------------------
    # Identity failures raise immediately (with the offending workload
    # named); the identical/only_mutated flags recorded in the JSON are
    # therefore true-by-construction in any emitted artifact.
    rows: dict[str, dict] = {}
    total_functions = 0
    for name, module in modules:
        cold_s, cold_report = best_of(lambda: cold_det.detect(module),
                                      REPEATS)
        warm_det.detect(module)  # populate
        session = DetectionSession(warm_det)
        warm_s, warm_report = best_of(lambda: session.detect(module),
                                      REPEATS)
        functions = _function_count(module)
        total_functions += functions
        if session.cache_hits != functions or session.cache_misses != 0:
            raise AssertionError(
                f"{name}: warm run was not fully served from the store "
                f"({session.cache_hits}/{functions} hits)")
        if report_fingerprint(cold_report, by_identity=False) != \
                report_fingerprint(warm_report, by_identity=False):
            raise AssertionError(
                f"{name}: cold and warm match sets diverge")
        if cold_report.stats.as_dict() != warm_report.stats.as_dict():
            raise AssertionError(
                f"{name}: cold and warm reports disagree on solver stats")
        rows[name] = {
            "functions": functions,
            "matches": warm_report.total(),
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "speedup": round(cold_s / max(warm_s, 1e-9), 2),
        }

    cold_total = sum(r["cold_seconds"] for r in rows.values())
    warm_total = sum(r["warm_seconds"] for r in rows.values())
    suite = {
        "functions": total_functions,
        "matches": sum(r["matches"] for r in rows.values()),
        "cold_seconds": round(cold_total, 4),
        "warm_seconds": round(warm_total, 4),
        "speedup": round(cold_total / max(warm_total, 1e-9), 2),
        "match_sets_identical": True,  # divergence raises above
    }

    # -- edit session ---------------------------------------------------------
    all_functions = [(name, module, function)
                     for name, module in modules
                     for function in module.functions.values()
                     if not function.is_declaration()]
    detail = []
    only_mutated = True
    for round_no in range(rounds):
        mutated = [all_functions[(round_no * mutate_k + i)
                                 % len(all_functions)]
                   for i in range(mutate_k)]
        for _, _, function in mutated:
            _mutate(function, round_no)
        mutated_names = [f"{name}.{fn.name}" for name, _, fn in mutated]
        mutated_modules = {id(module) for _, module, _ in mutated}
        resolved = hits = 0
        round_s = 0.0
        for name, module in modules:
            session = DetectionSession(warm_det)
            seconds, warm_report = best_of(lambda: session.detect(module),
                                           1)
            round_s += seconds
            resolved += session.cache_misses
            hits += session.cache_hits
            if id(module) in mutated_modules:
                fresh = cold_det.detect(module)
                if report_fingerprint(fresh, by_identity=False) != \
                        report_fingerprint(warm_report, by_identity=False):
                    raise AssertionError(
                        f"edit round {round_no}: warm match sets for "
                        f"{name} diverge from a fresh solve of the "
                        f"edited IR")
        if resolved != len({id(fn) for _, _, fn in mutated}):
            only_mutated = False
        detail.append({
            "round": round_no,
            "mutated": mutated_names,
            "resolved": resolved,
            "hits": hits,
            "warm_seconds": round(round_s, 4),
        })
    edit_session = {
        "rounds": rounds,
        "mutate_per_round": mutate_k,
        "functions": len(all_functions),
        "only_mutated_resolved": only_mutated,
        "rounds_detail": detail,
    }

    # -- ordering x worker-pool matrix ---------------------------------------
    # The edit session mutated the IR in place, so the matrix measures the
    # edited suite; every configuration still populates and replays its
    # own entries (per-config signatures) against identical cold solves.
    matrix: dict[str, dict] = {}
    orderings = ("forest", "plan", "dynamic") if full else ("forest",)
    for ordering in orderings:
        memo = indexed = ordering != "dynamic"
        # The cold reference must be a genuinely uncached solve: the
        # forest config's signature matches entries already written by
        # the earlier stanzas, so a cache-carrying "cold" run would be
        # served from the store and the comparison would prove nothing.
        plain_cfg = IdiomDetector(ordering=ordering, memo=memo,
                                  indexed=indexed)
        cache_cfg = IdiomDetector(ordering=ordering, memo=memo,
                                  indexed=indexed, cache=store)
        for workers in POOLS:
            key = f"{ordering}/threadx{workers}"
            cold_s = warm_s = 0.0
            for name, module in modules:
                cold = DetectionSession(plain_cfg, workers=workers)
                seconds, cold_report = best_of(
                    lambda: cold.detect(module), 1)
                cold_s += seconds
                DetectionSession(cache_cfg,
                                 workers=workers).detect(module)  # populate
                warm = DetectionSession(cache_cfg, workers=workers)
                seconds, warm_report = best_of(
                    lambda: warm.detect(module), 1)
                warm_s += seconds
                if warm.cache_misses != 0:
                    raise AssertionError(
                        f"{name}: {key} warm run re-solved "
                        f"{warm.cache_misses} functions")
                if report_fingerprint(cold_report, by_identity=False) != \
                        report_fingerprint(warm_report,
                                           by_identity=False):
                    raise AssertionError(
                        f"{key}: cold and warm match sets diverge "
                        f"on {name}")
            matrix[key] = {
                "cold_seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 4),
                "identical": True,  # divergence raises above
            }

    return {
        "workloads": rows,
        "suite": suite,
        "edit_session": edit_session,
        "matrix": matrix,
        "store": dict(store.stats.as_dict(), entries=store.entry_count()),
    }


def check_regression(current: dict, max_ratio: float) -> list[str]:
    """Failures if warm is slower than cold or an edit round
    over-resolved (match-set divergence raises inside run_benchmark
    itself, with the offending workload named)."""
    failures = []
    suite = current["suite"]
    if suite["warm_seconds"] > max_ratio * suite["cold_seconds"]:
        failures.append(
            f"suite: warm {suite['warm_seconds']}s vs cold "
            f"{suite['cold_seconds']}s (> {max_ratio:.2f}x)")
    if not current["edit_session"]["only_mutated_resolved"]:
        failures.append(
            "edit session: a round re-solved more than the mutated "
            "functions")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-cache",
        description="Benchmark cold vs warm (content-addressed cache) "
                    "detection and edit-session incrementality")
    parser.add_argument("--output", default=None,
                        help="write full results JSON here")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these benchmarks (default: all)")
    parser.add_argument("--cache-dir", default=None,
                        help="store directory (default: a fresh temp dir; "
                             "pass a persistent path to measure "
                             "cross-session warm starts)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="edit-session rounds (default 5)")
    parser.add_argument("--mutate", type=int, default=1, metavar="K",
                        help="functions mutated per round (default 1)")
    parser.add_argument("--check", action="store_true",
                        help="smoke mode: forest-only matrix; fail if "
                             "cold/warm match sets diverge, an edit round "
                             "over-resolves, or warm is slower than cold")
    parser.add_argument("--max-ratio", type=float, default=1.0,
                        help="--check fails if suite warm_seconds exceeds "
                             "cold_seconds by this factor (default 1.0: "
                             "a fully warm run must never be slower)")
    args = parser.parse_args(argv)

    if args.check:
        global REPEATS
        REPEATS = 5
    result = run_benchmark(args.workloads, cache_dir=args.cache_dir,
                           rounds=args.rounds, mutate_k=args.mutate,
                           full=not args.check)

    for name, row in result["workloads"].items():
        print(f"{name:8s} cold={row['cold_seconds']:.4f}s "
              f"warm={row['warm_seconds']:.4f}s "
              f"({row['speedup']:.1f}x, {row['functions']} functions, "
              f"{row['matches']} matches)")
    suite = result["suite"]
    print(f"suite    cold={suite['cold_seconds']:.4f}s "
          f"warm={suite['warm_seconds']:.4f}s "
          f"({suite['speedup']:.1f}x warm-start speedup, "
          f"{suite['functions']} functions)")
    for entry in result["edit_session"]["rounds_detail"]:
        print(f"edit r{entry['round']}: resolved {entry['resolved']} "
              f"(hits {entry['hits']}) in {entry['warm_seconds']:.4f}s "
              f"[{', '.join(entry['mutated'])}]")
    for key, cell in result["matrix"].items():
        print(f"matrix {key:18s} cold={cell['cold_seconds']:.4f}s "
              f"warm={cell['warm_seconds']:.4f}s "
              f"identical={cell['identical']}")
    st = result["store"]
    print(f"store    {st['entries']} entries, {st['writes']} writes, "
          f"{st['hits']} hits, {st['misses']} misses, "
          f"{st['corrupt']} corrupt")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        failures = check_regression(result, args.max_ratio)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"cold/warm match sets bit-identical; warm within "
              f"{args.max_ratio:.2f}x of cold; edit rounds re-solved "
              f"only mutated functions")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
