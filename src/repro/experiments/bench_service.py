"""Detection-service benchmark: resident multi-tenant serving vs
per-request cold invocation.

Models the serving regime the daemon exists for: several tenants submit
overlapping module sets concurrently (everyone depends on the same
popular libraries), a few tenants carry private edits, and the whole mix
repeats over multiple rounds — an edit-heavy, high-overlap traffic
pattern::

    PYTHONPATH=src python -m repro.experiments.bench_service \
        --output BENCH_service.json

Stanzas:

* **cold** — the no-service baseline: every request pays a fresh
  ``IdiomDetector().detect(parse(text))``. Each distinct module text is
  measured once and charged per occurrence (a cold process has no way
  to amortise anything, so per-text cost × request count is exact).
* **service** — the same request stream submitted concurrently from
  tenant threads to a resident :class:`~repro.service.DetectionService`
  (serial and with a two-thread detection pool). Reports are
  asserted bit-identical to the cold baseline per request — structural
  wire fingerprints (request and baseline parse the text independently)
  plus solver-stats equality. Reported: sustained requests/sec,
  p50/p95 latency, dedupe ratio, store hit rate.
* **eviction** — the service run again against a store squeezed under a
  tiny byte budget: evictions must occur, every evicted entry must come
  back as a clean miss (re-solve), never an error, and reports stay
  bit-identical.

CI gate (``--check``): warm sustained throughput must beat the cold
per-request baseline by ``--min-speedup`` (default 5x), dedupe must
actually happen, and the eviction stanza must be error-free.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading

from ..idioms import IdiomDetector
from ..ir.instructions import BinaryOperator
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.values import const_int
from ..service import DetectionService, ServiceConfig
from ..service.latency import summarize_latencies
from ..service.wire import report_wire_fingerprint
from .suites import compile_suite
from .timing import best_of

#: Detection worker counts exercised by the service stanza (1 runs
#: serial, 2 a thread pool).
POOLS = (1, 2)


def _edit(text: str, tenant: int) -> str:
    """A tenant-private edit: parse, add a dead (fingerprint-changing)
    add to the first defined function, reprint. Distinct per tenant."""
    module = parse_module(text)
    for function in module.functions.values():
        if function.is_declaration():
            continue
        dead = BinaryOperator("add", const_int(0), const_int(tenant + 1))
        dead.name = function.unique_name("tenantedit")
        function.blocks[0].insert(0, dead)
        break
    return print_module(module)


def build_traffic(workload_names: list[str] | None, tenants: int,
                  rounds: int) -> tuple[list[str], list[tuple[str, str]]]:
    """(distinct texts, request stream of (tenant, text)).

    Every tenant submits every suite module each round (the popular-
    library overlap); each tenant past the first additionally carries a
    private edit of one module, rotating across the suite."""
    base = [(w.name, print_module(module))
            for w, module in compile_suite(workload_names)]
    texts: dict[int, list[str]] = {}
    for tenant in range(tenants):
        mine = [text for _, text in base]
        if tenant > 0:
            slot = (tenant - 1) % len(mine)
            mine[slot] = _edit(mine[slot], tenant)
        texts[tenant] = mine
    requests = [(f"tenant-{tenant}", text)
                for _ in range(rounds)
                for tenant in range(tenants)
                for text in texts[tenant]]
    distinct = list(dict.fromkeys(text for _, text in requests))
    return distinct, requests


def cold_baseline(distinct: list[str],
                  requests: list[tuple[str, str]]) -> tuple[dict, dict]:
    """(stanza dict, text -> (wire fingerprint, stats dict) reference).

    One fresh-detector solve per distinct text (timed), charged per
    occurrence in the request stream."""
    reference: dict[str, tuple[str, dict]] = {}
    per_text_s: dict[str, float] = {}
    for text in distinct:
        module = parse_module(text)
        seconds, report = best_of(
            lambda: IdiomDetector().detect(module), 1)
        per_text_s[text] = seconds
        reference[text] = (report_wire_fingerprint(report),
                           report.stats.as_dict())
    total_s = sum(per_text_s[text] for _, text in requests)
    stanza = {
        "distinct_texts": len(distinct),
        "requests": len(requests),
        "total_seconds": round(total_s, 4),
        "requests_per_s": round(len(requests) / max(total_s, 1e-9), 2),
    }
    return stanza, reference


def drive_service(service: DetectionService,
                  requests: list[tuple[str, str]],
                  reference: dict, tenants: int) -> dict:
    """Submit the stream from per-tenant threads, wait, verify identity
    per request, and summarize throughput/latency/dedupe."""
    by_tenant: dict[str, list[str]] = {}
    for tenant, text in requests:
        by_tenant.setdefault(tenant, []).append(text)
    futures: list[tuple[str, object]] = []
    futures_lock = threading.Lock()

    def tenant_thread(tenant: str, texts: list[str]) -> None:
        for text in texts:
            future = service.submit(text, tenant=tenant)
            with futures_lock:
                futures.append((text, future))

    threads = [threading.Thread(target=tenant_thread, args=(t, texts))
               for t, texts in by_tenant.items()]
    import time

    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    results = [(text, future.result(timeout=600.0))
               for text, future in futures]
    wall_s = time.perf_counter() - t0

    mismatches = []
    for text, result in results:
        want_fp, want_stats = reference[text]
        if report_wire_fingerprint(result.report) != want_fp:
            mismatches.append(f"{result.tenant}: match-set divergence")
        elif result.report.stats.as_dict() != want_stats:
            mismatches.append(f"{result.tenant}: solver-stats divergence")
    if mismatches:
        raise AssertionError(
            f"service reports diverge from direct detect_idioms: "
            f"{mismatches[:3]} ({len(mismatches)} total)")

    stats = service.stats()
    latencies = [result.latency_s for _, result in results]
    return {
        "requests": len(results),
        "wall_seconds": round(wall_s, 4),
        "requests_per_s": round(len(results) / max(wall_s, 1e-9), 2),
        "latency": {k: round(v, 5) if isinstance(v, float) else v
                    for k, v in summarize_latencies(latencies).items()},
        "batches": stats["batches"],
        "functions_requested": stats["functions_requested"],
        "solved_functions": stats["solved_functions"],
        "store_hits": stats["store_hits"],
        "batch_dedupe_hits": stats["batch_dedupe_hits"],
        "inflight_hits": stats["inflight_hits"],
        "module_dedupe_hits": stats["module_dedupe_hits"],
        "dedupe_ratio": round(stats["dedupe_ratio"], 4),
        "store": stats.get("store"),
        "errors": stats["errors"],
        "identical": True,  # divergence raises above
    }


def run_benchmark(workload_names: list[str] | None = None,
                  tenants: int = 4, rounds: int = 3,
                  budget_bytes: int = 8 * 1024) -> dict:
    distinct, requests = build_traffic(workload_names, tenants, rounds)
    cold, reference = cold_baseline(distinct, requests)

    service_rows: dict[str, dict] = {}
    for workers in POOLS:
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-service-") as cache_dir:
            config = ServiceConfig(workers=workers,
                                   cache_dir=cache_dir,
                                   batch_window_s=0.004)
            with DetectionService(config) as service:
                row = drive_service(service, requests, reference, tenants)
        row["speedup_vs_cold"] = round(
            row["requests_per_s"] / max(cold["requests_per_s"], 1e-9), 2)
        service_rows[f"threadx{workers}"] = row

    # Restart stanza: the store tier only shows once the in-memory
    # tiers (parse cache -> shared modules) are gone — a new service on
    # the same cache directory is exactly the daemon-restart case. The
    # restarted service must solve nothing.
    with tempfile.TemporaryDirectory(
            prefix="repro-bench-service-warm-") as cache_dir:
        config = ServiceConfig(cache_dir=cache_dir, batch_window_s=0.004)
        with DetectionService(config) as service:
            drive_service(service, requests, reference, tenants)
        with DetectionService(config) as service:
            restart = drive_service(service, requests, reference, tenants)
    restart["speedup_vs_cold"] = round(
        restart["requests_per_s"] / max(cold["requests_per_s"], 1e-9), 2)
    if restart["solved_functions"]:
        raise AssertionError(
            f"restarted service re-solved {restart['solved_functions']} "
            f"functions that were in the store")

    # Eviction stanza: same traffic, store squeezed far below the
    # suite's footprint. Evicted entries must re-solve cleanly.
    with tempfile.TemporaryDirectory(
            prefix="repro-bench-service-evict-") as cache_dir:
        config = ServiceConfig(cache_dir=cache_dir,
                               budget_bytes=budget_bytes,
                               batch_window_s=0.004)
        with DetectionService(config) as service:
            row = drive_service(service, requests, reference, tenants)
            total_bytes = service.store.total_bytes()
    row["budget_bytes"] = budget_bytes
    row["final_bytes"] = total_bytes
    row["within_budget"] = total_bytes <= budget_bytes
    eviction = row

    return {
        "traffic": {
            "tenants": tenants,
            "rounds": rounds,
            "requests": len(requests),
            "distinct_texts": len(distinct),
        },
        "cold": cold,
        "service": service_rows,
        "restart": restart,
        "eviction": eviction,
    }


def check_regression(result: dict, min_speedup: float) -> list[str]:
    """Failures for the CI gate (identity divergence raises inside
    run_benchmark itself, naming the tenant)."""
    failures = []
    for key, row in result["service"].items():
        if row["speedup_vs_cold"] < min_speedup:
            failures.append(
                f"service {key}: {row['requests_per_s']} req/s is only "
                f"{row['speedup_vs_cold']}x the cold baseline "
                f"(< {min_speedup}x)")
        if row["errors"]:
            failures.append(f"service {key}: {row['errors']} errors")
        served = (row["store_hits"] + row["batch_dedupe_hits"] +
                  row["inflight_hits"] + row["module_dedupe_hits"])
        if served == 0:
            failures.append(f"service {key}: no dedupe at all")
    restart = result["restart"]
    if restart["errors"]:
        failures.append(f"restart: {restart['errors']} errors")
    if restart["store_hits"] == 0:
        failures.append("restart: nothing served from the store")
    ev = result["eviction"]
    if ev["errors"]:
        failures.append(f"eviction: {ev['errors']} errors")
    if not (ev["store"] or {}).get("evictions"):
        failures.append("eviction: budget never evicted anything")
    if not ev["within_budget"]:
        failures.append(
            f"eviction: store ended at {ev['final_bytes']} bytes, over "
            f"the {ev['budget_bytes']}-byte budget")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-service",
        description="Benchmark the resident multi-tenant detection "
                    "service against per-request cold invocation")
    parser.add_argument("--output", default=None,
                        help="write full results JSON here")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these benchmarks (default: all)")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3,
                        help="times each tenant re-submits its module "
                             "set (default 3)")
    parser.add_argument("--budget", type=int, default=8 * 1024,
                        metavar="BYTES",
                        help="store byte budget for the eviction stanza "
                             "(default 8192 — far below the suite's "
                             "footprint, forcing heavy eviction)")
    parser.add_argument("--check", action="store_true",
                        help="CI gate: fail unless warm throughput beats "
                             "cold by --min-speedup, dedupe occurred, "
                             "and eviction was error-free")
    parser.add_argument("--min-speedup", type=float, default=5.0)
    args = parser.parse_args(argv)

    result = run_benchmark(args.workloads, tenants=args.tenants,
                           rounds=args.rounds, budget_bytes=args.budget)

    cold = result["cold"]
    print(f"cold     {cold['requests']} requests at "
          f"{cold['requests_per_s']:.2f} req/s "
          f"({cold['distinct_texts']} distinct modules)")
    for key, row in result["service"].items():
        lat = row["latency"]
        print(f"{key:9s} {row['requests_per_s']:8.2f} req/s "
              f"({row['speedup_vs_cold']:.1f}x cold)  "
              f"p50={lat['p50_s'] * 1e3:.1f}ms p95={lat['p95_s'] * 1e3:.1f}ms  "
              f"solved={row['solved_functions']} "
              f"store={row['store_hits']} dedupe={row['batch_dedupe_hits']}"
              f"+{row['module_dedupe_hits']}mod "
              f"ratio={row['dedupe_ratio']:.2f}")
    restart = result["restart"]
    print(f"restart  {restart['requests_per_s']:8.2f} req/s "
          f"({restart['speedup_vs_cold']:.1f}x cold)  "
          f"store={restart['store_hits']} hits, "
          f"solved={restart['solved_functions']} "
          f"(warm daemon restart: everything from the store)")
    ev = result["eviction"]
    print(f"eviction {ev['requests_per_s']:8.2f} req/s under "
          f"{ev['budget_bytes']}B budget: "
          f"{(ev['store'] or {}).get('evictions', 0)} evictions, "
          f"{ev['errors']} errors, final {ev['final_bytes']}B "
          f"(within budget: {ev['within_budget']})")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        failures = check_regression(result, args.min_speedup)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"service reports bit-identical to direct detection; "
              f"throughput >= {args.min_speedup:.1f}x cold; eviction "
              f"clean under a {args.budget}-byte budget")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
