"""Same-machine gates: the wall-clock bounds tier-1 cannot hold.

Every gate times both sides of its ratio in one process on the same
machine, so each bound holds on any hardware::

    PYTHONPATH=src python -m repro.experiments.gates

* **detect** — the plan forest (:class:`~repro.idioms.IdiomDetector`,
  what every user path runs) must take at most 1.05x the per-idiom plan
  executor (the :class:`~repro.idioms.oracle.PerIdiomDetector` oracle).
  The two must find identical match sets, or the ratio would compare
  different work.
* **cache** — a fully warm suite (every function served from an
  :class:`~repro.cache.ArtifactStore`) must take at most 1.0x a cold
  one. The warm runs must be all hits and fingerprint-identical to the
  cold ones.
* **interp** — on each of :data:`INTERP_FLOORS`' workloads the register
  VM must stay at least its floor times faster than the reference
  interpreter, and the JIT's geomean over the VM must be at least 1.0.
  The three tiers must agree on outputs and dynamic counts (VM and JIT
  bit-identically).
* **seams** — an installed but empty fault plan must cost at most 1.03x
  no plan, over a detection sweep of the suite and over a warm serving
  sweep. The empty plan must leave every match set unchanged, and the
  serving sweep must be all store hits.
* **service** — a resident :class:`~repro.service.DetectionService`
  must serve multi-tenant traffic at least 5x faster than a cold
  detector per request, with every report identical to the cold one.
  Its speed over one warmed detector with no store is printed beside
  it.
* **fairness** — under a flooding tenant, each well-behaved tenant's p95
  latency must stay within max(3x its solo p95, 50 ms); nobody starves
  and the flooder completes too. Each tenant's line names the bound that
  applied.

The timed sides alternate their order between rounds and keep their best
round (:func:`_best_sums`). The module takes no options, reads no
baseline and writes no file. It prints one line per measurement and
exits non-zero naming every failure. The invariants behind the gates are
tier-1 tests: ``tests/test_search_effort.py``, ``tests/test_cache.py``,
``tests/test_vm.py``, ``tests/test_jit.py``, ``tests/test_reliability.py``,
``tests/test_service.py`` and ``tests/test_service_overload.py``.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import threading
import time

from ..cache import ArtifactStore
from ..idioms import DetectionSession, IdiomDetector, report_fingerprint
from ..idioms.oracle import PerIdiomDetector
from ..ir.instructions import BinaryOperator
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.values import const_int
from ..reliability import faults
from ..reliability.faults import FaultPlan
from ..runtime.runner import (
    compile_workload,
    outputs_identical,
    outputs_match,
    run_original,
)
from ..service import DetectionService, ServiceConfig, ServiceOverloaded
from ..service.latency import percentile
from ..service.wire import report_wire_fingerprint
from .suites import compile_suite

#: Forest seconds over oracle seconds.
DETECT_MAX_RATIO = 1.05
#: Fully warm seconds over cold seconds.
CACHE_MAX_RATIO = 1.0
#: Timing rounds per gate; each side keeps its best round per unit.
ROUNDS = 7

#: VM-over-reference speedup floors: half of each workload's speedup in
#: the last reading of the retired ``BENCH_interp.json``.
INTERP_FLOORS = {
    "BT": 5.46, "CG": 4.705, "IS": 3.995, "LU": 5.72, "SP": 5.74,
    "UA": 4.54, "histo": 3.555, "sgemm": 6.40, "stencil": 4.56,
}
#: Runs per execution tier; the first JIT run pays compilation, so the
#: best of three is the warm tier.
INTERP_REPEATS = 3
#: Floor on the JIT's geomean speedup over the VM.
JIT_MIN_GEOMEAN = 1.0

#: Empty-plan seconds over no-plan seconds.
SEAMS_MAX_RATIO = 1.03
#: Requests per module in the serving sweep. Store hits open no batch
#: window, so each is a few hundred microseconds; 96 of them keep about
#: 0.1 s of timed work per side, which the sweep's noise needs to stay
#: well inside the bound.
SERVE_SWEEP = 96
#: Suite modules the serving sweep and the fairness storm draw from.
CORE_MODULES = 2

#: Traffic for the service gate: every tenant submits these modules each
#: round, and each tenant past the first edits one of them.
SERVICE_WORKLOADS = ("CG", "IS", "MG", "histo", "sgemm")
SERVICE_TENANTS = 3
SERVICE_ROUNDS = 2
#: Service requests/s over cold-detector requests/s.
SERVICE_MIN_SPEEDUP = 5.0

#: Well-behaved tenants in the fairness storm, beside one flooder; the
#: times each submits every module per phase; solo-then-storm rounds.
FAIR_TENANTS = 3
FAIR_ROUNDS = 4
FAIR_STORMS = 2
#: Storm p95 within this factor of solo p95 ...
FAIRNESS_FACTOR = 3.0
#: ... or within this floor, whichever is larger: solo p95 is a few
#: milliseconds, where scheduler noise alone can triple it.
FAIRNESS_FLOOR_S = 0.05


def _best_sums(sides: dict, units) -> dict:
    """Seconds per side: per unit of ``units`` (``[(label, arg)]``), the
    best of ``ROUNDS`` runs of ``sides[name](arg)``, summed; the sides'
    order alternates between rounds."""
    names = list(sides)
    best = {name: [float("inf")] * len(units) for name in names}
    for round_no in range(ROUNDS):
        order = names if round_no % 2 == 0 else names[::-1]
        for i, (_, arg) in enumerate(units):
            for name in order:
                t0 = time.perf_counter()
                sides[name](arg)
                best[name][i] = min(best[name][i],
                                    time.perf_counter() - t0)
    return {name: sum(times) for name, times in best.items()}


def _ratio_failure(gate: str, num: str, den: str, seconds: dict,
                   bound: float) -> list[str]:
    ratio = seconds[num] / max(seconds[den], 1e-12)
    print(f"{gate}: {num} {seconds[num]:.4f}s / {den} {seconds[den]:.4f}s "
          f"= {ratio:.3f}x (bound {bound:.2f}x)")
    if ratio > bound:
        return [f"{gate}: {num} is {ratio:.3f}x {den} (> {bound:.2f}x)"]
    return []


def detect_gate(modules) -> list[str]:
    """Failures of the forest-vs-oracle gate over ``modules``
    (``[(workload, module)]``)."""
    forest = IdiomDetector().warmup()
    oracle = PerIdiomDetector().warmup()
    failures = [f"detect: {workload.name}: forest and oracle match sets "
                f"diverge"
                for workload, module in modules
                if report_fingerprint(forest.detect(module))
                != report_fingerprint(oracle.detect(module))]
    seconds = _best_sums({"forest": forest.detect, "oracle": oracle.detect},
                         modules)
    return failures + _ratio_failure("detect", "forest", "oracle", seconds,
                                     DETECT_MAX_RATIO)


def cache_gate(modules) -> list[str]:
    """Failures of the warm-vs-cold gate over ``modules``."""
    cold = IdiomDetector().warmup()
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as root:
        warm = IdiomDetector(cache=ArtifactStore(root)).warmup()
        for workload, module in modules:
            warm.detect(module)  # populate
            session = DetectionSession(warm)
            report = session.detect(module)
            misses = session.counts()["cache_misses"]
            if misses:
                failures.append(f"cache: {workload.name}: warm run "
                                f"re-solved {misses} functions")
            if report_fingerprint(report, by_identity=False) != \
                    report_fingerprint(cold.detect(module),
                                       by_identity=False):
                failures.append(f"cache: {workload.name}: cold and warm "
                                f"match sets diverge")
        seconds = _best_sums(
            {"warm": lambda module: DetectionSession(warm).detect(module),
             "cold": cold.detect}, modules)
    return failures + _ratio_failure("cache", "warm", "cold", seconds,
                                     CACHE_MAX_RATIO)


def interp_gate(modules) -> list[str]:
    """Failures of the execution-tier gate over the floor table's
    workloads among ``modules``."""
    failures = []
    jit_over_vm = []
    for workload, _ in modules:
        floor = INTERP_FLOORS.get(workload.name)
        if floor is None:
            continue
        compiled = compile_workload(workload.name, workload.source,
                                    verify=False)
        tiers = ["vm", "jit", "reference"]
        seconds = dict.fromkeys(tiers, float("inf"))
        results = {}
        for round_no in range(INTERP_REPEATS):
            for tier in tiers if round_no % 2 == 0 else tiers[::-1]:
                # Input set-up is timed too, as when the floors were
                # measured.
                t0 = time.perf_counter()
                results[tier] = run_original(compiled, workload.entry,
                                             workload.make_inputs(1),
                                             engine=tier)
                seconds[tier] = min(seconds[tier],
                                    time.perf_counter() - t0)
        ref, vm, jit = results["reference"], results["vm"], results["jit"]
        if not (outputs_match(ref, vm) and outputs_identical(vm, jit)
                and ref.opcode_counts == vm.opcode_counts
                == jit.opcode_counts):
            failures.append(f"interp: {workload.name}: tier outputs or "
                            f"dynamic counts diverge")
            continue
        speedup = seconds["reference"] / seconds["vm"]
        jit_over_vm.append(seconds["vm"] / seconds["jit"])
        print(f"interp: {workload.name} vm {speedup:.2f}x reference "
              f"(floor {floor:.2f}x), jit {jit_over_vm[-1]:.2f}x vm")
        if speedup < floor:
            failures.append(f"interp: {workload.name}: vm is "
                            f"{speedup:.2f}x reference (< {floor:.2f}x)")
    if jit_over_vm:
        geomean = statistics.geometric_mean(jit_over_vm)
        print(f"interp: jit geomean {geomean:.2f}x vm "
              f"(floor {JIT_MIN_GEOMEAN:.2f}x)")
        if geomean < JIT_MIN_GEOMEAN:
            failures.append(f"interp: jit geomean is {geomean:.2f}x vm "
                            f"(< {JIT_MIN_GEOMEAN:.2f}x)")
    return failures


def _under(plan, run):
    """``run`` with ``plan`` installed as the process's fault plan."""
    def call(arg):
        faults.install_plan(plan)
        return run(arg)
    return call


def seams_gate(modules) -> list[str]:
    """Failures of the idle-seam gate: an empty fault plan against none,
    over detection of ``modules`` and a warm serving sweep of the first
    :data:`CORE_MODULES`."""
    empty = FaultPlan([])
    detector = IdiomDetector().warmup()

    def sweep(module):
        return DetectionSession(detector).detect(module)

    detect, bare = _under(empty, sweep), _under(None, sweep)
    texts = [print_module(module) for _, module in modules[:CORE_MODULES]]
    failures = []
    try:
        for workload, module in modules:
            if report_fingerprint(detect(module), by_identity=False) != \
                    report_fingerprint(bare(module), by_identity=False):
                failures.append(f"seams: {workload.name}: empty-plan and "
                                f"no-plan match sets diverge")
        seconds = _best_sums({"empty-plan": detect, "no-plan": bare},
                             modules)
        failures += _ratio_failure("seams/detect", "empty-plan", "no-plan",
                                   seconds, SEAMS_MAX_RATIO)
        with tempfile.TemporaryDirectory(prefix="repro-gates-") as root, \
                DetectionService(ServiceConfig(
                    cache_dir=root, batch_window_s=0.001)) as service:
            faults.install_plan(None)
            for text in texts:  # solve once; the sweeps replay the store
                service.detect(text)
            solved = service.stats()["solved_functions"]
            # One timing unit per request, so each request keeps its
            # best round. Every request here is a store hit, which opens
            # no batch window: it is a few hundred microseconds of
            # submit, store read and batcher hand-off, so the seams'
            # fixed cost is a visible share of it, and one late thread
            # wake-up still outweighs that cost.
            seconds = _best_sums(
                {"empty-plan": _under(empty, service.detect),
                 "no-plan": _under(None, service.detect)},
                [(None, text) for text in texts
                 for _ in range(SERVE_SWEEP)])
            resolved = service.stats()["solved_functions"] - solved
        if resolved:
            failures.append(f"seams: serving sweep re-solved {resolved} "
                            f"functions")
        failures += _ratio_failure("seams/serve", "empty-plan", "no-plan",
                                   seconds, SEAMS_MAX_RATIO)
    finally:
        faults.install_plan(None)
    return failures


def _tenant_edit(text: str, tenant: int) -> str:
    """A tenant-private edit of module ``text``: a dead add, distinct per
    tenant, in the first defined function (changing its fingerprint)."""
    module = parse_module(text)
    for function in module.functions.values():
        if function.is_declaration():
            continue
        dead = BinaryOperator("add", const_int(0), const_int(tenant + 1))
        dead.name = function.unique_name("tenantedit")
        function.blocks[0].insert(0, dead)
        break
    return print_module(module)


def service_traffic(modules) -> list[tuple[str, str]]:
    """The request stream ``[(tenant, module text)]``: every tenant
    submits every module each round, and each tenant past the first
    carries a private edit of one module, rotating over them."""
    base = [print_module(module) for _, module in modules]
    texts = []
    for tenant in range(SERVICE_TENANTS):
        mine = list(base)
        if tenant > 0:
            slot = (tenant - 1) % len(mine)
            mine[slot] = _tenant_edit(mine[slot], tenant)
        texts.append(mine)
    return [(f"tenant-{tenant}", text)
            for _ in range(SERVICE_ROUNDS)
            for tenant in range(SERVICE_TENANTS)
            for text in texts[tenant]]


def serve_traffic(service: DetectionService,
                  requests: list[tuple[str, str]]) -> tuple[list, float]:
    """Submit ``requests`` from one thread per tenant and wait for all:
    (``[(text, ServiceResult)]``, wall seconds)."""
    by_tenant: dict[str, list[str]] = {}
    for tenant, text in requests:
        by_tenant.setdefault(tenant, []).append(text)
    futures = []
    lock = threading.Lock()

    def tenant_thread(tenant: str, texts: list[str]) -> None:
        for text in texts:
            future = service.submit(text, tenant=tenant)
            with lock:
                futures.append((text, future))

    threads = [threading.Thread(target=tenant_thread, args=item)
               for item in by_tenant.items()]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    results = [(text, future.result(timeout=600.0))
               for text, future in futures]
    return results, time.perf_counter() - t0


def served_key(report) -> tuple:
    """What a served report must share with a direct detection."""
    return report_wire_fingerprint(report), report.stats.as_dict()


def service_gate(modules) -> list[str]:
    """Failures of the serving-throughput gate over the
    :data:`SERVICE_WORKLOADS` among ``modules``."""
    requests = service_traffic([(w, m) for w, m in modules
                                if w.name in SERVICE_WORKLOADS])
    if not requests:
        return []
    # Two baselines, each distinct text timed once and charged per
    # occurrence: cold, a fresh detector per request (forest compilation
    # included), which the floor applies to; and warm, one warmed
    # detector with no store, printed beside it.
    cold: dict[str, tuple[float, tuple]] = {}
    warm: dict[str, float] = {}
    warm_detector = IdiomDetector().warmup()
    failures = []
    for text in dict.fromkeys(text for _, text in requests):
        module = parse_module(text)
        t0 = time.perf_counter()
        report = IdiomDetector().detect(module)
        cold[text] = (time.perf_counter() - t0, served_key(report))
        t0 = time.perf_counter()
        report = warm_detector.detect(module)
        warm[text] = time.perf_counter() - t0
        if served_key(report) != cold[text][1]:
            failures.append("service: a warmed detector's report diverges "
                            "from a fresh one's")
    cold_s = sum(cold[text][0] for _, text in requests)
    warm_s = sum(warm[text] for _, text in requests)
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as root, \
            DetectionService(ServiceConfig(
                cache_dir=root, batch_window_s=0.004)) as service:
        results, wall_s = serve_traffic(service, requests)
    diverged = sum(1 for text, result in results
                   if served_key(result.report) != cold[text][1])
    if diverged:
        failures.append(f"service: {diverged} reports diverge from cold "
                        f"detection")
    speedup = cold_s / max(wall_s, 1e-12)
    print(f"service: {len(requests) / wall_s:.1f} req/s = {speedup:.1f}x "
          f"cold (floor {SERVICE_MIN_SPEEDUP:.1f}x), "
          f"{warm_s / max(wall_s, 1e-12):.1f}x a warmed detector")
    if speedup < SERVICE_MIN_SPEEDUP:
        failures.append(f"service: serves {speedup:.1f}x cold "
                        f"(< {SERVICE_MIN_SPEEDUP:.1f}x)")
    return failures


def _p95_per_tenant(service, texts, reference, tenant, failures):
    """One tenant's synchronous round trips: (p95 seconds, completed)."""
    latencies = []
    for _ in range(FAIR_ROUNDS):
        for text in texts:
            result = service.detect(text, tenant=tenant, timeout=120.0)
            if report_wire_fingerprint(result.report) != reference[text]:
                failures.append(f"fairness: {tenant}: report diverges "
                                f"from direct detection")
            latencies.append(result.latency_s)
    return percentile(latencies, 95), len(latencies)


def _storm(config, texts, flood_texts, reference, tenants, failures):
    """Each tenant's round trips while one more floods the service:
    ({tenant: p95 seconds}, {tenant: completed}, flooder completed)."""
    storm, completed = {}, {}
    with DetectionService(config) as service:
        stop = threading.Event()
        flood = []

        def flooder():
            i = 0
            while not stop.is_set():
                try:
                    flood.append(service.submit(
                        flood_texts[i % len(flood_texts)],
                        tenant="flooder"))
                except ServiceOverloaded:
                    time.sleep(0.0005)
                i += 1

        def well_behaved(tenant):
            storm[tenant], completed[tenant] = _p95_per_tenant(
                service, texts, reference, tenant, failures)

        flood_thread = threading.Thread(target=flooder, daemon=True)
        threads = [threading.Thread(target=well_behaved, args=(t,))
                   for t in tenants]
        flood_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        stop.set()
        flood_thread.join(timeout=30.0)
        for future in flood:
            future.result(timeout=300.0)
        flooder_completed = service.stats()["tenants"]["flooder"]["completed"]
    return storm, completed, flooder_completed


def fairness_gate(modules) -> list[str]:
    """Failures of the flood-fairness gate over the first
    :data:`CORE_MODULES` of ``modules``."""
    texts = [print_module(module) for _, module in modules[:CORE_MODULES]]
    reference = {text: report_wire_fingerprint(
        IdiomDetector().detect(parse_module(text))) for text in texts}
    flood_texts = [_tenant_edit(texts[0], 100 + i) for i in range(12)]
    tenants = [f"tenant-{t}" for t in range(FAIR_TENANTS)]
    expected = FAIR_ROUNDS * len(texts)
    failures: list[str] = []
    solo = dict.fromkeys(tenants, float("inf"))
    storm = dict.fromkeys(tenants, float("inf"))
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as root:
        config = ServiceConfig(cache_dir=root, batch_window_s=0.002,
                               max_batch=8,
                               max_pending=256, tenant_quota=64)
        # Pre-warm the store so both phases time queueing and replay,
        # not first solves.
        with DetectionService(config) as service:
            for text in texts + flood_texts:
                service.detect(text, tenant="prewarm")
        # A solo phase then a storm, FAIR_STORMS times; each tenant keeps
        # its best p95 of each phase, as the timed gates keep their best
        # round.
        for _ in range(FAIR_STORMS):
            with DetectionService(config) as service:
                # Untimed: a fresh service's parse cache holds no
                # fingerprint memo, so each text's first submit is cold
                # and waits the batch window. Without this, tenant-0
                # alone would time those submits.
                for text in texts:
                    service.detect(text, tenant="prewarm")
                for tenant in tenants:
                    p95, _ = _p95_per_tenant(service, texts, reference,
                                             tenant, failures)
                    solo[tenant] = min(solo[tenant], p95)
            p95s, completed, flooder_completed = _storm(
                config, texts, flood_texts, reference, tenants, failures)
            for tenant in tenants:
                if completed.get(tenant, 0) < expected:
                    failures.append(f"fairness: {tenant} starved "
                                    f"({completed.get(tenant, 0)}/"
                                    f"{expected} requests completed)")
                storm[tenant] = min(storm[tenant],
                                    p95s.get(tenant, float("inf")))
            if flooder_completed == 0:
                failures.append("fairness: the flooder starved")
    for tenant in tenants:
        factor_s = FAIRNESS_FACTOR * solo[tenant]
        allowed = max(factor_s, FAIRNESS_FLOOR_S)
        binding = (f"{FAIRNESS_FLOOR_S * 1e3:.0f} ms floor"
                   if allowed > factor_s else
                   f"{FAIRNESS_FACTOR:.0f}x solo")
        print(f"fairness: {tenant} p95 {storm[tenant] * 1e3:.1f}ms under "
              f"flood, {solo[tenant] * 1e3:.1f}ms solo "
              f"({storm[tenant] / max(solo[tenant], 1e-12):.2f}x); bound "
              f"{allowed * 1e3:.1f}ms, the {binding}")
        if storm[tenant] > allowed:
            failures.append(f"fairness: {tenant} p95 "
                            f"{storm[tenant] * 1e3:.1f}ms under flood "
                            f"(> {allowed * 1e3:.1f}ms, the {binding})")
    return failures


GATES = (detect_gate, cache_gate, interp_gate, seams_gate, service_gate,
         fairness_gate)


def main() -> int:
    modules = compile_suite(None)
    failures = [failure for gate in GATES for failure in gate(modules)]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
