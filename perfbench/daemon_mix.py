"""``daemon-mix``: the resident request path under two closed-loop clients.

Set-up (in this process, three rounds, repeated after the measured
window for more timing samples): compile the 21 suite programs to
optimised IR text, run the 10 dominant programs through transform,
execution and placement to build ``plan`` requests from their sites and
event logs, and detect every text locally for the oracle. Then the
daemon is started five times as ``python -m repro.service serve`` with
its default flags, except ``--port 0`` so it binds a free port; set-up
time is spawn until ``health`` reports ``ready``. The last daemon
serves the mix.

Two client threads, one per core, each hold one ``ServiceClient`` and
wait for each reply before sending again. Each draws its own seeded
stream: about 80% re-submits of a suite module, 10% tenant-private edits
(a dead instruction with a unique constant, so the fingerprint changes
and the daemon must solve it) and 10% ``plan`` requests.
"""

from __future__ import annotations

import random
import selectors
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    child_env,
    geomean,
    mean,
    median,
    metric,
    percentile,
    probe_s,
    process_peak_rss_mb,
    speed,
)
from layers import layer_metrics
from spans import Tracer, check_well_formed

CLIENTS = 2
SETUP_ROUNDS = 3
DAEMON_ROUNDS = 5
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
#: Completed requests per pass (``pass_s`` is the median time per block).
BLOCK = 50
#: The constant a tenant-private edit carries; replaced per edit.
SENTINEL = 7340033
RESUBMIT_P, EDIT_P = 0.8, 0.1


def request_stream(seed: int, client: int, modules: int, plans: int):
    """Client ``client``'s endless seeded stream of ``(op, index, edit)``:
    ``op`` is ``detect``, ``edit`` or ``plan``; ``edit`` is a unique
    constant for edits and None otherwise."""
    rng = random.Random(seed * 7919 + client)
    edits = 0
    while True:
        draw = rng.random()
        if draw < RESUBMIT_P:
            yield "detect", rng.randrange(modules), None
        elif draw < RESUBMIT_P + EDIT_P:
            edits += 1
            yield "edit", rng.randrange(modules), \
                (client + 1) * 1_000_000 + edits
        else:
            yield "plan", rng.randrange(plans), None


def edit_template(text: str) -> str:
    """``text`` with a dead ``add 0, SENTINEL`` at the top of its first
    defined function; replace the sentinel to make a unique edit."""
    from repro.ir import BinaryOperator, const_int, parse_module, \
        print_module

    module = parse_module(text)
    for function in module.functions.values():
        if function.is_declaration():
            continue
        dead = BinaryOperator("add", const_int(0), const_int(SENTINEL))
        dead.name = function.unique_name("tenantedit")
        function.blocks[0].insert(0, dead)
        break
    template = print_module(module)
    if template.count(str(SENTINEL)) != 1:
        raise ValueError("edit sentinel is not unique in the module text")
    return template


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def prepare(tracer, counts: dict) -> dict:
    """One set-up round of the request generator."""
    with tracer.span("bench", "setup"):
        from repro.backends import ApiRuntime
        from repro.idioms import IdiomDetector
        from repro.ir import print_module
        from repro.platform import PlacementRequest
        from repro.service import encode_plan_request
        from repro.workloads import all_workloads

        import flow

        with tracer.span("idioms", "warmup"):
            detector = IdiomDetector().warmup()
        with tracer.span("platform", "profile"):
            profile = flow.load_profile()
        texts, runs, probes = [], [], []
        compile_s = {}
        for workload in all_workloads():
            if not tracer.enabled:
                probes.append(probe_s())
            t0 = time.perf_counter()
            compiled = flow.compile_program(workload, detector, tracer,
                                            counts)
            compile_s[workload.name] = time.perf_counter() - t0
            texts.append(print_module(compiled.module))
            if workload.dominant:
                run = flow.ProgramRun(workload, compiled, ApiRuntime())
                flow.finish_program(
                    run, workload.make_inputs(workload.default_scale),
                    profile, tracer, counts)
                runs.append(run)
        plans = []
        for run in runs:
            request = PlacementRequest(
                run.runtime.all_sites(), run.runtime.events,
                host_seconds=run.sequential_s * (1.0 - run.original.coverage),
                scale=run.workload.paper_scale, label=run.workload.name)
            plans.append((encode_plan_request(request),
                          {str(s.call_id) for s in request.call_sites()}))
    failures = []
    for run in runs:
        found = [flow.census_failure(run)] + flow.output_failures(run, None)
        failures.extend(f for f in found if f)
    return {
        "texts": texts,
        "plans": plans,
        "probes": probes,
        "compile_s": {name: seconds + sum(r.compile_s for r in runs
                                          if r.workload.name == name)
                      for name, seconds in compile_s.items()},
        "run_s": {r.workload.name: r.run_s for r in runs},
        "sim_speedup": geomean(r.sim_speedup for r in runs),
        "failures": failures,
    }


def local_fingerprint(detector, text: str) -> str:
    from repro.ir import parse_module
    from repro.service import report_wire_fingerprint

    return report_wire_fingerprint(detector.detect(parse_module(text)))


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------

class Daemon:
    """A ``repro.service serve`` subprocess on a free port."""

    def __init__(self):
        from repro.service import ServiceClient

        self.port = None
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            self.port = self._read_port(t0 + READY_TIMEOUT_S)
            with ServiceClient("127.0.0.1", self.port) as client:
                while client.health().get("state") != "ready":
                    if time.perf_counter() - t0 > READY_TIMEOUT_S:
                        raise TimeoutError("daemon never became ready")
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise TimeoutError("daemon printed no address")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited during start-up")
                if " on " in line:
                    address = line.split(" on ", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        finally:
            selector.close()

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port,
                             timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise ConnectionError("daemon never bound a port")
                from repro.service import ServiceClient

                with ServiceClient("127.0.0.1", self.port,
                                   max_retries=0) as client:
                    client.shutdown()
            except Exception:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# The mix
# ---------------------------------------------------------------------------

def client_loop(index: int, daemon: Daemon, setup: dict, seed: int,
                deadline: float, tracer, records: list) -> None:
    """One closed-loop client: send, wait for the reply, check, repeat."""
    from repro.ir import parse_module
    from repro.service import decode_report, report_wire_fingerprint

    texts = setup["texts"]
    modules = [parse_module(text) for text in texts]
    expected = setup["fingerprints"]
    templates = setup["templates"]
    off = Tracer(False)
    tenant = f"client-{index}"
    stream = request_stream(seed, index, len(texts), len(setup["plans"]))
    with daemon.client() as client:
        count = 0
        while time.perf_counter() < deadline:
            op, which, edit = next(stream)
            traced = count % 2 == 0
            spans = tracer if traced else off
            item = f"{tenant}#{count}"
            count += 1
            record = {"op": op, "traced": traced, "error": None,
                      "decode_s": None}
            start = time.perf_counter()
            with spans.span("bench", "pass", item=item):
                try:
                    if op == "plan":
                        payload, call_ids = setup["plans"][which]
                        with spans.span("service", "plan", item=item):
                            t0 = time.perf_counter()
                            response = client.request(
                                {"op": "plan", "request": payload,
                                 "tenant": tenant})
                            record["rpc_s"] = time.perf_counter() - t0
                        missing = call_ids - set(
                            response["plan"]["locations"])
                        if missing:
                            record["error"] = (f"plan left call sites "
                                               f"{sorted(missing)} "
                                               f"unassigned")
                    else:
                        if op == "edit":
                            text = templates[which].replace(
                                str(SENTINEL), str(edit))
                            module = parse_module(text)
                            record["text"] = text
                        else:
                            text, module = texts[which], modules[which]
                        with spans.span("service", "rpc", item=item):
                            t0 = time.perf_counter()
                            response = client.detect(text, tenant=tenant)
                            record["rpc_s"] = time.perf_counter() - t0
                        with spans.span("service", "decode", item=item):
                            t0 = time.perf_counter()
                            report = decode_report(response["report"],
                                                   module)
                            record["decode_s"] = time.perf_counter() - t0
                        found = report_wire_fingerprint(report)
                        if op == "edit":
                            record["fingerprint"] = found
                        elif found != expected[which]:
                            record["error"] = (f"module {which}: report "
                                               f"differs from a local "
                                               f"detect")
                    record["server_s"] = response["latency_s"]
                except Exception as exc:  # counted, never aborts the run
                    record["error"] = f"{op}: {type(exc).__name__}: {exc}"
            record["client_s"] = time.perf_counter() - start
            record["end"] = time.perf_counter()
            records.append(record)


def run(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer(trace)
    import flow

    counts = flow.new_counts()
    rounds = [prepare(tracer, counts) for _ in range(SETUP_ROUNDS)]
    counts = {k: v / SETUP_ROUNDS for k, v in counts.items()}
    setup = rounds[-1]
    failures = [f for r in rounds for f in r["failures"]]
    from repro.idioms import IdiomDetector

    detector = IdiomDetector().warmup()
    setup["fingerprints"] = [local_fingerprint(detector, text)
                             for text in setup["texts"]]
    setup["templates"] = [edit_template(text) for text in setup["texts"]]

    daemons = []
    for _ in range(DAEMON_ROUNDS):
        if daemons:
            daemons[-1].stop()
        daemons.append(Daemon())
    daemon = daemons[-1]
    try:
        records: list = []
        start = time.perf_counter()
        threads = [threading.Thread(
            target=client_loop,
            args=(i, daemon, setup, seed, start + seconds, tracer, records))
            for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = max(r["end"] for r in records) - start
        with daemon.client() as client:
            stats = client.stats()
        rss = process_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    # More timing samples for compile_s and run_s, taken after the window
    # so they span the run instead of bunching in set-up.
    rounds += [prepare(Tracer(False), flow.new_counts())
               for _ in range(SETUP_ROUNDS)]
    failures += [f for r in rounds[SETUP_ROUNDS:] for f in r["failures"]]

    edits = {}
    for record in records:
        if record["error"]:
            failures.append(record["error"])
        elif record["op"] == "edit":
            edits.setdefault(record["text"], set()).add(
                record["fingerprint"])
    for text, found in edits.items():
        if found != {local_fingerprint(detector, text)}:
            failures.append("edit: report differs from a local detect")

    # Every time at the reference machine's speed (see common.probe_s),
    # probed in the generator's rounds before and after the window.
    factor = speed([x for r in rounds for x in r["probes"]])
    done = sorted(r["end"] for r in records if not r["error"])
    blocks = [b - a for a, b in zip([start] + done[BLOCK - 1::BLOCK],
                                    done[BLOCK - 1::BLOCK])]
    rpc = [r["rpc_s"] * factor for r in records if "rpc_s" in r]
    metrics = {
        "setup_s": metric(median(d.setup_s for d in daemons) * factor, "s"),
        "pass_s": metric((mean(blocks) if blocks else wall) * factor, "s"),
        "compile_s": metric(mean(sum(r["compile_s"].values())
                                 for r in rounds) * factor, "s"),
        "run_s": metric(mean(sum(r["run_s"].values()) for r in rounds)
                        * factor, "s"),
        "sim_speedup": metric(setup["sim_speedup"], "x"),
        "req_per_s": metric(len(done) / (wall * factor), "req/s"),
        "p50_ms": metric(percentile(rpc, 50) * 1e3, "ms"),
        "p95_ms": metric(percentile(rpc, 95) * 1e3, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    extra = {"samples": len(rpc), "stats": stats, "speed": factor,
             "ops": {op: sum(r["op"] == op for r in records)
                     for op in ("detect", "edit", "plan")}}
    if trace:
        from repro.workloads import all_workloads

        flow.separate_calls(all_workloads(), tracer)
        spans = tracer.spans
        failures.extend(f"trace: {p}" for p in check_well_formed(spans))
        traced = [r["client_s"] for r in records if r["traced"]]
        untraced = [r["client_s"] for r in records if not r["traced"]]
        extra["spans"] = spans
        extra["layer_metrics"] = layer_metrics(
            spans, counts, median(traced) / median(untraced),
            service=service_metrics(records, stats))
    return {"metrics": metrics, "attempted": len(records),
            "failures": failures, "scale": 1, "extra": extra}


def service_metrics(records: list, stats: dict) -> dict:
    ok = [r for r in records if not r["error"]]
    detect = [r for r in ok if r["op"] != "plan"]
    plan = [r for r in ok if r["op"] == "plan"]

    def p50_ms(values) -> float:
        values = list(values)
        return percentile(values, 50) * 1e3 if values else 0.0

    return {
        "service.rpc_p50_ms": p50_ms(r["rpc_s"] for r in detect),
        "service.plan_rpc_p50_ms": p50_ms(r["rpc_s"] for r in plan),
        "service.server_p50_ms": p50_ms(r["server_s"] for r in ok),
        "service.transport_p50_ms": p50_ms(r["rpc_s"] - r["server_s"]
                                           for r in ok),
        "service.decode_p50_ms": p50_ms(r["decode_s"] for r in detect),
        "service.batches": stats["batches"],
        "service.solved_functions": stats["solved_functions"],
        "service.store_hits": stats["store_hits"],
        "service.parse_hits": stats["parse_cache"]["hits"],
        "service.dedupe_ratio": stats["dedupe_ratio"],
        "service.sheds": stats["sheds"],
        "service.errors": stats["errors"],
    }
