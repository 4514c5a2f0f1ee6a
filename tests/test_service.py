"""Tests for the serving layer: the LRU/generational byte-budgeted
store, the latency helpers, warm-detector residency, cross-module
``detect_many`` with in-batch dedupe, the in-process
:class:`DetectionService` (micro-batching, concurrent tenants) and the
TCP daemon and its wire format."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cache import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    STORE_VERSION,
    ArtifactStore,
)
from repro.errors import IDLError
from repro.frontend import compile_c
from repro.idioms import (
    DetectionSession,
    IdiomDetector,
    detect_idioms,
    report_fingerprint,
)
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.passes import optimize
from repro.reliability import faults
from repro.service import (
    DetectionDaemon,
    DetectionService,
    ServiceClient,
    ServiceConfig,
    decode_report,
    encode_report,
    report_wire_fingerprint,
)
from repro.service.latency import percentile, summarize_latencies

SRC = """
double dot(double* a, double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s = s + a[i] * b[i]; }
  return s;
}
void hist(int* bins, int* keys, int n) {
  for (int i = 0; i < n; i++) { bins[keys[i]] = bins[keys[i]] + 1; }
}
"""
#: The same module with one function edited (the per-tenant-edit shape).
SRC_EDITED = SRC.replace("0.0", "1.0")


def compiled(src=SRC, name="t"):
    module = compile_c(src, name)
    optimize(module)
    return module


def module_text(src=SRC, name="t"):
    return print_module(compiled(src, name))


# ---------------------------------------------------------------------------
# Store: both backends, byte budget, eviction policies, fault seams
# ---------------------------------------------------------------------------

def put_sized(store, key, approx_bytes):
    store.put(key, {"kind": "t", "pad": "x" * approx_bytes})


class _StoreContract:
    """Behaviour every store backend shares. Subclasses provide the
    ``root`` fixture: a directory for the disk backend, None for
    memory."""

    @pytest.fixture(autouse=True)
    def _no_faults(self):
        faults.install_plan(None)
        yield
        faults.install_plan(None)

    def test_lru_evicts_oldest_and_respects_budget(self, root):
        store = ArtifactStore(root, budget_bytes=700)
        keys = [f"{i:x}{'0' * 15}" for i in range(5)]
        for i, key in enumerate(keys):
            put_sized(store, key, 150)
            time.sleep(0.01)
        assert store.total_bytes() <= 700
        assert store.stats.evictions > 0
        # The oldest keys are gone — and a clean miss, never an error.
        assert store.get(keys[0]) is None
        assert store.get(keys[-1]) is not None
        assert store.stats.bytes_stored == store.total_bytes()

    def test_budget_invariant_after_every_put(self, root):
        store = ArtifactStore(root, budget_bytes=500)
        for i in range(20):
            put_sized(store, f"{i:x}{'a' * 15}", 120)
            assert store.total_bytes() <= 500

    def test_access_refreshes_lru_rank(self, root):
        store = ArtifactStore(root, budget_bytes=1100)
        keys = [f"{i:x}{'b' * 15}" for i in range(4)]
        for key in keys:
            put_sized(store, key, 150)
            time.sleep(0.01)
        assert store.stats.evictions == 0
        # Touch the oldest; the evictions that follow must spare it.
        assert store.get(keys[0]) is not None
        time.sleep(0.01)
        put_sized(store, "f" * 16, 150)
        put_sized(store, "e" * 16, 150)
        assert store.stats.evictions > 0
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is None

    def test_generational_evicts_never_read_first(self, root):
        store = ArtifactStore(root, budget_bytes=800,
                              eviction="generational")
        old = "a" * 16
        put_sized(store, old, 150)
        assert store.get(old) is not None  # tenured: read after write
        nursery = [f"{i:x}{'c' * 15}" for i in range(3)]
        for key in nursery:
            time.sleep(0.01)
            put_sized(store, key, 150)
        put_sized(store, "d" * 16, 150)
        # The never-read nursery entries went first, although the
        # tenured entry is older by write time.
        assert store.get(old) is not None
        assert store.stats.evictions > 0

    def test_unknown_policy_rejected(self, root):
        with pytest.raises(ValueError):
            ArtifactStore(root, eviction="fifo")

    def test_round_trip_and_absent_key(self, root):
        store = ArtifactStore(root)
        assert store.put("ab" * 8, {"kind": "t", "xs": [1, 2]})
        got = store.get("ab" * 8)
        assert got["xs"] == [1, 2] and got["version"] == STORE_VERSION
        assert got["meta"]["bytes"] > 0
        assert store.get("cd" * 8) is None
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.writes == 1 and store.entry_count() == 1
        assert store.stats.bytes_stored == store.total_bytes() > 0
        assert store.entry_info("ab" * 8)[0] == store.total_bytes()
        with pytest.raises(ValueError):
            store.get("../x")

    def test_invalidate_is_corrupt_miss(self, root):
        store = ArtifactStore(root)
        put_sized(store, "a" * 16, 50)
        assert store.get("a" * 16) is not None
        store.invalidate("a" * 16)
        assert store.stats.as_dict()["hits"] == 0
        assert store.stats.corrupt == 1 and store.stats.misses == 1
        assert store.entry_count() == 0 and store.total_bytes() == 0
        assert store.get("a" * 16) is None

    def test_read_fault_is_miss_that_keeps_entry(self, root):
        store = ArtifactStore(root)
        put_sized(store, "a" * 16, 50)
        faults.install_plan({"specs": [{"site": "store.read",
                                        "kind": "exception"}]})
        assert store.get("a" * 16) is None
        faults.install_plan(None)
        assert store.stats.misses == 1 and store.stats.corrupt == 0
        assert store.get("a" * 16) is not None

    def test_write_fault_is_counted_not_raised(self, root):
        store = ArtifactStore(root)
        faults.install_plan({"specs": [{"site": "store.write",
                                        "kind": "exception"}]})
        assert store.put("a" * 16, {"kind": "t"}) is False
        faults.install_plan(None)
        assert store.stats.write_errors == 1 and store.stats.writes == 0
        assert store.get("a" * 16) is None

    def test_torn_write_never_serves_a_partial_payload(self, root):
        store = ArtifactStore(root)
        faults.install_plan({"specs": [{"site": "store.write",
                                        "kind": "torn"}]})
        assert store.put("a" * 16, {"kind": "t", "pad": "x" * 64}) is False
        faults.install_plan(None)
        assert store.stats.write_errors == 1
        assert store.get("a" * 16) is None
        assert store.total_bytes() == 0
        # The store still works after the torn write.
        put_sized(store, "a" * 16, 64)
        assert store.get("a" * 16)["pad"] == "x" * 64


class TestStoreBudget(_StoreContract):
    """The contract on disk, plus what only files can show."""

    @pytest.fixture
    def root(self, tmp_path):
        return str(tmp_path)

    def test_old_version_entry_is_clean_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ab" * 8
        store.put(key, {"kind": "t", "x": 1})
        path = store._path(key)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["version"] == STORE_VERSION and "meta" in payload
        payload["version"] = 1
        payload.pop("meta", None)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_index_survives_restart(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for i in range(3):
            put_sized(store, f"{i:x}{'d' * 15}", 100)
        # A fresh instance rebuilds the index from a stat walk: it sees
        # the pre-existing entries and evicts them to meet its budget.
        fresh = ArtifactStore(str(tmp_path), budget_bytes=1)
        put_sized(fresh, "e" * 16, 100)
        assert fresh.total_bytes() <= 1
        assert fresh.stats.evictions >= 4

    def test_torn_write_leaves_a_corrupt_file(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        faults.install_plan({"specs": [{"site": "store.write",
                                        "kind": "torn"}]})
        store.put("a" * 16, {"kind": "t", "pad": "x" * 64})
        faults.install_plan(None)
        assert os.path.exists(store._path("a" * 16))
        assert store.get("a" * 16) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(store._path("a" * 16))


class TestMemoryStore(_StoreContract):
    """The contract with ``root=None``, plus the memory-only rules."""

    @pytest.fixture
    def root(self):
        return None

    def test_bounded_by_default(self):
        store = ArtifactStore()
        assert store.budget_bytes == DEFAULT_MEMORY_BUDGET_BYTES
        assert ArtifactStore(budget_bytes=10).budget_bytes == 10
        assert ArtifactStore("unused").budget_bytes is None
        assert store.describe()["backend"] == "memory"
        assert ArtifactStore("unused").describe()["backend"] == "disk"

    def test_every_hit_is_a_fresh_parse(self):
        store = ArtifactStore()
        produced = {"kind": "t", "xs": (1, 2)}
        store.put("ab" * 8, produced)
        produced["xs"] = None  # the producer's object is not held
        first = store.get("ab" * 8)
        # Tuples come back as lists, exactly as they would from disk.
        assert first["xs"] == [1, 2]
        first["xs"].append(3)  # callers own what get() returns
        assert store.get("ab" * 8)["xs"] == [1, 2]
        # The entry holds the serialized text the budget counts.
        assert store.total_bytes() == len(store._index["ab" * 8].data)

    def test_torn_write_stores_nothing(self):
        store = ArtifactStore()
        faults.install_plan({"specs": [{"site": "store.write",
                                        "kind": "torn"}]})
        store.put("a" * 16, {"kind": "t"})
        faults.install_plan(None)
        assert store.entry_count() == 0 and store.stats.corrupt == 0

    def test_detector_accepts_memory_store(self):
        module = compiled()
        cold = detect_idioms(compiled())
        store = ArtifactStore()
        detector = IdiomDetector(cache=store)
        first = DetectionSession(detector)
        first.detect(module)
        assert first.solved_functions == 2
        second = DetectionSession(detector)
        warm = second.detect(module)
        assert second.solved_functions == 0 and second.cache_hits == 2
        assert report_wire_fingerprint(warm) == report_wire_fingerprint(cold)
        assert warm.stats.as_dict() == cold.stats.as_dict()
        with pytest.raises(IDLError):
            IdiomDetector(cache=object())


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------

class TestLatencyHelpers:
    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 95) == pytest.approx(95.05)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_summarize(self):
        summary = summarize_latencies([0.1, 0.2, 0.3, 0.4])
        assert summary["count"] == 4
        assert summary["mean_s"] == pytest.approx(0.25)
        assert summary["max_s"] == pytest.approx(0.4)
        assert summary["p50_s"] == pytest.approx(0.25)
        empty = summarize_latencies([])
        assert empty["count"] == 0 and empty["p95_s"] == 0.0


# ---------------------------------------------------------------------------
# Residency: warm detector, no per-request recompiles
# ---------------------------------------------------------------------------

class TestResidency:
    def test_repeated_detects_reuse_forest_and_store(self, tmp_path):
        module = compiled()
        detector = IdiomDetector(cache=str(tmp_path)).warmup()
        forest = detector.compiler.forest_for(tuple(detector.idioms))
        baseline = detector.detect(module)
        fp = report_fingerprint(baseline, by_identity=False)
        for _ in range(3):
            session = DetectionSession(detector)
            report = session.detect(module)
            assert session.cache_misses == 0
            assert session.solved_functions == 0
            assert report_fingerprint(report, by_identity=False) == fp
            assert report.stats.as_dict() == baseline.stats.as_dict()
        # warmup() + detects never rebuilt the forest.
        assert detector.compiler.forest_for(
            tuple(detector.idioms)) is forest

    def test_warmup_is_idempotent(self):
        detector = IdiomDetector().warmup()
        forest = detector.compiler.forest_for(tuple(detector.idioms))
        detector.warmup()
        assert detector.compiler.forest_for(
            tuple(detector.idioms)) is forest


# ---------------------------------------------------------------------------
# detect_many: cross-module batches with dedupe
# ---------------------------------------------------------------------------

class TestDetectMany:
    def test_identical_to_per_module_detect(self):
        modules = [compiled(name="a"), compiled(name="b"),
                   compiled(SRC_EDITED, name="c")]
        direct = [detect_idioms(compiled(src, name))
                  for src, name in ((SRC, "a"), (SRC, "b"),
                                    (SRC_EDITED, "c"))]
        session = DetectionSession(IdiomDetector())
        reports = session.detect_many(modules)
        assert len(reports) == 3
        for got, want in zip(reports, direct):
            assert report_wire_fingerprint(got) == \
                report_wire_fingerprint(want)
            assert got.stats.as_dict() == want.stats.as_dict()
            # Each report records its own module's functions, by name.
            assert sorted(got.outcomes.records) == ["dot", "hist"]
        # 6 functions requested; identical pairs solved once: dot+hist
        # solved for module a, replayed for b; c's edited dot solved,
        # its unchanged hist replayed.
        assert session.solved_functions == 3
        assert session.dedupe_hits == 3

    def test_dedupe_disabled_solves_everything(self):
        modules = [compiled(name="a"), compiled(name="b")]
        session = DetectionSession(IdiomDetector())
        session.detect_many(modules, dedupe=False)
        assert session.solved_functions == 4
        assert session.dedupe_hits == 0

    def test_store_serves_across_detect_many_calls(self, tmp_path):
        detector = IdiomDetector(cache=str(tmp_path))
        first = DetectionSession(detector)
        first.detect_many([compiled(name="a"),
                           compiled(SRC_EDITED, name="b")])
        assert first.solved_functions > 0
        second = DetectionSession(detector)
        reports = second.detect_many([compiled(name="a"),
                                      compiled(SRC_EDITED, name="b")])
        assert second.solved_functions == 0
        assert second.cache_hits == 4
        assert all(r.total() > 0 for r in reports)


# ---------------------------------------------------------------------------
# DetectionService: micro-batching, tenants, parse cache
# ---------------------------------------------------------------------------

class TestDetectionService:
    def test_concurrent_tenants_batched_and_identical(self, tmp_path):
        text = module_text()
        edited = module_text(SRC_EDITED, "t")
        want = report_wire_fingerprint(detect_idioms(parse_module(text)))
        want_edited = report_wire_fingerprint(
            detect_idioms(parse_module(edited)))
        config = ServiceConfig(cache_dir=str(tmp_path),
                               batch_window_s=0.25)
        with DetectionService(config) as service:
            futures = [service.submit(text, tenant=f"t{i}")
                       for i in range(4)]
            futures.append(service.submit(edited, tenant="editor"))
            results = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        for result in results[:4]:
            assert report_wire_fingerprint(result.report) == want
        assert report_wire_fingerprint(results[4].report) == want_edited
        # One window caught all five requests.
        assert stats["batches"] == 1
        assert stats["requests"] == 5
        # Identical texts share one parsed module and one report object.
        assert results[0].report is results[1].report
        assert stats["module_dedupe_hits"] > 0
        # The edited module's unchanged function deduped against the
        # shared one inside the same fan-out.
        assert stats["batch_dedupe_hits"] >= 1
        assert stats["dedupe_ratio"] > 0.5
        assert stats["errors"] == 0
        assert stats["latency"]["count"] == 5

    def test_cobatched_tenants_see_only_their_own_outcomes(self):
        """Two tenants' modules in one batch: each encoded report's
        outcome records name exactly its own module's defined
        functions, never the other tenant's."""
        from repro.experiments.suites import compile_suite

        modules = {w.name: m for w, m in compile_suite(["CG", "histo"])}
        texts = {"alice": print_module(modules["CG"]),
                 "bob": print_module(modules["histo"])}
        config = ServiceConfig(batch_window_s=0.25)
        with DetectionService(config) as service:
            futures = {tenant: service.submit(text, tenant=tenant)
                       for tenant, text in texts.items()}
            results = {tenant: future.result(timeout=120)
                       for tenant, future in futures.items()}
            assert service.stats()["batches"] == 1
        for tenant, result in results.items():
            defined = {f.name for f in result.module.functions.values()
                       if not f.is_declaration()}
            outcomes = encode_report(result.report)["outcomes"]
            names = [o["function"] for o in outcomes["functions"]]
            assert sorted(names) == sorted(defined), tenant

    def test_sequential_requests_separate_batches(self):
        text = module_text()
        config = ServiceConfig(batch_window_s=0.001)
        with DetectionService(config) as service:
            service.detect(text)
            service.detect(text)
            stats = service.stats()
        assert stats["batches"] == 2
        # Second request reuses the parsed module, and with no cache_dir
        # the in-memory store still serves it: nothing is re-solved.
        assert stats["parse_cache"]["hits"] == 1
        assert stats["module_dedupe_hits"] == 0  # different batches
        assert stats["solved_functions"] == 2
        assert stats["store_hits"] == 2
        assert stats["store"]["backend"] == "memory"
        assert stats["store"]["hits"] >= 2

    def test_default_config_memoises_resubmits_and_edits(self):
        text = module_text()
        edited = module_text(SRC_EDITED, "t")
        want = detect_idioms(parse_module(text))
        want_edited = detect_idioms(parse_module(edited))
        solved = []
        with DetectionService(ServiceConfig()) as service:
            reports = []
            for source in (text, text, edited):
                reports.append(service.detect(source).report)
                solved.append(service.stats()["solved_functions"])
            stats = service.stats()
        # Cold solves both functions, the re-submit none, the edit only
        # the edited function.
        assert solved == [2, 2, 3]
        cold, warm, warm_edited = reports
        assert report_wire_fingerprint(warm) == \
            report_wire_fingerprint(cold) == report_wire_fingerprint(want)
        assert warm.stats.as_dict() == cold.stats.as_dict() == \
            want.stats.as_dict()
        assert report_wire_fingerprint(warm_edited) == \
            report_wire_fingerprint(want_edited)
        assert warm_edited.stats.as_dict() == want_edited.stats.as_dict()
        assert stats["store"]["backend"] == "memory"
        assert stats["store"]["hits"] >= 3 and stats["errors"] == 0

    def test_store_survives_service_restart(self, tmp_path):
        text = module_text()
        config = ServiceConfig(cache_dir=str(tmp_path))
        with DetectionService(config) as service:
            service.detect(text)
        with DetectionService(config) as service:
            service.detect(text)
            stats = service.stats()
        assert stats["solved_functions"] == 0
        assert stats["store_hits"] == 2

    def test_submit_after_close_refused(self):
        service = DetectionService(ServiceConfig())
        service.start()
        service.close()
        with pytest.raises(IDLError):
            service.submit(module_text())

    def test_bad_source_type_rejected(self):
        with DetectionService(ServiceConfig()) as service:
            with pytest.raises(IDLError):
                service.submit(42)

    def test_eviction_under_tiny_budget_never_errors(self, tmp_path):
        config = ServiceConfig(cache_dir=str(tmp_path), budget_bytes=256)
        text = module_text()
        edited = module_text(SRC_EDITED, "t")
        want = report_wire_fingerprint(detect_idioms(parse_module(text)))
        with DetectionService(config) as service:
            for _ in range(3):
                result = service.detect(text)
                assert report_wire_fingerprint(result.report) == want
                service.detect(edited)
            stats = service.stats()
        assert stats["errors"] == 0
        assert stats["store"]["evictions"] > 0
        assert stats["store"]["bytes_stored"] <= 256

    def test_memory_store_under_tiny_budget_never_errors(self):
        text = module_text()
        edited = module_text(SRC_EDITED, "t")
        want = report_wire_fingerprint(detect_idioms(parse_module(text)))
        with DetectionService(ServiceConfig(budget_bytes=256)) as service:
            for _ in range(3):
                result = service.detect(text)
                assert report_wire_fingerprint(result.report) == want
                service.detect(edited)
                assert service.store.total_bytes() <= 256
            stats = service.stats()
        assert stats["errors"] == 0
        assert stats["store"]["backend"] == "memory"
        assert stats["store"]["evictions"] > 0


# ---------------------------------------------------------------------------
# Multi-tenant traffic over suite modules
# ---------------------------------------------------------------------------

class TestSuiteTraffic:
    """The serving gate's traffic (``python -m repro.experiments.gates``):
    CG IS MG histo sgemm, 3 tenants, 2 rounds, one private edit per
    tenant past the first, submitted from one thread per tenant."""

    @pytest.fixture(scope="class")
    def traffic(self):
        from repro.experiments import gates
        from repro.experiments.suites import compile_suite

        requests = gates.service_traffic(
            compile_suite(list(gates.SERVICE_WORKLOADS)))
        want = {text: gates.served_key(detect_idioms(parse_module(text)))
                for text in dict.fromkeys(text for _, text in requests)}
        return requests, want

    @staticmethod
    def serve(config, requests, want):
        """(stats, final store bytes) of one service over the traffic,
        every report checked against direct detection."""
        from repro.experiments.gates import serve_traffic, served_key

        with DetectionService(config) as service:
            results, _ = serve_traffic(service, requests)
            stats = service.stats()
            total_bytes = service.store.total_bytes()
        assert len(results) == len(requests)
        for text, result in results:
            assert served_key(result.report) == want[text], result.tenant
        assert stats["errors"] == 0
        return stats, total_bytes

    def test_reports_identical_and_deduped(self, traffic, tmp_path):
        stats, _ = self.serve(ServiceConfig(
            cache_dir=str(tmp_path), batch_window_s=0.004), *traffic)
        assert stats["store_hits"] + stats["batch_dedupe_hits"] + \
            stats["module_dedupe_hits"] > 0

    def test_restart_solves_nothing(self, traffic, tmp_path):
        config = ServiceConfig(cache_dir=str(tmp_path),
                               batch_window_s=0.004)
        self.serve(config, *traffic)
        stats, _ = self.serve(config, *traffic)
        assert stats["solved_functions"] == 0
        assert stats["store_hits"] > 0

    def test_eviction_stays_within_budget(self, traffic, tmp_path):
        budget = 8 * 1024
        stats, total_bytes = self.serve(ServiceConfig(
            cache_dir=str(tmp_path), budget_bytes=budget,
            batch_window_s=0.004), *traffic)
        assert stats["store"]["evictions"] > 0
        assert total_bytes <= budget


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

class TestWire:
    def test_report_round_trip_is_json_safe_and_identical(self):
        text = module_text()
        module = parse_module(text)
        report = detect_idioms(module)
        payload = json.loads(json.dumps(encode_report(report)))
        decoded = decode_report(payload, module)
        # by_identity=False: decoding against the same module rebinds
        # instructions/arguments to the identical objects; constants are
        # rebuilt, which the structural value keys equate.
        assert report_fingerprint(decoded, by_identity=False) == \
            report_fingerprint(report, by_identity=False)
        assert decoded.stats.as_dict() == report.stats.as_dict()
        assert decoded.total() == report.total()
        # Shared per-match stats objects survive the round trip pooled.
        stats_ids = {id(m.stats) for m in decoded.matches
                     if m.stats is not None}
        want_ids = {id(m.stats) for m in report.matches
                    if m.stats is not None}
        assert len(stats_ids) == len(want_ids)

    def test_wire_fingerprint_is_cross_parse_stable(self):
        text = module_text()
        a = detect_idioms(parse_module(text))
        b = detect_idioms(parse_module(text))
        assert report_wire_fingerprint(a) == report_wire_fingerprint(b)
        edited = detect_idioms(parse_module(module_text(SRC_EDITED, "t")))
        assert report_wire_fingerprint(a) != report_wire_fingerprint(edited)


# ---------------------------------------------------------------------------
# Daemon over a real socket
# ---------------------------------------------------------------------------

class TestDaemon:
    def test_detect_stats_ping_shutdown(self):
        text = module_text()
        want = report_wire_fingerprint(detect_idioms(parse_module(text)))
        daemon = DetectionDaemon(port=0)
        thread = daemon.serve_in_thread()
        host, port = daemon.address
        try:
            with ServiceClient(host, port) as client:
                assert client.ping()
                report = client.detect_report(text, tenant="net")
                assert report_wire_fingerprint(report) == want
                stats = client.stats()
                assert stats["requests"] == 1
                assert client.shutdown()["shutting_down"]
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            daemon.server_close()
            daemon.service.close()

    def test_serve_cli_starts_with_default_flags(self):
        """``python -m repro.service serve`` builds its config from the
        CLI flags, prints its address and stops on the shutdown op."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            banner = proc.stdout.readline()
            assert " on " in banner, proc.stderr.read()
            port = int(banner.split(" on ", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port) as client:
                assert client.ping()
                assert client.shutdown()["shutting_down"]
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    def test_malformed_request_is_error_not_crash(self):
        daemon = DetectionDaemon(port=0)
        thread = daemon.serve_in_thread()
        host, port = daemon.address
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(IDLError):
                    client.request({"op": "detect"})  # no module field
                with pytest.raises(IDLError):
                    client.request({"op": "nonsense"})
                assert client.ping()  # connection still alive
        finally:
            daemon.shutdown()
            thread.join(timeout=10)
            daemon.server_close()
            daemon.service.close()

    def test_overlong_line_is_bad_request_then_closed(self, monkeypatch):
        import socket

        import repro.service.daemon as daemon_module

        monkeypatch.setattr(daemon_module, "MAX_LINE_BYTES", 1024)
        daemon = DetectionDaemon(port=0)
        thread = daemon.serve_in_thread()
        host, port = daemon.address
        try:
            line = json.dumps({"op": "detect", "module": "x" * 65536})
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall((line + "\n").encode("utf-8"))
                rfile = sock.makefile("rb")
                response = json.loads(rfile.readline())
                assert response["ok"] is False
                assert response["kind"] == "bad-request"
                assert "exceeds 1024 bytes" in response["error"]
                assert rfile.readline() == b""  # the daemon hung up
            # A complete line one byte over the cap: nothing is left to
            # discard, so the hang-up comes at once rather than after
            # the discard window.
            monkeypatch.setattr(daemon_module, "_DISCARD_S", 60.0)
            line = json.dumps({"op": "ping", "pad": ""})
            line = line[:-2] + "z" * (1024 - len(line)) + '"}'
            assert len(line) + 1 == 1025
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall((line + "\n").encode("utf-8"))
                rfile = sock.makefile("rb")
                response = json.loads(rfile.readline())
                assert response["kind"] == "bad-request"
                assert rfile.readline() == b""
            # The daemon itself is unharmed: a new connection is served.
            with ServiceClient(host, port) as client:
                assert client.ping()
                with pytest.raises(IDLError, match="bad-request"):
                    client.request({"op": "ping", "pad": "y" * 4096})
                assert client.ping()  # reconnected after the hang-up
            assert daemon.service.stats()["requests"] == 0
        finally:
            daemon.shutdown()
            thread.join(timeout=10)
            daemon.server_close()
            daemon.service.close()


def test_daemon_import_does_not_load_the_benchmark_package():
    import subprocess
    import sys

    code = ("import sys, repro.service.daemon; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.experiments')))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
