"""Tests for the content-addressed artifact cache: the store's failure
semantics, fingerprint/canonical-print determinism (including across
processes with different PYTHONHASHSEED — the warm-start-across-sessions
requirement), analysis summaries, and cold/warm bit-identity of detection
reports with per-function invalidation."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.info import AnalysisSummary, FunctionAnalyses
from repro.cache import (
    STORE_VERSION,
    ArtifactStore,
    DetectionCache,
    detection_config_signature,
    function_fingerprint,
    globals_signature,
    summary_fingerprint,
)
from repro.errors import IDLError
from repro.frontend import compile_c
from repro.idioms import (
    DetectionSession,
    IdiomDetector,
    detect_idioms,
    report_fingerprint,
)
from repro.ir.instructions import BinaryOperator
from repro.ir.parser import parse_module
from repro.ir.printer import (
    canonical_names,
    print_function,
    print_function_canonical,
    print_module,
)
from repro.ir.values import const_int
from repro.passes import optimize
from repro.passes.pipeline import pipeline_signature
from repro.workloads import all_workloads

SRC = """
double f(int n, double *a) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s += a[i] * 2.0;
  return s;
}
void g(int n, double *x, double *q) {
  for (int i = 0; i < n; i++) {
    int k = (int) x[i];
    q[k] = q[k] + 1.0;
  }
}
"""

#: Same structure as SRC, every identifier renamed — canonical printing
#: must erase the difference.
SRC_RENAMED = """
double f(int count, double *vec) {
  double total = 0.0;
  for (int j = 0; j < count; j++) total += vec[j] * 2.0;
  return total;
}
void g(int count, double *inp, double *hist) {
  for (int j = 0; j < count; j++) {
    int bin = (int) inp[j];
    hist[bin] = hist[bin] + 1.0;
  }
}
"""


def compiled(src=SRC, name="m"):
    module = compile_c(src, name)
    optimize(module)
    return module


def mutate(function, tag=1):
    """A dead but fingerprint-changing edit (same as bench_cache's)."""
    dead = BinaryOperator("add", const_int(0), const_int(tag))
    dead.name = function.unique_name("editbump")
    function.blocks[0].insert(0, dead)


# ---------------------------------------------------------------------------
# ArtifactStore
# ---------------------------------------------------------------------------

KEY = "ab" + "0" * 62


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.put(KEY, {"kind": "detection", "matches": []})
        payload = store.get(KEY)
        assert payload["kind"] == "detection"
        assert payload["version"] == STORE_VERSION
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_absent_key_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get(KEY) is None
        assert store.stats.misses == 1

    def test_corrupt_entry_is_miss_never_error(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY, {"kind": "detection"})
        path = store._path(KEY)
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)  # bad entries are dropped

    def test_version_mismatch_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY, {"kind": "detection"})
        path = store._path(KEY)
        with open(path, "w") as fh:
            json.dump({"kind": "detection", "version": STORE_VERSION + 1},
                      fh)
        assert store.get(KEY) is None
        assert store.stats.corrupt == 1

    def test_non_dict_payload_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY, {"kind": "detection"})
        with open(store._path(KEY), "w") as fh:
            json.dump([1, 2, 3], fh)
        assert store.get(KEY) is None

    def test_malformed_key_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError):
            store.put("zz", {})

    def test_unwritable_root_degrades_to_no_op(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file where the store root should be")
        store = ArtifactStore(str(blocker))
        assert store.put(KEY, {"kind": "detection"}) is False
        assert store.stats.write_errors == 1

    def test_entry_count(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.entry_count() == 0
        store.put(KEY, {})
        store.put("cd" + "1" * 62, {})
        assert store.entry_count() == 2


# ---------------------------------------------------------------------------
# Canonical printing + fingerprints
# ---------------------------------------------------------------------------

class TestCanonicalPrint:
    def test_identical_builds_print_identically(self):
        assert print_module(compiled()) == print_module(compiled())

    def test_canonical_form_is_name_independent(self):
        m1, m2 = compiled(SRC), compiled(SRC_RENAMED)
        for name in ("f", "g"):
            a = print_function_canonical(m1.functions[name])
            b = print_function_canonical(m2.functions[name])
            assert a == b
            # ... and the plain printed forms really did differ.
            assert print_function(m1.functions[name]) != \
                print_function(m2.functions[name])

    def test_canonical_names_cover_locals_only(self):
        f = compiled().functions["f"]
        names = canonical_names(f)
        assert sorted(set(names.values()))[:2] == ["a0", "a1"]
        # Renames never leak into the default printed form.
        assert print_function(f) == print_function(f, None)

    def test_structural_change_changes_canonical_form(self):
        m1, m2 = compiled(), compiled()
        mutate(m2.functions["f"])
        assert print_function_canonical(m1.functions["f"]) != \
            print_function_canonical(m2.functions["f"])

    @pytest.mark.parametrize("seed", ["0", "4242"])
    def test_print_deterministic_across_hash_seeds(self, seed):
        """The canonical text (and so every content address) must not
        depend on the interpreter's hash randomisation — warm starts
        happen in a different process than the one that populated."""
        script = (
            "from repro.frontend import compile_c\n"
            "from repro.passes import optimize\n"
            "from repro.ir.printer import print_module, "
            "print_function_canonical\n"
            "from repro.workloads import get_workload\n"
            "for name in ('CG', 'histo'):\n"
            "    w = get_workload(name)\n"
            "    m = compile_c(w.source, w.name)\n"
            "    optimize(m)\n"
            "    print(print_module(m))\n"
            "    for f in m.functions.values():\n"
            "        if not f.is_declaration():\n"
            "            print(print_function_canonical(f))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH="src" + os.pathsep +
                   os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, cwd=os.path.dirname(os.path.dirname(__file__)))
        assert out.returncode == 0, out.stderr
        digest = hashlib.sha256(out.stdout.encode()).hexdigest()
        # Same digest under both seeds and in this process.
        if not hasattr(TestCanonicalPrint, "_seed_digest"):
            TestCanonicalPrint._seed_digest = digest
        assert digest == TestCanonicalPrint._seed_digest

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name)
    def test_print_parse_print_fixed_point(self, workload):
        """print → parse → print is a fixed point for every function of
        every suite workload — the property that lets content hashes
        speak for IR structure (and the solution wire format trust its
        structural locators)."""
        module = compile_c(workload.source, workload.name)
        optimize(module)
        text = print_module(module)
        reparsed = parse_module(text, workload.name)
        assert print_module(reparsed) == text
        for name, function in module.functions.items():
            twin = reparsed.functions[name]
            assert print_function_canonical(twin) == \
                print_function_canonical(function)


class TestFingerprints:
    def test_same_structure_same_fingerprint(self):
        m1, m2 = compiled(SRC), compiled(SRC_RENAMED)
        assert function_fingerprint(m1.functions["f"], "cfg") == \
            function_fingerprint(m2.functions["f"], "cfg")

    def test_ir_edit_changes_fingerprint(self):
        m1, m2 = compiled(), compiled()
        mutate(m2.functions["f"])
        assert function_fingerprint(m1.functions["f"], "cfg") != \
            function_fingerprint(m2.functions["f"], "cfg")

    def test_config_keys_are_disjoint(self):
        f = compiled().functions["f"]
        assert function_fingerprint(f, "cfg-a") != \
            function_fingerprint(f, "cfg-b")

    def test_globals_enter_the_fingerprint(self):
        base = "define i64 @f(i64 %x) {\nentry:\n  ret i64 %x\n}\n"
        m1 = parse_module(base)
        m2 = parse_module("@tab = global [4 x double]\n\n" + base)
        optimize(m1), optimize(m2)
        assert globals_signature(m1) != globals_signature(m2)
        assert function_fingerprint(m1.functions["f"], "cfg") != \
            function_fingerprint(m2.functions["f"], "cfg")
        # ... but summaries are body-keyed (their facts don't read
        # globals), so they survive the declaration change.
        assert summary_fingerprint(m1.functions["f"]) == \
            summary_fingerprint(m2.functions["f"])

    def test_detector_config_signature_inputs(self):
        base = detection_config_signature(
            "lib", ("Reduction",), 100, 1000, "forest", True, True, "pp")
        assert base == detection_config_signature(
            "lib", ("Reduction",), 100, 1000, "forest", True, True, "pp")
        for changed in (
            detection_config_signature(
                "lib2", ("Reduction",), 100, 1000, "forest", True, True,
                "pp"),
            detection_config_signature(
                "lib", ("Reduction", "GEMM"), 100, 1000, "forest", True,
                True, "pp"),
            detection_config_signature(
                "lib", ("Reduction",), 101, 1000, "forest", True, True,
                "pp"),
            detection_config_signature(
                "lib", ("Reduction",), 100, 1000, "plan", True, True,
                "pp"),
            detection_config_signature(
                "lib", ("Reduction",), 100, 1000, "forest", False, True,
                "pp"),
            detection_config_signature(
                "lib", ("Reduction",), 100, 1000, "forest", True, True,
                "pp2"),
        ):
            assert changed != base

    def test_library_signature_tracks_loaded_sources(self):
        d1, d2 = IdiomDetector(), IdiomDetector()
        assert d1.compiler.library_signature() == \
            d2.compiler.library_signature()
        assert d1.config_signature() == d2.config_signature()
        d2.compiler.load(
            "Constraint Extra ( {x} is add instruction ) End")
        assert d1.compiler.library_signature() != \
            d2.compiler.library_signature()

    def test_pipeline_signature_names_every_pass(self):
        sig = pipeline_signature()
        assert "promote_allocas" in sig and "simplify_cfg" in sig


# ---------------------------------------------------------------------------
# Analysis summaries
# ---------------------------------------------------------------------------

class TestAnalysisSummary:
    def test_summary_roundtrip(self):
        f = compiled().functions["f"]
        summary = FunctionAnalyses(f).summary()
        again = AnalysisSummary.from_dict(summary.as_dict())
        assert again == summary
        assert summary.max_loop_depth == 1
        assert "phi" in summary.opcodes
        assert summary.opcodes == tuple(sorted(summary.opcodes))

    def test_adopt_summary_skips_recomputation(self):
        f = compiled().functions["f"]
        summary = FunctionAnalyses(f).summary()
        adopted = FunctionAnalyses(f)
        adopted.adopt_summary(summary)
        assert adopted.opcode_set == frozenset(summary.opcodes)
        assert adopted.max_loop_depth == summary.max_loop_depth
        # ... without ever having built loop info.
        assert adopted._loops is None


# ---------------------------------------------------------------------------
# End-to-end detection caching
# ---------------------------------------------------------------------------

def warm_fp(report):
    # Constants decoded from the wire format are fresh objects; compare
    # structurally (instructions still compare by identity inside).
    return report_fingerprint(report, by_identity=False)


class TestDetectionCache:
    def test_cold_and_warm_reports_bit_identical(self, tmp_path):
        module = compiled()
        cold = IdiomDetector().detect(module)
        det = IdiomDetector(cache=str(tmp_path))
        populate = det.detect(module)
        session = DetectionSession(det)
        warm = session.detect(module)
        assert warm_fp(cold) == warm_fp(populate) == warm_fp(warm)
        assert cold.stats.as_dict() == warm.stats.as_dict()
        assert session.cache_hits == 2 and session.cache_misses == 0
        # Warm matches reference the live IR, not copies.
        assert all(m.function is module.functions[m.function.name]
                   for m in warm.matches)

    @pytest.mark.parametrize("workers", [2], ids=["2-thread"])
    def test_warm_through_worker_pools(self, tmp_path, workers):
        module = compiled()
        cold = IdiomDetector().detect(module)
        det = IdiomDetector(cache=str(tmp_path))
        DetectionSession(det, workers=workers).detect(module)
        session = DetectionSession(det, workers=workers)
        warm = session.detect(module)
        assert session.cache_misses == 0
        assert warm_fp(warm) == warm_fp(cold)

    def test_editing_one_function_resolves_only_it(self, tmp_path):
        module = compiled()
        det = IdiomDetector(cache=str(tmp_path))
        det.detect(module)
        mutate(module.functions["g"])
        session = DetectionSession(det)
        warm = session.detect(module)
        assert session.cache_hits == 1
        assert session.cache_misses == 1
        assert warm_fp(warm) == warm_fp(IdiomDetector().detect(module))
        # The re-solved entry lands, so the next run is fully warm.
        session = DetectionSession(det)
        session.detect(module)
        assert session.cache_misses == 0

    def test_per_match_stats_survive_the_round_trip(self, tmp_path):
        """Plan/dynamic orderings attach per-(function, idiom) solve
        stats to each match; a warm report must restore them, not hand
        every match the function aggregate."""
        module = compiled()
        cold = IdiomDetector(ordering="plan").detect(module)
        det = IdiomDetector(ordering="plan", cache=str(tmp_path))
        det.detect(module)
        warm = DetectionSession(det).detect(module)
        assert [m.stats.as_dict() for m in cold.matches] == \
            [m.stats.as_dict() for m in warm.matches]
        assert [m.stats.max_steps for m in cold.matches] == \
            [m.stats.max_steps for m in warm.matches]
        # Distinct idioms of one function really do carry distinct
        # stats, so the assertion above is not vacuous.
        per_match = {tuple(sorted(m.stats.as_dict().items()))
                     for m in cold.matches}
        assert len(per_match) > 1

    def test_forest_stats_sharing_survives_round_trip(self, tmp_path):
        """Forest-mode matches of one function share a single stats
        object; the interned stats pool must preserve that sharing, not
        just the values."""
        module = compiled("""
        double h(int n, double *x, double *q) {
          double s = 0.0;
          for (int i = 0; i < n; i++) {
            int k = (int) x[i];
            q[k] = q[k] + 1.0;
            s = s + x[i];
          }
          return s;
        }
        """)
        cold = IdiomDetector().detect(module)
        assert len(cold.matches) >= 2
        assert len({id(m.stats) for m in cold.matches}) == 1
        det = IdiomDetector(cache=str(tmp_path))
        det.detect(module)
        warm = DetectionSession(det).detect(module)
        assert len({id(m.stats) for m in warm.matches}) == 1
        assert warm.matches[0].stats.as_dict() == \
            cold.matches[0].stats.as_dict()

    def test_cache_accepts_pathlib_paths(self, tmp_path):
        module = compiled()
        det = IdiomDetector(cache=tmp_path)  # a Path, not a str
        det.detect(module)
        session = DetectionSession(det)
        session.detect(module)
        assert session.cache_misses == 0

    def test_undecodable_entry_is_unlinked(self, tmp_path):
        """An entry that parses as JSON but fails match decoding must be
        dropped from disk, not re-parsed (and re-failed) forever."""
        module = compiled()
        det = IdiomDetector(cache=str(tmp_path))
        cold = det.detect(module)
        key = det.cache.function_key(module.functions["f"],
                                     globals_signature(module))
        path = det.cache.store._path(key)
        with open(path) as fh:
            payload = json.load(fh)
        payload["matches"] = [["Reduction", [["x", ["i", 99, 99]]], None]]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        session = DetectionSession(det)
        warm = session.detect(module)
        assert session.cache_misses == 1
        assert warm_fp(warm) == warm_fp(cold)
        assert not os.path.exists(path) or \
            json.load(open(path))["matches"] != payload["matches"]

    def test_corrupt_entry_is_resolved_not_raised(self, tmp_path):
        module = compiled()
        det = IdiomDetector(cache=str(tmp_path))
        cold = det.detect(module)
        key = det.cache.function_key(module.functions["f"],
                                     globals_signature(module))
        with open(det.cache.store._path(key), "w") as fh:
            fh.write("garbage")
        session = DetectionSession(det)
        warm = session.detect(module)
        assert session.cache_misses == 1
        assert warm_fp(warm) == warm_fp(cold)

    def test_config_change_does_not_hit_other_entries(self, tmp_path):
        module = compiled()
        full = IdiomDetector(cache=str(tmp_path))
        full.detect(module)
        narrow = IdiomDetector(idioms=["Reduction"],
                               cache=str(tmp_path))
        session = DetectionSession(narrow)
        report = session.detect(module)
        assert session.cache_misses == 2  # nothing served across configs
        assert {m.idiom for m in report.matches} <= {"Reduction"}
        cold = IdiomDetector(idioms=["Reduction"]).detect(module)
        assert warm_fp(report) == warm_fp(cold)

    def test_renamed_module_is_served_from_cache(self, tmp_path):
        """Content addressing, not name addressing: a structurally
        identical module warms from another module's entries."""
        det = IdiomDetector(cache=str(tmp_path))
        det.detect(compiled(SRC))
        renamed = compiled(SRC_RENAMED, name="other")
        session = DetectionSession(det)
        warm = session.detect(renamed)
        assert session.cache_misses == 0
        assert warm_fp(warm) == \
            warm_fp(IdiomDetector().detect(renamed))

    def test_warm_start_from_another_process(self, tmp_path):
        """The cross-session story: a different process (different hash
        seed) populates the store; this process warm-starts from it."""
        script = (
            "import sys\n"
            "from repro.frontend import compile_c\n"
            "from repro.passes import optimize\n"
            "from repro.idioms import IdiomDetector\n"
            "module = compile_c(sys.stdin.read(), 'm')\n"
            "optimize(module)\n"
            "IdiomDetector(cache=sys.argv[1]).detect(module)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="1234",
                   PYTHONPATH="src" + os.pathsep +
                   os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env,
            input=SRC, capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(__file__)))
        assert out.returncode == 0, out.stderr
        module = compiled()
        det = IdiomDetector(cache=str(tmp_path))
        session = DetectionSession(det)
        warm = session.detect(module)
        assert session.cache_misses == 0
        assert warm_fp(warm) == warm_fp(IdiomDetector().detect(module))

    def test_detect_idioms_convenience(self, tmp_path):
        module = compiled()
        first = detect_idioms(module, cache_dir=str(tmp_path))
        second = detect_idioms(module, cache_dir=str(tmp_path))
        assert warm_fp(first) == warm_fp(second)
        assert ArtifactStore(str(tmp_path)).entry_count() > 0

    def test_loading_idl_after_construction_rebinds_the_cache(
            self, tmp_path):
        """The cache signature must track the live compiler state: IDL
        loaded after the detector was built may not be served stale
        entries keyed for the old library."""
        module = compiled()
        det = IdiomDetector(cache=str(tmp_path))
        det.detect(module)
        before = det.cache.config_signature
        det.compiler.load(
            "Constraint Extra ( {x} is add instruction ) End")
        assert det.cache.config_signature != before
        session = DetectionSession(det)
        session.detect(module)
        assert session.cache_misses == 2  # nothing served across libraries

    def test_detector_rejects_foreign_cache_objects(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(IDLError):
            IdiomDetector(cache=DetectionCache(store, "stale-signature"))

    def test_summaries_are_persisted_and_adoptable(self, tmp_path):
        module = compiled()
        det = IdiomDetector(cache=str(tmp_path))
        det.detect(module)
        summary = det.cache.load_summary(module.functions["f"])
        assert summary is not None
        assert summary == FunctionAnalyses(module.functions["f"]).summary()


class TestRunnerAndBench:
    def test_compile_workload_cache_dir(self, tmp_path):
        from repro.cache.detection import encode_solution
        from repro.runtime.runner import compile_workload

        def wire_fp(report):
            # The two runs compile separate module instances, so compare
            # via the structural wire format, not object identity.
            return [(m.idiom, m.function.name,
                     encode_solution(m.solution, m.function))
                    for m in report.matches]

        w = next(x for x in all_workloads() if x.name == "histo")
        first = compile_workload(w.name, w.source,
                                 cache_dir=str(tmp_path))
        second = compile_workload(w.name, w.source,
                                  cache_dir=str(tmp_path))
        assert wire_fp(first.report) == wire_fp(second.report)
        assert ArtifactStore(str(tmp_path)).entry_count() > 0

    def test_bench_cache_smoke(self, tmp_path):
        from repro.experiments import bench_cache

        result = bench_cache.run_benchmark(
            ["histo", "sgemm"], cache_dir=str(tmp_path), rounds=2,
            full=False)
        assert result["suite"]["match_sets_identical"]
        assert result["edit_session"]["only_mutated_resolved"]
        for cell in result["matrix"].values():
            assert cell["identical"]
        assert bench_cache.check_regression(result, max_ratio=100.0) == []
