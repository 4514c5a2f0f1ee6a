"""Suite-level tests: census (Table 1), baselines, backends, experiments."""

from pathlib import Path

import numpy as np
import pytest

from repro.backends import halide, lift
from repro.backends.api import API_DESCRIPTORS, ApiRuntime, apis_for
from repro.detect import baseline_counts
from repro.platform import CPU, GPU, IGPU, best_api_cost, site_cost
from repro.runtime import compile_workload
from repro.workloads import all_workloads, expected_totals, get_workload


class TestWorkloadRegistry:
    def test_twenty_one_benchmarks(self):
        workloads = all_workloads()
        assert len(workloads) == 21
        assert sum(1 for w in workloads if w.suite == "NAS") == 10
        assert sum(1 for w in workloads if w.suite == "Parboil") == 11

    def test_table1_totals(self):
        """The suite-wide census equals the paper's Table 1 IDL row."""
        totals = expected_totals()
        assert totals == {
            "scalar_reduction": 45,
            "histogram_reduction": 5,
            "stencil": 6,
            "matrix_op": 1,
            "sparse_matrix_op": 3,
        }

    def test_ten_dominant(self):
        names = sorted(w.name for w in all_workloads() if w.dominant)
        assert names == ["CG", "EP", "IS", "MG", "histo", "lbm", "sgemm",
                         "spmv", "stencil", "tpacf"]


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_census_per_benchmark(name):
    """Detected idioms per benchmark equal the Figure 16 reconstruction."""
    w = get_workload(name)
    compiled = compile_workload(name, w.source)
    got = compiled.report.by_category()
    assert got == {k: v for k, v in w.expected.items() if v}


class TestBaselines:
    def test_baseline_rows(self):
        """Table 1 baseline rows: Polly 3/-/5/-/-, ICC 28/-/-/-/-."""
        matches = []
        for w in all_workloads():
            matches.extend(compile_workload(w.name, w.source).report.matches)
        rows = baseline_counts(matches)
        assert rows["ICC"] == {"scalar_reduction": 28}
        assert rows["Polly"] == {"scalar_reduction": 3, "stencil": 5}


def gemm_flat(a, lda, b, ldb, c, ldc, m, n, k, alpha=1.0, beta=0.0):
    """C[i + j*ldc] = beta*C + alpha * Σ_k A[i + k*lda] · B[j + k*ldb]
    over flat 1-D buffers (the Parboil sgemm layout: column slices of
    stride ld)."""
    a_eff = np.reshape(a[:lda * k], (k, lda))[:, :m]     # a_eff[k, i]
    b_eff = np.reshape(b[:ldb * k], (k, ldb))[:, :n]     # b_eff[k, j]
    c_eff = np.reshape(c[:ldc * n], (n, ldc))[:, :m]     # c_eff[j, i]
    prod = np.einsum("ki,kj->ji", a_eff, b_eff)
    result = beta * c_eff + alpha * prod
    c_view = np.reshape(c[:ldc * n], (n, ldc))
    c_view[:, :m] = result
    return result


class TestBackends:
    def test_gemm_flat_matches_numpy(self):
        rng = np.random.default_rng(0)
        m = n = k = 6
        a = rng.uniform(-1, 1, m * k)
        b = rng.uniform(-1, 1, n * k)
        c = rng.uniform(-1, 1, m * n)
        c0 = c.copy()
        gemm_flat(a, m, b, n, c, m, m, n, k, alpha=2.0, beta=0.5)
        a_eff = a.reshape(k, m)
        b_eff = b.reshape(k, n)
        expect = 0.5 * c0.reshape(n, m) + 2.0 * np.einsum(
            "ki,kj->ji", a_eff, b_eff)
        np.testing.assert_allclose(c.reshape(n, m), expect, atol=1e-12)

    def test_api_descriptors(self):
        assert "cuSPARSE" in API_DESCRIPTORS
        assert API_DESCRIPTORS["cuSPARSE"].supports("gpu", "sparse_matrix_op")
        assert not API_DESCRIPTORS["cuSPARSE"].supports("cpu",
                                                        "sparse_matrix_op")
        assert not API_DESCRIPTORS["Halide"].supports("gpu", "stencil")

    def test_apis_for(self):
        gpu_sparse = {d.name for d in apis_for("sparse_matrix_op", "gpu")}
        assert gpu_sparse == {"cuSPARSE", "clSPARSE", "libSPMV"}

    def test_halide_stencil_realize(self):
        x, y = halide.Var("x"), halide.Var("y")
        expr = (halide.BufferRef("input", (-1, 0))
                + halide.BufferRef("input", (1, 0))) * 0.5
        func = halide.Func("blur", [x, y], expr).parallel(x).vectorize(y, 8)
        grid = np.arange(36, dtype=float).reshape(6, 6)
        out = func.realize([(1, 5), (1, 5)], {"input": grid})
        expect = 0.5 * (grid[0:4, 1:5] + grid[2:6, 1:5])
        np.testing.assert_allclose(out, expect)

    def test_lift_reduction_pipeline(self):
        pattern = lift.reduction_to_lift(
            delta_fn=lambda a, b: a * b, kind="sum", init=0.0, n_inputs=2)
        fn = lift.compile_pattern(pattern)
        x = np.arange(5.0)
        y = np.ones(5) * 2.0
        assert fn({"in0": x, "in1": y}) == pytest.approx(20.0)

    def test_lift_split_join(self):
        inner = lift.Map(lift.UserFun("dbl", 1, lambda v: v * 2),
                         lift.Input("xs"))
        fn = lift.compile_pattern(inner)
        np.testing.assert_allclose(fn({"xs": np.arange(4.0)}),
                                   [0.0, 2.0, 4.0, 6.0])


class TestCostModel:
    def _site(self, category, elements=1e6, flops_pe=2, bytes_=None):
        runtime = ApiRuntime()
        site = runtime.new_site("X", category, lambda a, i: None)
        site.stats = {"calls": 1, "elements": elements,
                      "flops_per_element": flops_pe,
                      "bytes": bytes_ if bytes_ is not None else elements * 8}
        return site

    def test_gpu_wins_large_gemm(self):
        site = self._site("matrix_op", elements=1e9, bytes_=24e6)
        apis = list(API_DESCRIPTORS.values())
        cpu = best_api_cost(site, apis, CPU)
        gpu = best_api_cost(site, apis, GPU)
        assert gpu[1].total_s < cpu[1].total_s
        assert gpu[0].name == "cuBLAS"
        assert cpu[0].name == "MKL"

    def test_cpu_wins_tiny_problem(self):
        site = self._site("scalar_reduction", elements=1e3)
        apis = list(API_DESCRIPTORS.values())
        cpu = best_api_cost(site, apis, CPU)
        gpu = best_api_cost(site, apis, GPU)
        assert cpu[1].total_s < gpu[1].total_s

    def test_lazy_transfers_help_iterative(self):
        site = self._site("sparse_matrix_op", elements=1e6)
        site.stats["calls"] = 100
        api = API_DESCRIPTORS["cuSPARSE"]
        eager = site_cost(site, api, GPU, lazy_transfers=False)
        lazy = site_cost(site, api, GPU, lazy_transfers=True)
        assert lazy.total_s < eager.total_s

    def test_igpu_cheaper_transfer_than_gpu(self):
        site = self._site("stencil", elements=1e5)
        lift_api = API_DESCRIPTORS["Lift"]
        igpu = site_cost(site, lift_api, IGPU)
        gpu = site_cost(site, lift_api, GPU)
        assert igpu.transfer_s < gpu.transfer_s


class TestCompileOverhead:
    def test_detection_overhead_is_bounded(self):
        """Table 2's point: IDL detection stays within interactive compile
        times. (Relative overhead is larger here than the paper's +82%
        because our baseline compiler is tiny; see EXPERIMENTS.md.)"""
        w = get_workload("BT")
        compiled = compile_workload(w.name, w.source)
        assert compiled.detect_seconds < 30.0


class TestCBackend:
    def test_kernel_to_c(self):
        from repro.transform import KBin, KParam, KConst, ExtractedKernel
        from repro.transform import kernel_to_c

        expr = KBin("fadd", KParam(0), KBin("fmul", KParam(1), KConst(2.0)))
        kernel = ExtractedKernel(expr)
        text = kernel_to_c(kernel, name="k", n_params=2)
        assert "double k(double in0, double in1)" in text
        assert "(in0 + (in1 * 2.0))" in text


class TestGates:
    def test_identity_checks_pass_on_a_subset(self, monkeypatch):
        from repro.experiments import gates
        from repro.experiments.suites import compile_suite

        monkeypatch.setattr(gates, "ROUNDS", 1)
        modules = compile_suite(["histo", "spmv"])
        for gate in gates.GATES:
            # Two tiny workloads time too briefly for the bounds to mean
            # anything; only the identity and full-hit checks are read.
            failures = gate(modules)
            assert not [f for f in failures
                        if "diverge" in f or "re-solved" in f]

    def test_divergence_fails_the_gate_by_name(self, monkeypatch):
        from repro.experiments import gates
        from repro.experiments.suites import compile_suite
        from repro.idioms import DetectionReport
        from repro.idioms.oracle import PerIdiomDetector

        monkeypatch.setattr(gates, "ROUNDS", 1)
        monkeypatch.setattr(PerIdiomDetector, "detect",
                            lambda self, module: DetectionReport(module.name))
        failures = gates.detect_gate(compile_suite(["spmv"]))
        assert "detect: spmv: forest and oracle match sets diverge" in \
            failures

    def test_interp_divergence_fails_the_gate_by_name(self, monkeypatch):
        from repro.experiments import gates
        from repro.experiments.suites import compile_suite

        monkeypatch.setattr(gates, "outputs_identical", lambda a, b: False)
        failures = gates.interp_gate(compile_suite(["histo"]))
        assert failures == ["interp: histo: tier outputs or dynamic counts "
                            "diverge"]


def run_main(capsys, *argv):
    """``python -m repro.experiments ARGV`` in process: (status, stdout)."""
    from repro.experiments.harness import main

    status = main(list(argv))
    return status, capsys.readouterr().out


def fail_lines(out):
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def harness_options():
    """Every option string the experiments CLI's parser accepts."""
    from repro.experiments.harness import _build_parser

    return {option for action in _build_parser()._actions
            for option in action.option_strings}


@pytest.fixture
def histo_diverges(monkeypatch):
    """histo's second input set (the accelerated run's) has an all-zero
    image, so its accelerated outputs really differ from the original's."""
    workload = get_workload("histo")
    make_inputs = workload.make_inputs
    calls = []

    def diverging(scale):
        inputs = make_inputs(scale)
        calls.append(scale)
        if len(calls) % 2 == 0:
            inputs["img"] = np.zeros_like(inputs["img"])
        return inputs

    monkeypatch.setattr(workload, "make_inputs", diverging)
    return monkeypatch


class TestOutputsCheck:
    """``python -m repro.experiments`` exits 1 and names each workload
    whose accelerated outputs differ from its original run."""

    def test_mismatch_fails_and_names_the_workload(self, histo_diverges,
                                                   capsys):
        status, out = run_main(capsys, "table3")
        assert status == 1
        assert fail_lines(out) == [
            "FAIL histo: accelerated outputs differ from the original run"]

    def test_matching_outputs_pass(self):
        from repro.experiments.harness import Evaluations, evaluate_workload

        evals = Evaluations()
        ev = evaluate_workload(get_workload("histo"), evals=evals)
        assert ev.outputs_equal is True
        assert list(evals.by_key) == ["histo"]

    def test_a_mismatch_does_not_outlive_its_run(self, histo_diverges,
                                                 capsys):
        """Each ``main`` call evaluates afresh: a later run in the same
        process neither reuses nor reports an earlier run's mismatch."""
        status, out = run_main(capsys, "table3")
        assert status == 1 and fail_lines(out)
        histo_diverges.undo()
        status, out = run_main(capsys, "table3")
        assert status == 0 and "FAIL" not in out


class TestCacheStats:
    def test_prints_the_shared_store_counters(self, capsys, tmp_path):
        from repro.cache import ArtifactStore
        from repro.experiments import harness

        store = ArtifactStore(str(tmp_path))
        store.put("ab" * 8, {"kind": "t"})
        assert store.get("ab" * 8) is not None
        assert store.get("cd" * 8) is None
        harness.print_cache_stats(store)
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            f"Artifact store ({tmp_path}):",
            "  hits=1 misses=1 writes=1 evictions=0",
            f"  bytes={store.total_bytes()} corrupt=0 write_errors=0"]

    def test_no_store_without_a_cache_dir(self, tmp_path):
        from repro.experiments.harness import Evaluations, RunConfig

        assert Evaluations().store is None
        store = Evaluations(RunConfig(cache_dir=str(tmp_path))).store
        assert store is not None and store.root == str(tmp_path)


class TestCliOptions:
    """Every option of ``python -m repro.experiments``, run through
    ``main``."""

    def test_the_options_are_the_census_survivors(self):
        assert harness_options() == {"-h", "--help", "--list", "--scale",
                                     "--cache-dir", "--profile",
                                     "--calibrate"}

    def test_scale_grows_the_simulated_times(self, capsys):
        def times(out):
            return [float(cell.split("=")[1].rstrip("*"))
                    for line in out.splitlines() if "=" in line
                    for cell in line.split()[2:]]

        status, base = run_main(capsys, "table3")
        assert status == 0 and "Artifact store" not in base
        status, scaled = run_main(capsys, "table3", "--scale", "2")
        assert status == 0
        assert len(times(scaled)) == len(times(base)) > 0
        # MG, lbm and stencil have fixed-size inputs; the rest grow.
        assert all(s >= b for s, b in zip(times(scaled), times(base)))
        assert times(scaled) != times(base)

    def test_cache_dir_warm_run_solves_nothing(self, capsys, tmp_path):
        """Every experiment over one store: the cold run detects each
        function once (no hit), the warm run serves every one."""
        def tables(out):
            # Table 2's compile-time rows are wall-clock readings.
            return [line for line in out.split("Artifact store")[0]
                    .splitlines() if not line.endswith("%")]

        cache = str(tmp_path / "store")
        status, cold = run_main(capsys, "all", "--cache-dir", cache)
        assert status == 0
        assert f"Artifact store ({cache}):" in cold
        assert " hits=0 " in cold and " writes=0 " not in cold
        status, warm = run_main(capsys, "all", "--cache-dir", cache)
        assert status == 0
        assert " misses=0 writes=0 " in warm
        assert tables(warm) == tables(cold)

    def test_profile_costs_the_placement(self, capsys):
        profile = Path(__file__).resolve().parents[1] / "profiles" / \
            "default.json"
        status, static = run_main(capsys, "placement")
        assert status == 0
        status, measured = run_main(capsys, "placement", "--profile",
                                    str(profile))
        assert status == 0 and measured != static

    def test_calibrate_writes_the_profile_it_uses(self, capsys, tmp_path):
        from repro.platform import read_profile_json

        path = str(tmp_path / "profile.json")
        status, calibrated = run_main(capsys, "placement", "--calibrate",
                                      "--profile", path)
        assert status == 0
        assert read_profile_json(path, strict=True) is not None
        status, reloaded = run_main(capsys, "placement", "--profile", path)
        assert status == 0 and reloaded == calibrated


#: Files that tell a reader which experiment modules to run.
DOCUMENTED_COMMAND_FILES = (".github/workflows/ci.yml", "README.md",
                            "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")


class TestDocumentedCommands:
    def test_every_documented_module_imports(self):
        import importlib
        import re

        root = Path(__file__).resolve().parents[1]
        commands = set()
        for name in DOCUMENTED_COMMAND_FILES:
            text = (root / name).read_text()
            commands |= set(re.findall(
                r"python3? -m (repro\.experiments\.\w+)", text))
        assert "repro.experiments.gates" in commands
        for module in sorted(commands):
            importlib.import_module(module)

    def test_every_documented_option_is_accepted(self):
        """Each ``--option`` a documented ``python -m repro.experiments``
        command passes is one the harness's parser takes."""
        import re

        root = Path(__file__).resolve().parents[1]
        accepted = harness_options()
        documented = {}
        for name in DOCUMENTED_COMMAND_FILES:
            text = (root / name).read_text().replace("\\\n", " ")
            for command in re.findall(
                    r"python3? -m repro\.experiments(?![.\w])([^\n`]*)",
                    text):
                for option in re.findall(r"(?<!\S)--[\w-]+", command):
                    documented.setdefault(option, name)
        assert "--cache-dir" in documented
        assert {option: name for option, name in documented.items()
                if option not in accepted} == {}

    def test_no_retired_bench_module_is_named(self):
        """The ``bench_*`` CLIs are gone: no source file or CI step may
        point a reader at one."""
        import re

        root = Path(__file__).resolve().parents[1]
        paths = [root / ".github/workflows/ci.yml",
                 *sorted((root / "src").rglob("*.py"))]
        named = [f"{path.relative_to(root)}: {name}" for path in paths
                 for name in re.findall(r"\bbench_\w+", path.read_text())]
        assert named == []
