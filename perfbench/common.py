"""Shared pieces of the benchmark: paths, statistics, provenance, child
processes and the result line.

Everything here is standard library only, so ``run.py`` can import it
(and fail cleanly) in a directory that holds no ``src/`` tree.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output (result files, Chrome traces); ignored by git.
OUT_DIR = ROOT / ".bench_build" / "perfbench"
DEFAULT_PROFILE = ROOT / "profiles" / "default.json"

#: The layers spans are attributed to, named after the packages under
#: ``src/repro/``. ``analysis`` and the ``runtime`` lowering are timed as
#: separate calls outside the traced passes, so they stay out of shares.
LAYERS = ("frontend", "passes", "analysis", "idioms", "transform",
          "runtime", "backends", "platform", "service")


def use_source_tree() -> None:
    """Put ``src/`` and this directory on ``sys.path``."""
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``;
    numpy's default method, without needing numpy."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (rank - lo))


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def pass_percentile(passes: list[list[float]], q: float) -> float:
    """The ``q``-th percentile of each pass's latencies, averaged over the
    passes. On a shared machine the speed of interpreted code switches
    between a fast and a slow regime for seconds at a time; a statistic
    pooled over a few passes jumps between the two modes, while a mean
    over passes moves with the share of time spent in each."""
    return mean(percentile(latencies, q) for latencies in passes)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: What :func:`probe_s` takes, on average, on the reference machine (an
#: Intel Xeon with two vCPUs, Python 3.11).
PROBE_REF_S = 0.015


def probe_s() -> float:
    """Time a fixed pure-Python loop of dict, list and integer work.

    On a shared machine the speed of interpreted code drifts by a third
    or more over minutes as neighbours come and go. A run times this
    probe between its programs and reports every time scaled by
    :func:`speed`, which cancels that drift. The probe uses only the
    standard library, so no change to the code under test moves it."""
    t0 = time.perf_counter()
    table: dict = {}
    window: list = []
    for i in range(50_000):
        key = i % 97
        table[key] = table.get(key, 0) + i * 3 % 11
        window.append(key)
        if len(window) > 64:
            window.pop(0)
    return time.perf_counter() - t0


def speed(probes) -> float:
    """Factor that turns times measured alongside ``probes`` into times
    at the reference machine's speed."""
    return PROBE_REF_S / mean(probes)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_child(script: str, args: list, timeout: float) -> dict:
    """Run ``perfbench/<script>`` in a fresh interpreter and return the
    JSON object it wrote to the file named by its ``--out`` argument."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"child-{os.getpid()}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / script), *map(str, args),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        with open(out) as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Provenance and the result line
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, scale: int) -> dict:
    """Where and how a result was measured."""
    import numpy

    from repro.runtime import DEFAULT_ENGINE

    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "default_engine": DEFAULT_ENGINE,
    }


def emit_result(workload: str, seed: int, trace: bool, prov: dict,
                metrics: dict, attempted: int, failures: list,
                extra: dict | None = None) -> None:
    """Print a human summary, save the full result under ``OUT_DIR`` and
    print the one-line JSON result last."""
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  failed_frac {len(failures) / max(1, attempted):.6g} "
          f"({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    saved = {**result, "provenance": prov, "failures": failures,
             **(extra or {})}
    write_json(OUT_DIR / f"result-{workload}-{seed}-{int(trace)}.json",
               saved)
    print(json.dumps(result), flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
