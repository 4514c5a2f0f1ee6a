"""Measured cost calibration: microbench probes → per-machine profiles.

The static efficiency constants in :mod:`repro.backends.api` were chosen
to reproduce the paper's Table 3 ordering — they are priors, not
measurements, and the planner gained only ~3% suite-wide over per-site
greedy while trusting them (``tests/test_placement.py``
``TestCalibratedPlacement`` pins the gains it keeps with the checked-in
profile). This module derives the cost model's parameters from what
this machine actually does:

1. **Seeded microbench probes** measure host anchors (GEMM flops rate,
   streaming/copy bandwidth, per-call dispatch and kernel-launch
   overhead) and, per idiom category, the rate its representative kernel
   achieves — a dense matrix multiply, a streaming reduction, a
   ``bincount`` histogram, a 3-point stencil, an index-gather sparse dot.
   All inputs come from a fixed-seed RNG; timings take the best of
   several repeats.
2. **VM telemetry probes** reweight the per-opcode sequential-time table:
   three tiny C loops (memory-, float- and integer/branch-dominated) are
   compiled and run on the register VM, and the ratio between measured
   wall time and the static table's prediction per probe yields anchored
   relative class factors (geomean-normalised, so the overall time scale
   of the static model is preserved — this is a *reweighting*, not a
   rescale).
3. The measurements are projected into the simulated platform's frame:

   * ``fraction[cat]`` — the measured kernel rate over the model CPU's
     roofline for the category's binding resource (flops for
     ``matrix_op``, bytes otherwise), clamped to (0.05, 1.0]. Low
     fractions mean the category's access pattern (gathers, atomically
     merged bins) wastes most of the machine.
   * ``efficiency(api, cat, dev) = clamp(prior · fraction^w, 0.02, 1.0)``
     where the prior is the API's static constant
     (:data:`~repro.platform.cost.DEFAULT_EFFICIENCY` for unknown pairs)
     and ``w`` is 1 on narrow hosts but 2 on wide accelerators
     (``cores >= 64``): irregularity measured on the host compounds on a
     wide device, where every divergent lane and serialised atomic stalls
     hundreds of siblings.
   * Link bandwidth/latency scale the machines' static link constants by
     the measured copy bandwidth/latency relative to the model host
     memory system; launch overheads scale by the measured small-kernel
     intercept against a 10µs prior.

Profiles are **content-fingerprinted** by machine identity + a signature
over the backend registry and machine constants, persisted in the PR-5
:class:`~repro.cache.ArtifactStore` (atomic writes, corruption-tolerant
reads) and/or as a plain JSON file suitable for checking in per CI
machine class. Everything downstream of a loaded profile is
deterministic simulation, so a checked-in profile gives reproducible
planner decisions on any runner.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as _platform
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import CalibrationError
from .cost import DEFAULT_EFFICIENCY
from .machine import CPU, MACHINES, _SEQ_COSTS, sequential_time_seconds

#: Bump on any change to the profile schema or the derivation model —
#: stale persisted profiles are then treated as misses, like the store's
#: own versioning.
PROFILE_VERSION = 1

#: Efficiency clamp: even a catastrophic measured fraction leaves a
#: device 2% effective (the probes measure one kernel shape, not the
#: backend's best), and nothing measured may beat the roofline.
EFFICIENCY_FLOOR = 0.02

#: ``fraction^w`` exponent per device width: wide accelerators pay the
#: measured irregularity twice (divergence × serialisation).
WIDE_DEVICE_CORES = 64

#: Launch-intercept prior (µs): the static launch constants assume
#: roughly this per-call fixed cost; the measured intercept scales them.
LAUNCH_INTERCEPT_PRIOR_US = 10.0

_CLAMP_FRACTION = (0.05, 1.0)
_CLAMP_LAUNCH = (0.1, 4.0)
_CLAMP_LINK = (0.1, 4.0)
_CLAMP_LATENCY = (0.25, 4.0)
_CLAMP_SCALAR = (0.5, 2.0)

#: Opcode → reweighting class for the scalar_ns calibration.
_OPCODE_CLASS = {}
for _op in ("load", "store", "gep", "alloca"):
    _OPCODE_CLASS[_op] = "mem"
for _op in ("fadd", "fsub", "fmul", "fdiv", "frem", "fcmp",
            "sitofp", "fptosi", "fpext", "fptrunc"):
    _OPCODE_CLASS[_op] = "float"
# Everything else (int ALU, compares, branches, casts, calls) → "other".


def _clamp(value: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return max(lo, min(hi, float(value)))


def machine_identity() -> str:
    """A stable identity for the calibration target: hardware class and
    core count, not hostname — profiles are per machine *class*."""
    return "|".join([
        _platform.system(), _platform.machine(),
        _platform.python_implementation(),
        f"cpus={os.cpu_count() or 1}",
    ])


def registry_signature(registry=None, machines: dict | None = None) -> str:
    """Fingerprint of everything that can change what a profile means:
    the backend registry's descriptors (name, kind, platforms, static
    efficiencies, launch overheads) and the machine model constants."""
    if registry is None:
        from ..backends.registry import default_registry
        registry = default_registry()
    machines = machines or MACHINES
    blob: list = [PROFILE_VERSION]
    for descriptor in sorted(registry.descriptors(), key=lambda d: d.name):
        blob.append([descriptor.name, descriptor.kind,
                     list(descriptor.platforms),
                     sorted(descriptor.efficiency.items()),
                     descriptor.launch_overhead_us])
    for name in sorted(machines):
        m = machines[name]
        blob.append([m.name, m.peak_gflops, m.mem_bandwidth_gbs,
                     repr(m.transfer_gbs), m.transfer_latency_us, m.cores])
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode("utf-8")).hexdigest()


def profile_store_key(machine_id: str, signature: str) -> str:
    """The ArtifactStore key a profile lives under (hex, content-style)."""
    return hashlib.sha256(
        f"calibration|{machine_id}|{signature}".encode("utf-8")).hexdigest()


@dataclass
class CalibrationProfile:
    """Per-machine measured cost parameters for the simulated platform.

    Keys are flattened for JSON friendliness: ``efficiency`` maps
    ``"api|category|device"``, ``launch_us`` maps ``"api|device"``,
    ``link_gbs``/``link_latency_us`` map device names. ``scalar_ns`` is
    the reweighted per-opcode table (None → keep the static one). Lookup
    misses return None so :mod:`repro.platform.cost` can fall back to the
    static constants — a partial profile degrades gracefully.
    """

    machine_id: str
    registry_signature: str
    created_at: float = 0.0
    host: dict = field(default_factory=dict)
    category_fraction: dict = field(default_factory=dict)
    efficiency: dict = field(default_factory=dict)
    launch_us: dict = field(default_factory=dict)
    link_gbs: dict = field(default_factory=dict)
    link_latency_us: dict = field(default_factory=dict)
    scalar_ns: dict | None = None
    probes: dict = field(default_factory=dict)

    # -- cost-model lookups (duck-typed by repro.platform.cost) ---------
    def efficiency_for(self, api: str, category: str,
                       device: str) -> float | None:
        return self.efficiency.get(f"{api}|{category}|{device}")

    def launch_us_for(self, api: str, device: str) -> float | None:
        return self.launch_us.get(f"{api}|{device}")

    def link_for(self, device: str) -> tuple[float, float] | None:
        gbs = self.link_gbs.get(device)
        if gbs is None:
            return None
        latency = self.link_latency_us.get(device)
        if latency is None:
            return None
        return float(gbs), float(latency)

    def sequential_seconds(self, opcode_counts: dict) -> float:
        """Host sequential time under the calibrated opcode table."""
        return sequential_time_seconds(opcode_counts, self.scalar_ns)

    def matches(self, signature: str) -> bool:
        return self.registry_signature == signature

    # -- (de)serialisation ---------------------------------------------
    def as_dict(self) -> dict:
        return {
            "profile_version": PROFILE_VERSION,
            "machine_id": self.machine_id,
            "registry_signature": self.registry_signature,
            "created_at": self.created_at,
            "host": dict(self.host),
            "category_fraction": dict(self.category_fraction),
            "efficiency": dict(self.efficiency),
            "launch_us": dict(self.launch_us),
            "link_gbs": dict(self.link_gbs),
            "link_latency_us": dict(self.link_latency_us),
            "scalar_ns": None if self.scalar_ns is None
            else dict(self.scalar_ns),
            "probes": dict(self.probes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationProfile":
        if not isinstance(payload, dict):
            raise CalibrationError("profile payload must be an object")
        if payload.get("profile_version") != PROFILE_VERSION:
            raise CalibrationError(
                f"profile version {payload.get('profile_version')!r} "
                f"!= {PROFILE_VERSION}")
        try:
            scalar = payload.get("scalar_ns")
            return cls(
                machine_id=str(payload["machine_id"]),
                registry_signature=str(payload["registry_signature"]),
                created_at=float(payload.get("created_at", 0.0)),
                host={str(k): float(v)
                      for k, v in payload.get("host", {}).items()},
                category_fraction={
                    str(k): float(v) for k, v in
                    payload.get("category_fraction", {}).items()},
                efficiency={str(k): float(v)
                            for k, v in payload["efficiency"].items()},
                launch_us={str(k): float(v)
                           for k, v in payload.get("launch_us",
                                                   {}).items()},
                link_gbs={str(k): float(v)
                          for k, v in payload.get("link_gbs", {}).items()},
                link_latency_us={
                    str(k): float(v) for k, v in
                    payload.get("link_latency_us", {}).items()},
                scalar_ns=None if scalar is None
                else {str(k): float(v) for k, v in scalar.items()},
                probes=dict(payload.get("probes", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"malformed profile payload: {exc}") \
                from exc


# ---------------------------------------------------------------------------
# Persistence: ArtifactStore (per-machine) and JSON files (checked in)
# ---------------------------------------------------------------------------

def save_profile(profile: CalibrationProfile, store) -> bool:
    """Persist in the artifact store under the content fingerprint of
    (machine identity, registry signature). Atomic and versioned — a
    torn or stale entry reads back as a miss, never as garbage."""
    key = profile_store_key(profile.machine_id,
                            profile.registry_signature)
    return store.put(key, {"profile": profile.as_dict()})


def load_profile(store, registry=None,
                 machines: dict | None = None) -> CalibrationProfile | None:
    """The store entry for *this* machine under the *current* registry,
    or None on miss, corruption, or a signature that no longer matches
    (the registry or machine constants changed since calibration)."""
    signature = registry_signature(registry, machines)
    payload = store.get(profile_store_key(machine_identity(), signature))
    if payload is None:
        return None
    try:
        profile = CalibrationProfile.from_dict(payload.get("profile"))
    except CalibrationError:
        return None
    return profile if profile.matches(signature) else None


def write_profile_json(profile: CalibrationProfile, path: str) -> None:
    """Write a standalone profile file (the check-in format for CI
    machine classes). Atomic via rename, like the store's writes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump({"profile": profile.as_dict()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_profile_json(path: str, *, strict: bool = False
                      ) -> CalibrationProfile | None:
    """Load a profile file. A file loaded by explicit path is trusted
    for its machine class (no identity check — CI checks in profiles
    measured elsewhere); a stale schema, unreadable file or malformed
    payload returns None (or raises when ``strict``)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return CalibrationProfile.from_dict(payload.get("profile"))
    except (OSError, ValueError, CalibrationError) as exc:
        if strict:
            raise CalibrationError(
                f"cannot load calibration profile {path!r}: {exc}") \
                from exc
        return None


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

class Calibrator:
    """Runs the probe suite and derives a :class:`CalibrationProfile`.

    ``fast=True`` shrinks every probe ~16x for tests; the derivation is
    identical, only noisier. All inputs are seeded; timings take the
    minimum over ``repeats`` runs (the classic best-of-N noise filter).
    """

    def __init__(self, seed: int = 1234, fast: bool = False,
                 repeats: int = 3, registry=None,
                 machines: dict | None = None):
        self.seed = seed
        self.fast = fast
        self.repeats = max(1, repeats)
        self.registry = registry
        self.machines = machines or MACHINES
        self._scale = 16 if fast else 1

    # -- timing helpers -------------------------------------------------
    def _best_of(self, fn, *args) -> float:
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    # -- host anchor probes ---------------------------------------------
    def probe_gemm_gflops(self) -> float:
        n = 192 if not self.fast else 96
        rng = self._rng()
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        seconds = self._best_of(np.dot, a, b)
        return 2.0 * n ** 3 / seconds / 1e9

    def probe_stream_gbs(self) -> float:
        n = 4_000_000 // self._scale
        rng = self._rng()
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        out = np.empty(n)

        def triad():
            np.multiply(b, 0.5, out=out)
            np.add(out, a, out=out)
        seconds = self._best_of(triad)
        return 3 * 8 * n / seconds / 1e9

    def probe_copy(self) -> tuple[float, float]:
        """(bandwidth GB/s from a large copy, latency µs from a tiny
        one): t(n) = latency + n/bandwidth, solved at two sizes."""
        big = 2_000_000 // self._scale
        rng = self._rng()
        src = rng.standard_normal(big)
        dst = np.empty(big)
        t_big = self._best_of(np.copyto, dst, src)
        gbs = 8 * big / t_big / 1e9
        small = 64
        s_src, s_dst = src[:small], dst[:small]
        reps = 200 if self.fast else 2000

        def small_copies():
            for _ in range(reps):
                np.copyto(s_dst, s_src)
        t_small = self._best_of(small_copies) / reps
        latency_us = max(0.01, (t_small - 8 * small / (gbs * 1e9)) * 1e6)
        return gbs, latency_us

    def probe_dispatch_us(self) -> float:
        """Per-call overhead of a trivial python handler — the floor any
        simulated API call pays on this interpreter."""
        reps = 2000 if self.fast else 20000
        sink = []

        def handler(args, engine):
            return None

        def loop():
            for _ in range(reps):
                handler(sink, None)
        return self._best_of(loop) / reps * 1e6

    def probe_kernel_intercept_us(self) -> float:
        """Fixed per-invocation cost of a numpy kernel, from its small-n
        runtime — the measured analogue of the launch-overhead prior."""
        n = 256
        rng = self._rng()
        a = rng.standard_normal(n)
        out = np.empty(n)
        reps = 200 if self.fast else 2000

        def small_kernels():
            for _ in range(reps):
                np.multiply(a, 1.5, out=out)
        return self._best_of(small_kernels) / reps * 1e6

    # -- per-category kernel probes --------------------------------------
    def probe_category_rates(self) -> dict:
        """category → measured rate: GFLOP/s for matrix_op, GB/s of
        touched data for the memory-bound categories. Each kernel is the
        category's canonical shape, so the ratio to the roofline captures
        how much of the machine that access pattern wastes."""
        n = 2_000_000 // self._scale
        rng = self._rng()
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        rates: dict[str, float] = {}

        rates["matrix_op"] = self.probe_gemm_gflops()

        seconds = self._best_of(np.add.reduce, x)
        rates["scalar_reduction"] = 8 * n / seconds / 1e9

        bins = rng.integers(0, 256, n // 2, dtype=np.int64)
        seconds = self._best_of(np.bincount, bins)
        rates["histogram_reduction"] = 8 * (n // 2) / seconds / 1e9

        out = np.empty(n - 2)
        tmp = np.empty(n - 2)

        def stencil3():
            np.multiply(x[1:-1], 0.5, out=out)
            np.multiply(x[:-2], 0.25, out=tmp)
            np.add(out, tmp, out=out)
            np.multiply(x[2:], 0.25, out=tmp)
            np.add(out, tmp, out=out)
        seconds = self._best_of(stencil3)
        rates["stencil"] = 4 * 8 * n / seconds / 1e9

        idx = rng.integers(0, n, n // 2)

        def gather_dot():
            np.dot(x[idx], y[: n // 2])
        seconds = self._best_of(gather_dot)
        rates["sparse_matrix_op"] = 8 * (n // 2) * 3 / seconds / 1e9

        z = x[: max(1024, n // 4)]
        seconds = self._best_of(np.fft.rfft, z)
        rates["spectral_op"] = 8 * z.size / seconds / 1e9
        return rates

    # -- VM telemetry probes ----------------------------------------------
    _VM_PROBES = {
        "mem": """
double probe_mem(int n, double *a, double *b) {
  for (int i = 0; i < n; i++)
    b[i] = a[i];
  return b[0];
}
""",
        "float": """
double probe_float(int n, double x) {
  double t = x;
  double u = 0.0;
  for (int i = 0; i < n; i++) {
    t = t * 1.0000001 + 0.5;
    u = u + t * t;
  }
  return u;
}
""",
        "other": """
int probe_other(int n) {
  int s = 1;
  for (int i = 0; i < n; i++) {
    s = s + (i & 7);
    if (s > 1000000)
      s = s - 999999;
  }
  return s;
}
""",
    }

    def probe_scalar_classes(self) -> dict:
        """class → measured/predicted wall ratio from the register VM.

        Each probe loop is dominated by one opcode class; the ratio of
        its measured VM wall time to the static table's prediction says
        how this machine weights that class relative to the model."""
        from ..frontend import compile_c
        from ..passes import optimize
        from ..runtime.memory import Buffer, Pointer
        from ..runtime.vm import VirtualMachine

        n = 30_000 // self._scale
        ratios: dict[str, float] = {}
        for cls, source in self._VM_PROBES.items():
            module = compile_c(source, f"calibrate-{cls}")
            optimize(module, verify=False)
            entry = next(f.name for f in module.functions.values()
                         if not f.is_declaration())
            vm = VirtualMachine(module)
            if cls == "mem":
                a = Buffer.from_numpy("a", np.ones(n))
                b = Buffer.from_numpy("b", np.zeros(n))
                args = [n, Pointer(a, 0), Pointer(b, 0)]
            elif cls == "float":
                args = [n, 1.5]
            else:
                args = [n]
            vm.call(entry, list(args))  # warm: bytecode lowered once
            before = dict(vm.profile.opcode_counts())
            t0 = time.perf_counter()
            vm.call(entry, list(args))
            wall = time.perf_counter() - t0
            after = vm.profile.opcode_counts()
            counts = {op: after[op] - before.get(op, 0) for op in after}
            predicted = sequential_time_seconds(counts)
            ratios[cls] = wall / predicted if predicted > 0 else 1.0
        return ratios

    # -- derivation -------------------------------------------------------
    def run(self) -> CalibrationProfile:
        stream_gbs = self.probe_stream_gbs()
        copy_gbs, copy_latency_us = self.probe_copy()
        dispatch_us = self.probe_dispatch_us()
        intercept_us = self.probe_kernel_intercept_us()
        rates = self.probe_category_rates()
        class_ratios = self.probe_scalar_classes()

        host = {
            "gflops": rates["matrix_op"],
            "stream_gbs": stream_gbs,
            "copy_gbs": copy_gbs,
            "copy_latency_us": copy_latency_us,
            "dispatch_us": dispatch_us,
            "kernel_intercept_us": intercept_us,
        }

        # Measured achieved fraction of the model host's roofline, per
        # category: flops-bound matrix_op against peak_gflops, everything
        # else against the memory system.
        fraction = {}
        for category, rate in rates.items():
            if category == "matrix_op":
                ideal = CPU.peak_gflops
            else:
                ideal = CPU.mem_bandwidth_gbs
            fraction[category] = _clamp(rate / ideal, _CLAMP_FRACTION)

        registry = self.registry
        if registry is None:
            from ..backends.registry import default_registry
            registry = default_registry()

        efficiency: dict[str, float] = {}
        launch_us: dict[str, float] = {}
        launch_factor = _clamp(intercept_us / LAUNCH_INTERCEPT_PRIOR_US,
                               _CLAMP_LAUNCH)
        categories = set(fraction)
        for descriptor in registry.descriptors():
            for machine in self.machines.values():
                if machine.name not in descriptor.platforms:
                    continue
                launch_us[f"{descriptor.name}|{machine.name}"] = \
                    descriptor.launch_overhead_us * launch_factor
                wide = machine.cores >= WIDE_DEVICE_CORES
                for category in categories:
                    prior = descriptor.efficiency.get(
                        category, DEFAULT_EFFICIENCY)
                    if category not in descriptor.efficiency:
                        # Not a supported pair: no calibrated entry, the
                        # cost model's static fallback handles it.
                        continue
                    frac = fraction[category]
                    eff = prior * (frac * frac if wide else frac)
                    efficiency[
                        f"{descriptor.name}|{category}|{machine.name}"
                    ] = _clamp(eff, (EFFICIENCY_FLOOR, 1.0))

        link_gbs: dict[str, float] = {}
        link_latency: dict[str, float] = {}
        bw_factor = _clamp(copy_gbs / CPU.mem_bandwidth_gbs, _CLAMP_LINK)
        lat_factor = _clamp(copy_latency_us / 1.0, _CLAMP_LATENCY)
        for machine in self.machines.values():
            if machine.transfer_gbs == float("inf"):
                continue
            link_gbs[machine.name] = machine.transfer_gbs * bw_factor
            link_latency[machine.name] = \
                machine.transfer_latency_us * lat_factor

        # Anchored per-opcode reweighting: scale each class by its
        # measured ratio over the geometric mean of all three, so the
        # overall sequential time scale is preserved — the VM's absolute
        # speed is an interpreter property, not a model input.
        values = [max(1e-9, v) for v in class_ratios.values()]
        geomean = float(np.exp(np.mean(np.log(values))))
        class_factor = {
            cls: _clamp(ratio / geomean, _CLAMP_SCALAR)
            for cls, ratio in class_ratios.items()
        }
        scalar_ns = {
            op: ns * class_factor.get(_OPCODE_CLASS.get(op, "other"), 1.0)
            for op, ns in _SEQ_COSTS.items()
        }

        return CalibrationProfile(
            machine_id=machine_identity(),
            registry_signature=registry_signature(registry, self.machines),
            created_at=time.time(),
            host=host,
            category_fraction=fraction,
            efficiency=efficiency,
            launch_us=launch_us,
            link_gbs=link_gbs,
            link_latency_us=link_latency,
            scalar_ns=scalar_ns,
            probes={
                "category_rates": rates,
                "scalar_class_ratios": class_ratios,
                "launch_factor": launch_factor,
                "bw_factor": bw_factor,
                "lat_factor": lat_factor,
            },
        )


def calibrate(seed: int = 1234, fast: bool = False, store=None,
              registry=None, machines: dict | None = None
              ) -> CalibrationProfile:
    """Run the probe suite; persist in ``store`` when given."""
    profile = Calibrator(seed=seed, fast=fast, registry=registry,
                         machines=machines).run()
    if store is not None:
        save_profile(profile, store)
    return profile
