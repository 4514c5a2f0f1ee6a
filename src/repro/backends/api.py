"""API runtime: dispatch table for ``repro.api.*`` calls, and descriptors
of the heterogeneous APIs the paper targets (Table 3's columns).

The *functional* behaviour of every vendor library is shared (numpy/scipy
under the hood — bit-identical maths regardless of which API "runs" it);
what distinguishes cuBLAS from CLBlast from Lift in this reproduction is
the :class:`ApiDescriptor` performance profile consumed by
:mod:`repro.platform.cost` and :mod:`repro.platform.placement`.

Descriptors are *deeply immutable*: the per-category efficiency table is a
:class:`FrozenMap`, so a descriptor is hashable and safe to share (or
pickle) across threads and processes without aliasing hazards.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

from ..errors import BackendError
from ..reliability import faults
from ..reliability.quarantine import Quarantine

#: Idiom kinds an API can implement, by Table-3 column.
API_DESCRIPTORS: "dict[str, ApiDescriptor]" = {}


class FrozenMap(Mapping):
    """An immutable, hashable, picklable mapping.

    ``types.MappingProxyType`` is neither hashable nor picklable, which
    rules it out for descriptors that must hash or pickle; this stores a
    sorted item tuple instead.
    """

    __slots__ = ("_items", "_map")

    def __init__(self, items=()):
        mapping = dict(items)
        object.__setattr__(self, "_items",
                           tuple(sorted(mapping.items())))
        object.__setattr__(self, "_map", mapping)

    def __getitem__(self, key):
        return self._map[key]

    def __iter__(self):
        return iter(self._map)

    def __len__(self):
        return len(self._map)

    def __hash__(self):
        return hash(self._items)

    def __eq__(self, other):
        if isinstance(other, FrozenMap):
            return self._items == other._items
        return Mapping.__eq__(self, other) is True

    def __setattr__(self, name, value):
        raise AttributeError("FrozenMap is immutable")

    def __reduce__(self):
        return (FrozenMap, (self._items,))

    def __repr__(self):
        return f"FrozenMap({dict(self._items)!r})"


@dataclass(frozen=True)
class ApiDescriptor:
    """One heterogeneous API (library or DSL backend).

    ``efficiency`` maps idiom category → fraction of device peak the API
    reaches for that idiom (the Table-3 calibration constants; documented
    in EXPERIMENTS.md). It is frozen into a :class:`FrozenMap` on
    construction, making the descriptor hashable end to end.
    """

    name: str
    kind: str  # 'library' | 'dsl' | 'runtime'
    platforms: tuple[str, ...]  # subset of ('cpu', 'igpu', 'gpu')
    efficiency: Mapping  # category -> float in (0, 1]
    launch_overhead_us: float = 20.0

    def __post_init__(self):
        if not isinstance(self.efficiency, FrozenMap):
            object.__setattr__(self, "efficiency",
                               FrozenMap(self.efficiency))
        if not isinstance(self.platforms, tuple):
            object.__setattr__(self, "platforms", tuple(self.platforms))

    def supports(self, platform: str, category: str) -> bool:
        return platform in self.platforms and category in self.efficiency


def _register(descriptor: ApiDescriptor) -> ApiDescriptor:
    API_DESCRIPTORS[descriptor.name] = descriptor
    return descriptor


# Vendor libraries (paper §5.1). Efficiencies are calibration constants
# chosen so Table 3's who-beats-whom ordering is reproduced; they are not
# measurements of the real libraries.
MKL = _register(ApiDescriptor(
    "MKL", "library", ("cpu",),
    {"matrix_op": 0.90, "sparse_matrix_op": 0.60}, 5.0))
CUBLAS = _register(ApiDescriptor(
    "cuBLAS", "library", ("gpu",), {"matrix_op": 0.92}, 8.0))
CLBLAS = _register(ApiDescriptor(
    "clBLAS", "library", ("igpu", "gpu"), {"matrix_op": 0.75}, 12.0))
CLBLAST = _register(ApiDescriptor(
    "CLBlast", "library", ("igpu", "gpu"), {"matrix_op": 0.62}, 12.0))
CUSPARSE = _register(ApiDescriptor(
    "cuSPARSE", "library", ("gpu",), {"sparse_matrix_op": 0.85}, 8.0))
CLSPARSE = _register(ApiDescriptor(
    "clSPARSE", "library", ("igpu", "gpu"), {"sparse_matrix_op": 0.65}, 12.0))
LIBSPMV = _register(ApiDescriptor(
    "libSPMV", "library", ("cpu", "igpu", "gpu"),
    {"sparse_matrix_op": 0.55}, 6.0))

# DSL code generators (paper §5.2).
HALIDE = _register(ApiDescriptor(
    "Halide", "dsl", ("cpu",),  # the paper's Halide failed to emit GPU code
    {"stencil": 0.80, "matrix_op": 0.45, "scalar_reduction": 0.55}, 10.0))
LIFT = _register(ApiDescriptor(
    "Lift", "dsl", ("cpu", "igpu", "gpu"),
    {"stencil": 0.70, "scalar_reduction": 0.75,
     "histogram_reduction": 0.60, "matrix_op": 0.40}, 15.0))

# Spectral libraries: no idiom lowers to them yet (no FFT constraint in
# the IDL library), but they participate in registry/planner queries for
# scenario diversity and future spectral idioms. Deliberately *not* in
# API_DESCRIPTORS — that dict reproduces Table 3's columns, and these
# APIs are not in the paper's table; they are reachable only through the
# backend registry.
FFTW = ApiDescriptor("FFTW", "library", ("cpu",), {"spectral_op": 0.85},
                     4.0)
CUFFT = ApiDescriptor("cuFFT", "library", ("gpu",), {"spectral_op": 0.90},
                      8.0)

# Parallel-CPU runtime (an OpenMP-style fallback): runs every idiom
# category on the host at modest efficiency, calibrated strictly below
# the per-category CPU winners. Registry-only for the same reason as the
# spectral APIs: its value is as a planner fallback when transfer costs
# sink every accelerator, not as a Table 3 column.
OPENMP_RT = ApiDescriptor(
    "OpenMP", "runtime", ("cpu",),
    {"scalar_reduction": 0.50, "histogram_reduction": 0.35,
     "stencil": 0.45, "matrix_op": 0.30, "sparse_matrix_op": 0.40,
     "spectral_op": 0.30}, 2.0)


#: APIs eligible per idiom category (Table 3 columns per row group).
def apis_for(category: str, platform: str) -> list[ApiDescriptor]:
    return [d for d in API_DESCRIPTORS.values()
            if d.supports(platform, category)]


# ---------------------------------------------------------------------------
# Runtime dispatch
# ---------------------------------------------------------------------------

@dataclass
class ApiCallSite:
    """One transformed idiom instance: a callable handler plus metadata."""

    call_id: int
    idiom: str
    category: str
    #: (args: list, engine) -> value. ``engine`` is the active execution
    #: engine (reference interpreter or register VM); handlers must not
    #: depend on engine internals beyond the shared Pointer/Buffer model.
    handler: Callable
    description: str = ""
    #: Static workload statistics for the cost model, filled by the
    #: transformer: flops per element, bytes touched, etc.
    stats: dict = field(default_factory=dict)
    #: 'call' for transformed idioms, 'guard' for runtime aliasing checks
    #: (guards never appear in ``all_sites`` or the cost model).
    kind: str = "call"
    #: Name of the registry backend whose contract lowered this site.
    backend: str = ""
    #: Argument indexes of pointer operands the handler reads / writes —
    #: the residency planner's buffer-access schema, and the aliasing
    #: guard's overlap sets.
    reads: tuple = ()
    writes: tuple = ()
    #: True when the call is multi-versioned behind a runtime aliasing
    #: guard (the original loop was kept as the fallback path). False for
    #: result-producing idioms (read-only, no hazard), shared-loop groups,
    #: and regions whose CFG does not admit the guard structure — those
    #: keep the seed's unguarded replacement, as the paper concedes.
    guarded: bool = False
    #: The :class:`~repro.platform.placement.SitePlacement` chosen by the
    #: offload planner — set on the sites of every plan returned by
    #: ``plan_module`` (the most recent planner run wins), ``None`` before
    #: any planning.
    placement: object = None

    @property
    def callee(self) -> str:
        return f"repro.api.call{self.call_id}"


#: Per-process cap on recorded dispatch events; beyond it the planner
#: falls back to per-site aggregate statistics.
EVENT_CAP = 100_000


class ApiRuntime:
    """Holds transformed call sites and dispatches interpreter API calls.

    Besides dispatching, the runtime records a **residency event log**:
    one entry per dynamic API call, listing the buffers the handler
    touched (identity, size, access mode). The offload planner replays
    this log to charge host↔device transfers only on actual residency
    changes along the real execution order — see
    :mod:`repro.platform.placement`.

    Dispatch at **guarded** sites is failure-contained: the IR's guarded
    multi-version keeps the original loop reachable behind the site's i1
    result, so a handler that raises is caught, any partial writes to its
    output buffers are rolled back (``failsafe``), the failure is counted
    against the (backend, category) pair in ``quarantine``, and the
    dispatch answers 0 — the workload re-runs the intact original loop
    and produces the exact pre-transformation result. Once a pair trips
    the quarantine threshold its guarded sites skip the handler outright,
    and quarantine-aware planners/transformers stop selecting it.
    """

    def __init__(self) -> None:
        self.sites: dict[str, ApiCallSite] = {}
        self._next_id = 0
        #: [(call_id, ((buffer_key, nbytes, mode), ...)), ...]
        self.events: list = []
        self.events_overflowed = False
        #: call_id -> location name ('host'/'igpu'/'gpu'); when set, the
        #: runtime tracks residency live and tallies measured transfer
        #: bytes/events into each site's stats.
        self.placement_locations: dict | None = None
        self._residency = None
        #: (backend, category) dispatch-failure ledger.
        self.quarantine = Quarantine()
        #: Roll back partial output writes before falling back. Costs one
        #: buffer copy per guarded dispatch; disable only for workloads
        #: whose handlers are known to write all-or-nothing.
        self.failsafe = True
        #: One record per contained dispatch failure, in firing order.
        self.dispatch_failures: list[dict] = []

    def new_site(self, idiom: str, category: str, handler: Callable,
                 description: str = "", backend: str = "",
                 reads: tuple = (), writes: tuple = ()) -> ApiCallSite:
        site = ApiCallSite(self._next_id, idiom, category, handler,
                           description, kind="call", backend=backend,
                           reads=tuple(reads), writes=tuple(writes))
        self._next_id += 1
        self.sites[site.callee] = site
        return site

    def new_guard(self, of_site: ApiCallSite, handler: Callable
                  ) -> ApiCallSite:
        """An aliasing-guard site: returns 1 when the fast path is safe."""
        guard = ApiCallSite(self._next_id, of_site.idiom, of_site.category,
                            handler, f"aliasing guard for {of_site.callee}",
                            kind="guard")
        self._next_id += 1
        self.sites[guard.callee] = guard
        return guard

    def discard(self, site: ApiCallSite) -> None:
        """Unregister a site whose transformation was abandoned (partial
        failure of a multi-match group)."""
        self.sites.pop(site.callee, None)

    def set_placement(self, locations: dict) -> None:
        """Enable live residency tracking under a planner assignment.

        ``locations`` maps call_id → location name as produced by
        :meth:`repro.platform.placement.PlacementPlan.locations`.
        """
        from ..platform.placement import ResidencyState

        self.placement_locations = dict(locations)
        self._residency = ResidencyState()

    def _accesses(self, site: ApiCallSite, args: list) -> tuple:
        accesses = []
        reads, writes = set(site.reads), set(site.writes)
        for index in sorted(reads | writes):
            if index >= len(args):
                continue
            buffer = getattr(args[index], "buffer", None)
            if buffer is None:
                continue
            mode = ("rw" if index in reads and index in writes
                    else "w" if index in writes else "r")
            accesses.append((id(buffer), buffer.nbytes, mode))
        return tuple(accesses)

    def dispatch(self, callee: str, args: list, engine):
        """Run one transformed call site; ``engine`` is whichever
        execution engine (interpreter or VM) hit the call."""
        site = self.sites.get(callee)
        if site is None:
            raise BackendError(f"no API call site registered for {callee}")
        if site.kind == "call" and (site.reads or site.writes):
            accesses = self._accesses(site, args)
            if accesses:
                if len(self.events) < EVENT_CAP:
                    self.events.append((site.call_id, accesses))
                else:
                    self.events_overflowed = True
                if self.placement_locations is not None:
                    self._track(site, accesses)
        if site.kind == "call" and site.guarded:
            return self._dispatch_guarded(site, args, engine)
        if site.kind == "call":
            faults.maybe_fire("backend.dispatch",
                              f"{site.backend}/{site.callee}")
        return site.handler(args, engine)

    def _dispatch_guarded(self, site: ApiCallSite, args: list, engine):
        """Guarded-site dispatch: 1 on success, 0 to run the original
        loop (quarantined backend, or a handler failure — contained,
        rolled back, and recorded)."""
        if self.quarantine.is_quarantined(site.backend, site.category):
            site.stats["quarantine_skips"] = \
                site.stats.get("quarantine_skips", 0) + 1
            return 0
        snapshot = self._snapshot_writes(site, args) if self.failsafe \
            else None
        try:
            faults.maybe_fire("backend.dispatch",
                              f"{site.backend}/{site.callee}")
            site.handler(args, engine)
        except Exception as exc:
            self._restore_writes(snapshot)
            quarantined = self.quarantine.record_failure(
                site.backend, site.category, str(exc))
            site.stats["dispatch_failures"] = \
                site.stats.get("dispatch_failures", 0) + 1
            self.dispatch_failures.append({
                "callee": site.callee, "backend": site.backend,
                "category": site.category, "error": str(exc),
                "quarantined": quarantined,
            })
            return 0
        return 1

    @staticmethod
    def _snapshot_writes(site: ApiCallSite, args: list) -> list:
        """Copies of the output buffers a failing handler may have
        partially written; keyed by buffer identity (a handler writing
        two views of one buffer snapshots it once)."""
        snapshot: list = []
        seen: set = set()
        for index in site.writes:
            if index >= len(args):
                continue
            buffer = getattr(args[index], "buffer", None)
            if buffer is None or id(buffer) in seen:
                continue
            seen.add(id(buffer))
            snapshot.append((buffer, buffer.data.copy()))
        return snapshot

    @staticmethod
    def _restore_writes(snapshot: list | None) -> None:
        if not snapshot:
            return
        for buffer, saved in snapshot:
            buffer.data[...] = saved

    def _track(self, site: ApiCallSite, accesses: tuple) -> None:
        location = self.placement_locations.get(site.call_id, "host")
        moved_bytes = 0
        moved_events = 0
        for key, nbytes, mode in accesses:
            for _, link_bytes in self._residency.access(location, key,
                                                        nbytes, mode):
                moved_bytes += link_bytes
                moved_events += 1
        stats = site.stats
        stats["measured_xfer_bytes"] = \
            stats.get("measured_xfer_bytes", 0) + moved_bytes
        stats["measured_xfer_events"] = \
            stats.get("measured_xfer_events", 0) + moved_events

    def all_sites(self) -> list[ApiCallSite]:
        """Transformed idiom call sites (guards excluded), in call order."""
        return sorted((s for s in self.sites.values() if s.kind == "call"),
                      key=lambda s: s.call_id)
