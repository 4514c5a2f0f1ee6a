"""Whole-module offload planner over a buffer-residency graph.

The seed cost layer picked the best API **per call site in isolation**
(:func:`repro.platform.cost.best_api_cost`) and approximated the paper's
§8.3 lazy-copying optimisation by dividing a site's transferred bytes by
its call count — which undercharges whenever a buffer is written between
two calls. This module replaces both with a global model:

1. The :class:`~repro.backends.api.ApiRuntime` records a **residency
   event log** during accelerated execution: one entry per dynamic API
   call, listing (buffer identity, size, access mode) for every pointer
   argument.
2. :class:`ResidencyState` replays that log under a candidate assignment
   of (API, device) per site, maintaining per-buffer *validity sets*
   (which memories hold a current copy) and charging a host↔device
   transfer **only on an actual residency change along the execution
   order** — a write on one device invalidates every other copy, so
   interleaved writers are charged exactly. A final epilogue copies
   device-only buffers back to the host (program outputs must land in
   host memory).
3. :func:`plan_module` searches assignments globally: ``greedy`` is the
   seed per-site policy (the baseline the planner must beat), ``beam``
   is a beam search refined by coordinate descent, ``exhaustive`` fully
   enumerates small search spaces. Every strategy also evaluates the
   greedy assignment under the exact model, so the planner is **never
   worse than per-site greedy** by construction.

Every evaluation accepts an optional measured
:class:`~repro.platform.calibrate.CalibrationProfile`; the greedy
*picks* deliberately stay on the static constants (that is the seed
policy under test), while the profile replaces efficiencies, launch
overheads and link parameters in the replay itself.

The **multi-request regime** extends the replay to concurrent tenants
(the traffic shape the service layer creates):
:func:`evaluate_concurrent` replays several requests' event logs against
shared per-device compute queues and per-device transfer links — host
compute stays per-tenant (each tenant is its own client), accelerators
and their links serialise — and :func:`plan_concurrent` assigns all
requests' sites **jointly**, starting from the per-request independent
optima and descending on the sum of completion times, so joint placement
is never worse than independent-per-request placement by construction.

One planner call does each piece of assignment-independent work once.
It prices every (site, candidate) pair once and prepares each event log
once (each buffer's scale factor, each access's extrapolated bytes):
one replay object for the full log, and one per beam step for the
capped ranking prefix. Searches handle assignments as tuples of
candidate indices. A replay is memoised by where each site runs, so
each distinct assignment of sites to memories is replayed once.
:func:`plan_concurrent` also caches each request's schedule by that
request's assignment, so a descent trial re-schedules only the request
it changed. Every number is the one a fresh one-shot evaluation gives,
summed in the same order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..backends.api import ApiCallSite, ApiDescriptor
from ..backends.registry import BackendRegistry, default_registry
from ..errors import PlacementError
from .cost import compute_launch_cost, site_cost, transfer_link
from .machine import MACHINES, Machine

HOST = "host"

STRATEGIES = ("greedy", "beam", "exhaustive")

#: Event-log prefix used to *rank* partial assignments during beam
#: search. Each beam step prepares this prefix once, over the sites it
#: has assigned, and ranks all its partials with that one replay object.
#: Final candidates (and coordinate descent) are always costed over the
#: full log, so this only bounds search effort on huge logs — never the
#: reported numbers.
BEAM_RANK_EVENT_CAP = 5_000


def _serial_sum(values) -> float:
    """Left-to-right float sum. From Python 3.12 on, ``sum()``
    compensates rounding, so its last bit would depend on the
    interpreter; a plan's totals must not."""
    total = 0.0
    for value in values:
        total += value
    return total


def location_of(machine: Machine) -> str:
    """Machines with infinite transfer bandwidth share host memory."""
    return HOST if machine.transfer_gbs == float("inf") else machine.name


class ResidencyState:
    """Validity-set simulation of buffer residency.

    Shared by the planner's replay and the runtime's live tracker
    (:meth:`repro.backends.api.ApiRuntime.set_placement`), so measured
    transfer counts and planned ones come from one state machine.
    """

    __slots__ = ("valid",)

    def __init__(self) -> None:
        #: buffer key -> set of locations holding a current copy.
        self.valid: dict = {}

    def access(self, location: str, key, nbytes: float,
               mode: str) -> list[tuple[str, float]]:
        """Record one access; return the link transfers it forces as
        ``(device_location, bytes)`` pairs (each pair crosses that
        device's host link once)."""
        valid = self.valid.get(key)
        if valid is None:
            valid = self.valid[key] = {HOST}
        if location in valid:
            if "w" in mode and len(valid) > 1:
                valid.clear()
                valid.add(location)
            return []
        if location == HOST:
            # Copy back from whichever device holds the only copy.
            moves = [(min(valid), nbytes)]
        elif HOST in valid:
            moves = [(location, nbytes)]
        else:
            # Device-to-device moves stage through host memory.
            moves = [(min(valid), nbytes), (location, nbytes)]
            valid.add(HOST)
        if "w" in mode:
            valid.clear()
        valid.add(location)
        return moves

    def device_only(self) -> dict:
        """buffer key -> device location, for buffers the host copy of
        which is stale (epilogue copy-back set)."""
        return {key: min(valid) for key, valid in self.valid.items()
                if HOST not in valid}


@dataclass(frozen=True)
class SitePlacement:
    """One site's assignment: which API executes it on which machine."""

    api: ApiDescriptor
    machine: Machine

    @property
    def device(self) -> str:
        return self.machine.name

    @property
    def location(self) -> str:
        return location_of(self.machine)

    def describe(self) -> str:
        return f"{self.api.name}@{self.machine.name}"


@dataclass
class PlacedSite:
    """A site with its assignment and exact simulated cost breakdown."""

    site: ApiCallSite
    placement: SitePlacement
    compute_s: float = 0.0
    launch_s: float = 0.0
    transfer_s: float = 0.0
    transfer_bytes: float = 0.0
    transfer_events: int = 0

    @property
    def total_s(self) -> float:
        return self.compute_s + self.launch_s + self.transfer_s


@dataclass
class PlacementPlan:
    """A whole-module assignment plus its simulated cost."""

    strategy: str
    placed: list[PlacedSite] = field(default_factory=list)
    host_seconds: float = 0.0      # uncovered (non-idiom) host time
    epilogue_s: float = 0.0        # final device→host copy-back
    epilogue_bytes: float = 0.0
    exact: bool = True             # False when the event log overflowed

    @property
    def offload_s(self) -> float:
        return _serial_sum(p.total_s for p in self.placed) + self.epilogue_s

    @property
    def total_s(self) -> float:
        return self.host_seconds + self.offload_s

    def assignment(self) -> dict:
        return {p.site.call_id: p.placement for p in self.placed}

    def locations(self) -> dict:
        """call_id -> location name, the runtime tracker's input."""
        return {p.site.call_id: p.placement.location for p in self.placed}

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "total_ms": self.total_s * 1e3,
            "host_ms": self.host_seconds * 1e3,
            "epilogue_ms": self.epilogue_s * 1e3,
            "exact": self.exact,
            "sites": [
                {
                    "call_id": p.site.call_id,
                    "idiom": p.site.idiom,
                    "category": p.site.category,
                    "api": p.placement.api.name,
                    "device": p.placement.device,
                    "compute_ms": p.compute_s * 1e3,
                    "launch_ms": p.launch_s * 1e3,
                    "transfer_ms": p.transfer_s * 1e3,
                    "transfer_events": p.transfer_events,
                }
                for p in self.placed
            ],
        }


def scaled_stats(site: ApiCallSite, scale: float) -> dict:
    """Extrapolate dynamic statistics to paper-scale problem sizes.

    GEMM's data grows as N² while its work grows as N³, so its bytes
    scale with the 2/3 power of the element factor; everything else is
    linear.
    """
    stats = dict(site.stats)
    stats["elements"] = stats.get("elements", 0) * scale
    stats["bytes"] = stats.get("bytes", 0) * byte_scale_of(site, scale)
    return stats


def byte_scale_of(site: ApiCallSite, scale: float) -> float:
    return scale ** (2.0 / 3.0) if site.category == "matrix_op" else scale


def site_at_scale(site: ApiCallSite, scale: float) -> ApiCallSite:
    """A field-preserving clone of ``site`` with paper-scale statistics
    (the site itself when ``scale`` is 1)."""
    if scale == 1.0:
        return site
    clone = ApiCallSite(site.call_id, site.idiom, site.category,
                        site.handler, site.description, kind=site.kind,
                        backend=site.backend, reads=site.reads,
                        writes=site.writes, guarded=site.guarded)
    clone.stats = scaled_stats(site, scale)
    return clone


# ---------------------------------------------------------------------------
# Exact evaluation of one assignment
# ---------------------------------------------------------------------------

class _Pricing:
    """Every assignment-independent cost of one planner call, priced once.

    ``options[s]`` lists the placements known for site ``s`` (its
    candidates, plus any other placement an assignment names); an
    assignment is a *choice*, a tuple of indices into those lists. Each
    site is scaled once, and each (site, option) pair is priced once:
    ``(compute_s, launch_s, transfer_s)``, where ``transfer_s`` is the
    legacy per-site formula of :func:`repro.platform.cost.site_cost`
    under the ``lazy`` policy when the event log is unusable (``exact``
    false), and 0.0 otherwise (the replay charges transfers).
    """

    def __init__(self, sites: list, *, scale: float, exact: bool,
                 lazy: bool, machines: dict, profile=None,
                 candidates: list | None = None) -> None:
        self.sites = sites
        self.scaled = [site_at_scale(site, scale) for site in sites]
        self.factors = [byte_scale_of(site, scale) for site in sites]
        self.exact = exact
        self.lazy = lazy
        self.machines = machines
        self.profile = profile
        self.options: list = [[] for _ in sites]
        self.locations: list = [[] for _ in sites]
        self.costs: list = [[] for _ in sites]
        self._links: dict = {}
        for s, placements in enumerate(candidates or ()):
            for placement in placements:
                self._add(s, placement)

    def _add(self, s: int, placement: SitePlacement) -> int:
        scaled = self.scaled[s]
        if self.exact:
            compute, launch = compute_launch_cost(
                scaled, placement.api, placement.machine, self.profile)
            cost = (compute, launch, 0.0)
        else:
            legacy = site_cost(scaled, placement.api, placement.machine,
                               lazy_transfers=self.lazy,
                               profile=self.profile)
            cost = (legacy.compute_s, legacy.launch_s, legacy.transfer_s)
        self.options[s].append(placement)
        self.locations[s].append(placement.location)
        self.costs[s].append(cost)
        return len(self.options[s]) - 1

    def choice(self, assignment: dict) -> tuple:
        """``assignment`` (call_id -> placement) as a choice tuple."""
        out = []
        for s, site in enumerate(self.sites):
            placement = assignment[site.call_id]
            options = self.options[s]
            for index, known in enumerate(options):
                if known is placement or known == placement:
                    break
            else:
                index = self._add(s, placement)
            out.append(index)
        return tuple(out)

    def link_seconds(self, location: str, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over a device's host link; each
        link's constants are looked up once per call."""
        link = self._links.get(location)
        if link is None:
            gbs, latency_us = transfer_link(self.machines[location],
                                            self.profile)
            link = self._links[location] = (gbs * 1e9, latency_us * 1e-6)
        return nbytes / link[0] + link[1]


class _Replay:
    """One event log prepared for replay over the first ``n`` sites of a
    :class:`_Pricing`: events of other sites are dropped, and each
    access carries its extrapolated bytes. A buffer's extrapolated size
    must be consistent across every site that touches it — the scale
    factor is a property of the buffer, not of the accessing site's
    category — so each buffer takes the largest factor among its
    accessors in this log. An unusable log (``exact`` false) keeps no
    events: transfers come from the legacy per-site formula."""

    def __init__(self, pricing: _Pricing, n: int, events: list) -> None:
        self.pricing = pricing
        #: (site index, ((key, extrapolated bytes, mode), ...)) per event.
        self.events: list = []
        #: buffer key -> extrapolated bytes of its last access (the
        #: epilogue's copy-back size).
        self.key_bytes: dict = {}
        #: site locations -> replayed transfers (see :meth:`_transfers`).
        self._moved: dict = {}
        if not pricing.exact:
            return
        index = {pricing.sites[s].call_id: s for s in range(n)}
        key_factor: dict = {}
        for call_id, accesses in events:
            s = index.get(call_id)
            if s is None:
                continue
            factor = pricing.factors[s]
            for key, _, _ in accesses:
                key_factor[key] = max(key_factor.get(key, factor), factor)
        key_bytes = self.key_bytes
        for call_id, accesses in events:
            s = index.get(call_id)
            if s is None:
                continue
            scaled = []
            for key, nbytes, mode in accesses:
                scaled_bytes = key_bytes[key] = nbytes * key_factor[key]
                scaled.append((key, scaled_bytes, mode))
            self.events.append((s, tuple(scaled)))

    def offload_s(self, choice: tuple) -> float:
        """:attr:`PlacementPlan.offload_s` of ``choice``, summed in the
        plan's order so the float is the plan's own."""
        transfers, (epilogue_s, _) = self._transfers(choice)
        costs = self.pricing.costs
        return _serial_sum(costs[s][c][0] + costs[s][c][1] + transfers[s][0]
                           for s, c in enumerate(choice)) + epilogue_s

    def plan(self, choice: tuple, strategy: str,
             host_seconds: float) -> PlacementPlan:
        """The :class:`PlacementPlan` of ``choice``."""
        pricing = self.pricing
        transfers, (epilogue_s, epilogue_bytes) = self._transfers(choice)
        placed = []
        for s, c in enumerate(choice):
            compute, launch, _ = pricing.costs[s][c]
            seconds, nbytes, count = transfers[s]
            placed.append(PlacedSite(pricing.sites[s],
                                     pricing.options[s][c], compute, launch,
                                     seconds, nbytes, count))
        return PlacementPlan(strategy, placed, host_seconds=host_seconds,
                             epilogue_s=epilogue_s,
                             epilogue_bytes=epilogue_bytes,
                             exact=pricing.exact)

    def _transfers(self, choice: tuple) -> tuple:
        """``choice``'s link transfers: ``[seconds, bytes, events]`` per
        site and the epilogue's ``(seconds, bytes)``. Transfers depend
        only on where each site runs, so choices that put every site in
        the same memory share one replay."""
        pricing = self.pricing
        if not pricing.exact:
            return ([(pricing.costs[s][c][2], 0.0, 0)
                     for s, c in enumerate(choice)], (0.0, 0.0))
        locations = tuple(pricing.locations[s][c]
                          for s, c in enumerate(choice))
        moved = self._moved.get(locations)
        if moved is None:
            moved = self._moved[locations] = self._move(locations)
        return moved

    def _move(self, locations: tuple) -> tuple:
        """Replay the residency state machine with site ``s`` in memory
        ``locations[s]``."""
        transfers = [[0.0, 0.0, 0] for _ in locations]
        state = ResidencyState()
        access, link_seconds = state.access, self.pricing.link_seconds
        for s, accesses in self.events:
            location = locations[s]
            for key, nbytes, mode in accesses:
                moves = access(location, key, nbytes, mode)
                if moves:
                    entry = transfers[s]
                    for link, moved in moves:
                        entry[1] += moved
                        entry[2] += 1
                        entry[0] += link_seconds(link, moved)
        epilogue_s = epilogue_bytes = 0.0
        for key, device in state.device_only().items():
            nbytes = self.key_bytes.get(key, 0.0)
            epilogue_bytes += nbytes
            epilogue_s += link_seconds(device, nbytes)
        return transfers, (epilogue_s, epilogue_bytes)


def evaluate_assignment(sites: list[ApiCallSite], events: list,
                        assignment: dict, *, machines: dict | None = None,
                        strategy: str = "custom", host_seconds: float = 0.0,
                        scale: float = 1.0,
                        exact: bool = True,
                        fallback_lazy: bool = True,
                        profile=None) -> PlacementPlan:
    """Exact simulated cost of ``assignment`` over the event log.

    ``assignment`` maps call_id -> :class:`SitePlacement`. When the event
    log is unusable (``exact=False``), transfers fall back to the legacy
    per-site formula of :func:`repro.platform.cost.site_cost` under the
    ``fallback_lazy`` policy (matching the seed's lazy applicability).
    ``profile`` substitutes measured calibration parameters everywhere
    the replay charges costs. A one-shot :class:`_Replay`; the planner
    keeps one per call and replays many assignments over it.
    """
    pricing = _Pricing(sites, scale=scale, exact=exact, lazy=fallback_lazy,
                       machines=machines or MACHINES, profile=profile)
    choice = pricing.choice(assignment)
    return _Replay(pricing, len(sites), events).plan(choice, strategy,
                                                      host_seconds)


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------

def candidate_placements(site: ApiCallSite, *,
                         registry: BackendRegistry | None = None,
                         backends: list[str] | None = None,
                         machines: dict | None = None
                         ) -> list[SitePlacement]:
    """All (API, device) pairs able to run this site's category."""
    registry = registry or default_registry()
    machines = machines or MACHINES
    out = []
    for machine in machines.values():
        for api in registry.apis_for(site.category, machine.name, backends):
            out.append(SitePlacement(api, machine))
    if not out:
        scope = "" if backends is None else \
            f" with backends limited to {', '.join(backends)}"
        raise PlacementError(
            f"no (API, device) can run category {site.category!r}{scope}")
    return out


def greedy_assignment(sites: list[ApiCallSite],
                      candidates: dict, *, scale: float = 1.0,
                      lazy: bool = True) -> dict:
    """The seed policy: per site in isolation, best legacy roofline cost
    (with the per-call lazy-transfer division when ``lazy``)."""
    assignment = {}
    for site in sites:
        scaled = site_at_scale(site, scale)
        best, best_cost = None, None
        for placement in candidates[site.call_id]:
            cost = site_cost(scaled, placement.api, placement.machine,
                             lazy_transfers=lazy).total_s
            if best_cost is None or cost < best_cost:
                best, best_cost = placement, cost
        assignment[site.call_id] = best
    return assignment


def _refine(choice: tuple, widths: list, cost, max_passes=4) -> tuple:
    """Coordinate descent: re-place one site at a time until fixpoint.
    ``widths[s]`` is site ``s``'s candidate count; ``cost(choice)`` the
    objective. Returns the best choice found."""
    best = cost(choice)
    for _ in range(max_passes):
        improved = False
        for s, width in enumerate(widths):
            current = choice[s]
            for c in range(width):
                if c == current:
                    continue
                trial = choice[:s] + (c,) + choice[s + 1:]
                total = cost(trial)
                if total < best:
                    best, choice = total, trial
                    current = c
                    improved = True
        if not improved:
            break
    return choice


def plan_module(sites: list[ApiCallSite], events: list, *,
                registry: BackendRegistry | None = None,
                backends: list[str] | None = None,
                machines: dict | None = None,
                strategy: str = "beam",
                host_seconds: float = 0.0,
                scale: float = 1.0,
                greedy_lazy: bool = True,
                beam_width: int = 8,
                exhaustive_limit: int = 4096,
                events_overflowed: bool = False,
                profile=None) -> PlacementPlan:
    """Assign (API, device) to every call site of a module, globally.

    ``sites``/``events`` come from an accelerated execution's
    :class:`~repro.backends.api.ApiRuntime` (``all_sites()`` /
    ``.events``). ``host_seconds`` is the uncovered sequential time added
    to every plan alike; ``scale`` extrapolates dynamic statistics to
    paper-scale problem sizes. ``profile`` substitutes measured
    calibration parameters into every *evaluation* — the greedy seed's
    picks deliberately stay on the static constants, since that is the
    baseline policy under test.

    The returned plan's sites are annotated (``site.placement``) with
    their chosen :class:`SitePlacement`. ``exhaustive`` falls back to the
    beam strategy when the search space exceeds ``exhaustive_limit``;
    the returned plan's ``strategy`` field reports what actually ran.

    One call prices every (site, candidate) pair once and replays the
    event log once per distinct assignment of sites to memories:
    searches compare totals, and only the winner becomes a
    :class:`PlacementPlan`.
    """
    if strategy not in STRATEGIES:
        raise PlacementError(
            f"unknown strategy {strategy!r} (choose from "
            f"{', '.join(STRATEGIES)})")
    machines = machines or MACHINES
    sites = sorted((s for s in sites if s.kind == "call"),
                   key=lambda s: s.call_id)
    if not sites:
        return PlacementPlan(strategy, host_seconds=host_seconds)
    exact = bool(events) and not events_overflowed
    candidates = {
        site.call_id: candidate_placements(site, registry=registry,
                                           backends=backends,
                                           machines=machines)
        for site in sites
    }
    pricing = _Pricing(sites, scale=scale, exact=exact, lazy=greedy_lazy,
                       machines=machines, profile=profile,
                       candidates=[candidates[s.call_id] for s in sites])
    widths = [len(options) for options in pricing.options]
    full = _Replay(pricing, len(sites), events)

    def cost(choice: tuple) -> float:
        return host_seconds + full.offload_s(choice)

    def finish(choice: tuple, label: str) -> PlacementPlan:
        plan = full.plan(choice, label, host_seconds)
        for placed in plan.placed:
            placed.site.placement = placed.placement
        return plan

    greedy = pricing.choice(greedy_assignment(sites, candidates, scale=scale,
                                              lazy=greedy_lazy))
    if strategy == "greedy":
        return finish(greedy, "greedy")

    space = 1
    for width in widths:
        space *= width
        if space > exhaustive_limit:
            break
    if strategy == "exhaustive":
        if space > exhaustive_limit:
            # Too large to enumerate: degrade to beam, and say so in the
            # returned plan's strategy label.
            strategy = "beam"
        else:
            best, best_s = greedy, cost(greedy)
            for combo in itertools.product(*(range(w) for w in widths)):
                total = cost(combo)
                if total < best_s:
                    best, best_s = combo, total
            return finish(best, strategy)

    # Beam search over sites in execution order. Partial assignments are
    # ranked by exact simulation restricted to already-assigned sites,
    # over one replay of the capped log per step (every partial in a step
    # assigns the same sites); the surviving beam plus the greedy seed
    # are fully evaluated, and the winner is polished by coordinate
    # descent — which can only improve, so the result is never worse
    # than per-site greedy.
    rank_events = events[:BEAM_RANK_EVENT_CAP]
    beam: list[tuple] = [()]
    for s, width in enumerate(widths):
        extended = [partial + (c,) for partial in beam for c in range(width)]
        step = _Replay(pricing, s + 1, rank_events)
        extended.sort(key=step.offload_s)
        beam = extended[:beam_width]

    best = min(beam + [greedy], key=cost)
    return finish(_refine(best, widths, cost), strategy)


# ---------------------------------------------------------------------------
# Multi-request (contention-aware) placement
# ---------------------------------------------------------------------------

@dataclass
class PlacementRequest:
    """One tenant's placement problem: a module's sites plus event log.

    ``host_seconds`` is the tenant's uncovered sequential time (charged
    after its last offload event); ``scale`` extrapolates statistics as
    in :func:`plan_module`; ``greedy_lazy`` selects the legacy transfer
    fallback used when the request carries no event log.
    """

    sites: list
    events: list = field(default_factory=list)
    host_seconds: float = 0.0
    scale: float = 1.0
    greedy_lazy: bool = True
    label: str = ""

    def call_sites(self) -> list:
        return sorted((s for s in self.sites if s.kind == "call"),
                      key=lambda s: s.call_id)

    def check(self, *, registry: BackendRegistry | None = None,
              backends: list[str] | None = None,
              machines: dict | None = None) -> None:
        """Raise :class:`~repro.errors.PlacementError` unless
        :func:`plan_concurrent` can place this request: call ids are
        unique, every category has an (API, device), statistics are
        numbers, buffer keys are strings or integers, and ``scale``,
        ``host_seconds``, statistics and byte counts are finite and
        non-negative. A service checks each request on its own before
        planning it jointly, so one tenant's malformed request cannot
        fail the requests batched with it."""
        def amount(value, what: str) -> None:
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)) or \
                    not 0.0 <= value < float("inf"):
                raise PlacementError(
                    f"{what} must be a finite non-negative number, "
                    f"got {value!r}")

        amount(self.scale, "scale")
        amount(self.host_seconds, "host_seconds")
        by_id: dict = {}
        for site in self.call_sites():
            if by_id.setdefault(site.call_id, site) is not site:
                raise PlacementError(f"duplicate call_id {site.call_id}")
            for name, value in site.stats.items():
                amount(value, f"site {site.call_id} stat {name!r}")
        # One site per category is enough to ask the registry.
        for site in {s.category: s for s in by_id.values()}.values():
            candidate_placements(site, registry=registry, backends=backends,
                                 machines=machines)
        for call_id, accesses in self.events:
            for key, nbytes, _ in accesses:
                if isinstance(key, bool) or not isinstance(key, (int, str)):
                    raise PlacementError(
                        f"event of call {call_id}: buffer key must be a "
                        f"string or an integer, got {key!r}")
                amount(nbytes, f"event of call {call_id}: byte count")


@dataclass
class _Step:
    """One schedulable unit of a request: optional link transfers (in
    order) followed by optional compute service on one location."""

    __slots__ = ("transfers", "location", "service_s")

    transfers: list          # [(link_location, seconds), ...]
    location: str | None     # HOST, device name, or None (transfer-only)
    service_s: float


@dataclass
class ConcurrentPlan:
    """A joint assignment for several concurrent requests plus its
    simulated schedule under shared devices and transfer links."""

    strategy: str
    requests: list
    assignments: list        # per request: call_id -> SitePlacement
    completions: list        # per request completion time (seconds)
    wait_s: list             # per request time blocked on busy resources

    @property
    def sum_completion_s(self) -> float:
        return _serial_sum(self.completions)

    @property
    def makespan_s(self) -> float:
        return max(self.completions) if self.completions else 0.0

    def locations(self, index: int) -> dict:
        """call_id -> location for request ``index`` (runtime tracker
        input, same shape as :meth:`PlacementPlan.locations`)."""
        return {cid: p.location
                for cid, p in self.assignments[index].items()}

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "sum_completion_ms": self.sum_completion_s * 1e3,
            "makespan_ms": self.makespan_s * 1e3,
            "requests": [
                {
                    "label": req.label,
                    "completion_ms": self.completions[i] * 1e3,
                    "wait_ms": self.wait_s[i] * 1e3,
                    "sites": {
                        str(cid): p.describe()
                        for cid, p in sorted(self.assignments[i].items())
                    },
                }
                for i, req in enumerate(self.requests)
            ],
        }


class _RequestModel:
    """One request's assignment-independent schedule inputs, built once
    per :func:`plan_concurrent` call, with its step lists cached by
    choice for the call's duration.

    Exact mode replays the residency event log: each dynamic API call
    becomes one step carrying its share of the site's compute+launch and
    the link transfers its accesses force. Without an event log, each
    site becomes one synthetic step whose legacy per-site transfer
    occupies its device link. An epilogue step copies device-only
    buffers back through their links.
    """

    def __init__(self, request: PlacementRequest, machines: dict,
                 profile=None, candidates: list | None = None) -> None:
        sites = request.call_sites()
        self.pricing = _Pricing(sites, scale=request.scale,
                                exact=bool(request.events),
                                lazy=request.greedy_lazy, machines=machines,
                                profile=profile, candidates=candidates)
        events = list(request.events)
        seen = {call_id for call_id, _ in events}
        # Sites absent from the log still execute in the model (their
        # compute comes from accumulated stats); give each a synthetic
        # event so the schedule charges them.
        events.extend((s.call_id, []) for s in sites if s.call_id not in seen)
        n_ev: dict = {}
        for call_id, _ in events:
            n_ev[call_id] = n_ev.get(call_id, 0) + 1
        self.n_ev = [n_ev.get(site.call_id, 0) for site in sites]
        replay = _Replay(self.pricing, len(sites), events)
        self.key_bytes = replay.key_bytes
        #: (site index, first event of its site?, scaled accesses) per
        #: step; without a log, one access-free step per site.
        self.events: list = []
        first: set = set()
        for s, accesses in (replay.events if self.pricing.exact
                            else [(s, ()) for s in range(len(sites))]):
            self.events.append((s, s not in first, accesses))
            first.add(s)
        self._moved: dict = {}
        self._steps: dict = {}

    def steps(self, choice: tuple) -> list:
        """The request's ordered :class:`_Step` list under ``choice``."""
        steps = self._steps.get(choice)
        if steps is None:
            steps = self._steps[choice] = self._build(choice)
        return steps

    def _build(self, choice: tuple) -> list:
        pricing = self.pricing
        if not pricing.sites:
            return []
        locations = tuple(pricing.locations[s][c]
                          for s, c in enumerate(choice))
        moved = self._moved.get(locations)
        if moved is None:
            moved = self._moved[locations] = self._move(locations)
        transfers, epilogue = moved
        steps: list = []
        for (s, first, _), step_transfers in zip(self.events, transfers):
            location = locations[s]
            compute, launch, legacy = pricing.costs[s][choice[s]]
            if first and not pricing.exact and location != HOST:
                step_transfers = step_transfers + [(location, legacy)]
            steps.append(_Step(step_transfers, location,
                               (compute + launch) / self.n_ev[s]))
        if epilogue:
            steps.append(_Step(epilogue, None, 0.0))
        return steps

    def _move(self, locations: tuple) -> tuple:
        """Per-step ``(link, seconds)`` transfer lists and the epilogue's,
        with site ``s`` in memory ``locations[s]``."""
        link_seconds = self.pricing.link_seconds
        state = ResidencyState()
        transfers = []
        for s, _, accesses in self.events:
            location = locations[s]
            step = []
            for key, nbytes, mode in accesses:
                for link, moved in state.access(location, key, nbytes,
                                                mode):
                    step.append((link, link_seconds(link, moved)))
            transfers.append(step)
        epilogue = [(device, link_seconds(device,
                                          self.key_bytes.get(key, 0.0)))
                    for key, device in state.device_only().items()]
        return transfers, epilogue


def _schedule(requests: list, schedules: list) -> tuple[list, list]:
    """Per-request ``(completions, waits)`` of the list-scheduler replay
    described in :func:`evaluate_concurrent`."""
    clocks = [0.0] * len(requests)
    waits = [0.0] * len(requests)
    index = [0] * len(requests)
    device_free: dict = {}
    link_free: dict = {}
    while True:
        ready = [r for r in range(len(requests))
                 if index[r] < len(schedules[r])]
        if not ready:
            break
        r = min(ready, key=lambda i: (clocks[i], i))
        step = schedules[r][index[r]]
        index[r] += 1
        t = clocks[r]
        for link, seconds in step.transfers:
            start = max(t, link_free.get(link, 0.0))
            waits[r] += start - t
            t = start + seconds
            link_free[link] = t
        if step.location is not None and step.service_s > 0.0:
            if step.location == HOST:
                t += step.service_s      # per-tenant host, no sharing
            else:
                start = max(t, device_free.get(step.location, 0.0))
                waits[r] += start - t
                t = start + step.service_s
                device_free[step.location] = t
        clocks[r] = t
    completions = [clocks[r] + requests[r].host_seconds
                   for r in range(len(requests))]
    return completions, waits


def evaluate_concurrent(requests: list, assignments: list, *,
                        machines: dict | None = None,
                        profile=None,
                        strategy: str = "custom") -> ConcurrentPlan:
    """Deterministic list-scheduler replay of concurrent requests.

    Host compute is per-tenant (each request models its own client
    machine), while accelerator devices and their host links are shared:
    a step needing a busy device or link waits for it. Events are
    dispatched in global time order — always the request with the
    smallest local clock, ties broken by request index — so the schedule
    is a pure function of its inputs. Completion of a request is its
    last offload event plus its uncovered ``host_seconds``; the plan
    reports per-request completions, the sum (the objective
    :func:`plan_concurrent` descends on) and the makespan.
    """
    if len(requests) != len(assignments):
        raise PlacementError("one assignment per request required")
    machines = machines or MACHINES
    schedules = []
    for request, assignment in zip(requests, assignments):
        model = _RequestModel(request, machines, profile)
        schedules.append(model.steps(model.pricing.choice(assignment)))
    completions, waits = _schedule(requests, schedules)
    return ConcurrentPlan(strategy, list(requests),
                          [dict(a) for a in assignments],
                          completions, waits)


def plan_concurrent(requests: list, *,
                    registry: BackendRegistry | None = None,
                    backends: list[str] | None = None,
                    machines: dict | None = None,
                    profile=None,
                    independent: list | None = None,
                    max_passes: int = 4) -> ConcurrentPlan:
    """Jointly place every site of every concurrent request.

    Starts from the per-request *independent* optima (each request
    planned alone by :func:`plan_module`, passed in via ``independent``
    or computed here) and from per-request static greedy, evaluates both
    under the shared-resource replay, then runs coordinate descent —
    re-placing one (request, site) at a time against the full joint
    objective (sum of completion times). Descent only ever accepts
    strict improvements, so the result is **never worse than independent
    per-request placement** by construction. Each request's schedule is
    built once per distinct assignment of that request, so a trial
    re-schedules only the request it changed.
    """
    machines = machines or MACHINES
    registry = registry or default_registry()
    if independent is None:
        independent = [
            plan_module(req.call_sites(), req.events, registry=registry,
                        backends=backends, machines=machines,
                        host_seconds=req.host_seconds, scale=req.scale,
                        greedy_lazy=req.greedy_lazy,
                        profile=profile).assignment()
            for req in requests
        ]
    candidates = [
        {site.call_id: candidate_placements(site, registry=registry,
                                            backends=backends,
                                            machines=machines)
         for site in req.call_sites()}
        for req in requests
    ]
    models = [
        _RequestModel(req, machines, profile,
                      [candidates[i][s.call_id] for s in req.call_sites()])
        for i, req in enumerate(requests)
    ]
    widths = [[len(options) for options in model.pricing.options]
              for model in models]
    greedy = [
        greedy_assignment(req.call_sites(), candidates[i],
                          scale=req.scale, lazy=req.greedy_lazy)
        for i, req in enumerate(requests)
    ]

    def joint(choices: list) -> tuple[list, list]:
        return _schedule(requests, [model.steps(choice) for model, choice
                                    in zip(models, choices)])

    start = independent
    choices = [m.pricing.choice(a) for m, a in zip(models, independent)]
    completions, waits = joint(choices)
    greedy_choices = [m.pricing.choice(a) for m, a in zip(models, greedy)]
    greedy_result = joint(greedy_choices)
    if _serial_sum(greedy_result[0]) < _serial_sum(completions):
        start, choices = greedy, greedy_choices
        completions, waits = greedy_result
    best = _serial_sum(completions)
    for _ in range(max_passes):
        improved = False
        for r, row in enumerate(widths):
            for s, width in enumerate(row):
                current = choices[r][s]
                for c in range(width):
                    if c == current:
                        continue
                    trial = list(choices)
                    trial[r] = choices[r][:s] + (c,) + choices[r][s + 1:]
                    result = joint(trial)
                    total = _serial_sum(result[0])
                    if total < best:
                        best, choices = total, trial
                        completions, waits = result
                        current = c
                        improved = True
        if not improved:
            break
    assignments = []
    for model, final, origin in zip(models, choices, start):
        assignment = dict(origin)   # keeps the start's key order
        for s, site in enumerate(model.pricing.sites):
            assignment[site.call_id] = model.pricing.options[s][final[s]]
        assignments.append(assignment)
    return ConcurrentPlan("joint", list(requests), assignments,
                          completions, waits)
