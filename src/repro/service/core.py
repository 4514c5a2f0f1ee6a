"""Detection-as-a-service: the resident, multi-tenant in-process core.

:class:`DetectionService` keeps everything expensive resident across
requests — the warmed :class:`~repro.idioms.IdiomDetector` (compiled
idiom forest, lowered plans), a shared :class:`~repro.cache.ArtifactStore`
under an LRU byte budget (in memory unless ``cache_dir`` puts it on
disk, so a re-submitted function is always served rather than
re-solved) and a parse cache mapping IR-text digests to shared
:class:`~repro.ir.module.Module` objects — then serves concurrent
:meth:`submit` calls from many tenants.

Requests arriving within ``batch_window_s`` of each other are
micro-batched: one batcher thread drains the queues into a batch and
runs it — one
:meth:`~repro.idioms.scheduler.DetectionSession.detect_many` call per
batch, so ten tenants editing the same popular library produce one solve
plus nine structural replays rather than ten solves. One batch runs at a
time; requests that arrive meanwhile wait for the next.

The service is built to survive overload and partial failure, not just
to go fast when healthy:

* **Admission control** — the pending queue is bounded
  (``max_pending``) with per-tenant quotas (``tenant_quota``); a full
  queue or an over-quota tenant gets a typed :class:`ServiceOverloaded`
  carrying a ``retry_after_s`` estimate instead of unbounded queueing.
  The batcher forms a new batch only after the last one finished, so
  backpressure is real: work waits in the quota-governed tenant queues,
  never in a hidden unbounded executor queue.
* **Per-tenant fairness** — batches are drained by weighted round-robin
  over the tenant queues (each pass grants every waiting tenant up to
  its weight in slots), so a tenant submitting 100 modules cannot
  monopolise ``max_batch``. Per-tenant depth, admits, sheds and p95
  latency appear in :meth:`stats`; past :data:`MAX_TENANTS` tenants, idle
  ones are dropped oldest first, so the table stays bounded however
  many tenant names clients invent.
* **Deadline propagation** — :meth:`submit` accepts ``deadline_s``
  (remaining wall-clock budget). Already-expired work is rejected at
  admission with :class:`DeadlineExpired`; work that expires while
  queued fails the same way when its batch starts; the tightest
  remaining budget in a batch is threaded into the session's
  :class:`~repro.reliability.supervisor.RetryPolicy` per-function
  deadline (:meth:`~repro.reliability.supervisor.RetryPolicy.tightened`),
  so a slow solve degrades to a ``timed-out-partial`` outcome instead
  of outliving its callers.
* **Lifecycle** — ``starting → ready → draining → stopped``.
  :meth:`drain` stops admission (new submits get a typed
  :class:`ServiceDraining`) while in-flight and queued batches complete;
  :meth:`health` is the cheap state/queue-depth probe the daemon's
  ``health`` op returns.

Beyond detection, the service also serves **placement**:
:meth:`submit_plan` enqueues a tenant's offload-placement problem (a
:class:`~repro.platform.placement.PlacementRequest`) through the same
admission/fairness/deadline path, and every placement request that lands
in one micro-batch is placed **jointly** by
:func:`~repro.platform.placement.plan_concurrent` under the service's
calibration profile — the batch window is the contention domain, so
co-arriving tenants share the simulated accelerators instead of each
assuming an idle machine.

Fault seams (:mod:`repro.reliability.faults`): ``service.admit`` fires
per submission attempt (key: tenant), ``service.batch`` per formed batch
(key: batch size) — both drive the chaos tests in
``tests/test_service_overload.py``, and the ``seams`` gate of
:mod:`repro.experiments.gates` bounds their idle cost.

The daemon (:mod:`.daemon`) is a thin socket skin over this class; tests
and the benchmarks drive it directly with no networking.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..cache import EVICTION_POLICIES, ArtifactStore
from ..errors import IDLError
from ..idioms import IdiomDetector
from ..idioms.matches import DetectionReport
from ..idioms.scheduler import DetectionSession
from ..ir.module import Module
from ..ir.parser import parse_module
from ..platform.placement import ConcurrentPlan, plan_concurrent
from ..reliability import faults
from .latency import percentile, summarize_latencies

#: Tenant states the service keeps before it drops idle ones (empty
#: queue), oldest first. Every distinct tenant string a client sends
#: would otherwise stay resident, each with its own latency window. A
#: dropped tenant that returns starts fresh, with its configured weight.
MAX_TENANTS = 256


class ServiceError(IDLError):
    """Base of the typed serving-layer failures.

    ``kind`` is the wire discriminator the daemon ships in error
    responses so clients can tell retryable conditions (overloaded,
    draining) from caller errors (deadline, bad request) without
    string-matching; ``retry_after_s``, when set, is the service's
    estimate of when capacity returns."""

    kind = "internal"

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceOverloaded(ServiceError):
    """Admission shed the request: pending queue full or tenant over
    quota. Retry after ``retry_after_s``."""

    kind = "overloaded"


class ServiceDraining(ServiceError):
    """The service no longer admits work (draining or stopped); finish
    or reconnect elsewhere (e.g. the restarted daemon)."""

    kind = "draining"


class DeadlineExpired(ServiceError):
    """The request's wall-clock budget lapsed before (or while) it could
    be served. Not retryable — the caller's deadline has passed."""

    kind = "deadline"


@dataclass
class ServiceConfig:
    """Every knob of a resident detection service, in one place.

    ``deadline_s`` is each batch's per-function solve deadline;
    ``cache_dir``/``budget_bytes``/
    ``eviction``/``durable`` the shared artifact store (``cache_dir=None``
    keeps it in memory, capped at
    :data:`~repro.cache.store.DEFAULT_MEMORY_BUDGET_BYTES` unless
    ``budget_bytes`` says otherwise);
    ``batch_window_s``/``max_batch`` the micro-batcher;
    ``max_pending``/``tenant_quota``/``tenant_weights`` admission and
    fairness.
    """

    cache_dir: str | None = None
    budget_bytes: int | None = None
    eviction: str = "lru"
    durable: bool = False
    #: How long the batcher waits for co-travellers after the first
    #: request of a batch arrives. A couple of milliseconds is enough to
    #: capture concurrent tenants without a visible latency tax.
    batch_window_s: float = 0.002
    max_batch: int = 32
    deadline_s: float | None = None
    #: Distinct module texts kept parsed in memory (LRU).
    parse_cache_entries: int = 64
    #: Most recent per-request latencies retained for the stats endpoint.
    latency_window: int = 2048
    #: Admission bound across all tenants: submits past it shed with a
    #: typed :class:`ServiceOverloaded` instead of queueing unboundedly.
    max_pending: int = 1024
    #: Per-tenant pending bound; ``None`` derives ``max_pending // 4``
    #: so one flooding tenant can never fill the whole queue.
    tenant_quota: int | None = None
    #: Round-robin weights (slots granted per drain pass) for known
    #: tenants; everyone else gets ``default_weight``.
    tenant_weights: dict = field(default_factory=dict)
    default_weight: int = 1
    #: Calibration profile
    #: (:class:`~repro.platform.calibrate.CalibrationProfile`) used to
    #: cost joint placement batches; None keeps the static constants.
    profile: object | None = None

    def __post_init__(self):
        if self.eviction not in EVICTION_POLICIES:
            raise IDLError(f"unknown eviction policy {self.eviction!r}")
        if self.max_batch < 1:
            raise IDLError("max_batch must be >= 1")
        if self.max_pending < 1:
            raise IDLError("max_pending must be >= 1")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise IDLError("tenant_quota must be >= 1 (or None)")
        if self.default_weight < 1 or any(
                w < 1 for w in self.tenant_weights.values()):
            raise IDLError("tenant weights must be >= 1")

    @property
    def effective_tenant_quota(self) -> int:
        if self.tenant_quota is not None:
            return min(self.tenant_quota, self.max_pending)
        return max(1, self.max_pending // 4)


@dataclass
class ServiceResult:
    """One request's answer: the report, the (shared) parsed module it
    references, which tenant asked, and the request's wall-clock from
    submit to report (queueing + batching window included)."""

    report: DetectionReport
    module: Module
    tenant: str
    latency_s: float


@dataclass
class PlanResult:
    """One placement request's answer: the **joint** plan over every
    placement request co-batched with it, plus this tenant's index into
    that plan. Two tenants whose requests shared a batch see the same
    ``plan`` object with different indices."""

    plan: ConcurrentPlan
    index: int
    tenant: str
    latency_s: float

    @property
    def assignment(self) -> dict:
        """call_id -> SitePlacement for this tenant's request."""
        return self.plan.assignments[self.index]

    @property
    def completion_s(self) -> float:
        return self.plan.completions[self.index]

    def locations(self) -> dict:
        """call_id -> location, the runtime tracker's input."""
        return self.plan.locations(self.index)


class _Request:
    __slots__ = ("module", "tenant", "future", "t_submit", "deadline_at",
                 "kind", "payload")

    def __init__(self, module, tenant, deadline_s=None, kind="detect",
                 payload=None):
        self.module = module
        self.tenant = tenant
        self.future: Future = Future()
        self.t_submit = time.perf_counter()
        #: Absolute monotonic expiry, set at admission from the remaining
        #: budget the client sent.
        self.deadline_at = (None if deadline_s is None
                            else time.monotonic() + deadline_s)
        #: "detect" (module solve) or "plan" (joint placement); plan
        #: requests carry their PlacementRequest in ``payload``.
        self.kind = kind
        self.payload = payload


class _TenantState:
    """One tenant's queue plus its fairness/telemetry counters, all
    guarded by the service lock."""

    __slots__ = ("queue", "weight", "admits", "sheds", "expired",
                 "completed", "latencies")

    def __init__(self, weight: int, latency_window: int = 512):
        self.queue: deque[_Request] = deque()
        self.weight = weight
        self.admits = 0
        self.sheds = 0
        self.expired = 0
        self.completed = 0
        self.latencies: deque[float] = deque(maxlen=latency_window)

    def as_dict(self) -> dict:
        return {
            "pending": len(self.queue),
            "weight": self.weight,
            "admits": self.admits,
            "sheds": self.sheds,
            "expired": self.expired,
            "completed": self.completed,
            "p95_latency_s": round(percentile(self.latencies, 95), 6),
        }


class DetectionService:
    """The resident multi-tenant detection facade (see module docstring).

    Thread-safe; :meth:`submit` may be called from any number of tenant
    threads. Use as a context manager or call :meth:`close`."""

    def __init__(self, config: ServiceConfig | None = None,
                 store: ArtifactStore | None = None):
        self.config = config or ServiceConfig()
        if store is None:
            store = ArtifactStore(self.config.cache_dir,
                                  durable=self.config.durable,
                                  budget_bytes=self.config.budget_bytes,
                                  eviction=self.config.eviction)
        self.store = store
        self.detector = IdiomDetector(cache=store)
        self.warmup_s = 0.0
        #: One lock guards every counter, the tenant queues and the parse
        #: cache; the batcher's condition shares it, so a stats snapshot
        #: can never observe a torn (mid-batch) counter update.
        self._lock = threading.Lock()
        self._queue_cond = threading.Condition(self._lock)
        self._tenants: dict[str, _TenantState] = {}
        self._tenant_order: list[str] = []
        self._rr_next = 0
        self._pending = 0
        #: 1 while the batcher runs a batch (drain waits on it).
        self._inflight = 0
        self._parse_cache: OrderedDict[str, Module] = OrderedDict()
        self._latencies = deque(maxlen=self.config.latency_window)
        self._batcher: threading.Thread | None = None
        self._started = False
        self._draining = False
        self._closed = False
        self._t_start = time.monotonic()
        #: EWMA of per-request batch service time, feeding retry_after
        #: estimates (under self._lock).
        self._ewma_request_s: float | None = None
        # Aggregate counters (under self._lock).
        self._requests = 0
        self._batches = 0
        self._sheds = 0
        self._expired = 0
        self._module_dedupe_hits = 0
        self._functions_requested = 0
        self._store_hits = 0
        self._solved_functions = 0
        self._batch_dedupe_hits = 0
        self._errors = 0
        self._parse_hits = 0
        self._parse_misses = 0
        self._plan_requests = 0
        self._plan_batches = 0

    # -- lifecycle ----------------------------------------------------------------
    @property
    def state(self) -> str:
        """``starting`` | ``ready`` | ``draining`` | ``stopped``."""
        if self._closed:
            return "stopped"
        if self._draining:
            return "draining"
        if self._started:
            return "ready"
        return "starting"

    def start(self) -> "DetectionService":
        """Warm the detector (compile the idiom forest) and start the
        batcher thread. Idempotent; :meth:`submit` calls it
        on first use, but a daemon should call it eagerly so the first
        request pays no compile cost."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise ServiceDraining("service is closed")
            self._started = True
        t0 = time.perf_counter()
        self.detector.warmup()
        self.warmup_s = time.perf_counter() - t0
        self._batcher = threading.Thread(target=self._batch_loop,
                                         name="repro-service-batcher",
                                         daemon=True)
        self._batcher.start()
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting work and wait for queued + in-flight batches.

        New submits fail with :class:`ServiceDraining` from the moment
        this is called; queued and in-flight requests complete normally.
        Returns True once the service is empty, False if ``timeout``
        lapsed first (draining stays in effect either way)."""
        with self._queue_cond:
            self._draining = True
            self._queue_cond.notify_all()
            if not self._started or self._closed:
                return True
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            while self._pending or self._inflight:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._queue_cond.wait(timeout=remaining)
            return True

    def close(self):
        """Drain queued requests and stop the batcher thread.
        Idempotent. Requests submitted after close are refused."""
        with self._queue_cond:
            if self._closed:
                return
            self._draining = True
            self._closed = True
            self._queue_cond.notify_all()
        if self._batcher is not None:
            self._batcher.join(timeout=60.0)

    def __enter__(self) -> "DetectionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ---------------------------------------------------------------
    def submit(self, source, tenant: str = "default",
               deadline_s: float | None = None) -> Future:
        """Enqueue one detection request; returns a future resolving to
        a :class:`ServiceResult`. ``source`` is module IR text (parsed
        once per distinct text, shared across tenants) or an
        already-parsed :class:`~repro.ir.module.Module`. ``deadline_s``
        is the request's remaining wall-clock budget: expired work is
        rejected here (:class:`DeadlineExpired`), queued work that
        outlives it fails the same way, and the surviving budget bounds
        the solve itself."""
        if not self._started:
            self.start()
        tenant = str(tenant)
        if deadline_s is not None and deadline_s <= 0:
            raise DeadlineExpired(
                f"request from tenant {tenant!r} arrived with an "
                f"already-expired deadline ({deadline_s:.4g}s)")
        # Shed before parsing: an over-capacity service must refuse work
        # without paying parse cost for it.
        with self._lock:
            self._check_admission_locked(tenant)
        module = self._resolve_module(source)
        faults.maybe_fire("service.admit", tenant)
        request = _Request(module, tenant, deadline_s)
        with self._queue_cond:
            # Re-check: capacity may have filled while we parsed.
            self._check_admission_locked(tenant)
            state = self._tenant_locked(tenant)
            self._requests += 1
            state.admits += 1
            state.queue.append(request)
            self._pending += 1
            self._queue_cond.notify_all()
        return request.future

    def detect(self, source, tenant: str = "default",
               timeout: float | None = None,
               deadline_s: float | None = None) -> ServiceResult:
        """Synchronous convenience: submit and wait."""
        return self.submit(source, tenant=tenant,
                           deadline_s=deadline_s).result(timeout=timeout)

    def submit_plan(self, request, tenant: str = "default",
                    deadline_s: float | None = None) -> Future:
        """Enqueue one offload-placement request
        (:class:`~repro.platform.placement.PlacementRequest`); returns a
        future resolving to a :class:`PlanResult`.

        Placement requests ride the same admission control, per-tenant
        fairness and deadline propagation as detection. Every placement
        request drained into one micro-batch is placed **jointly** —
        the batch window is the contention domain — so concurrent
        tenants are costed against shared accelerators and links rather
        than each assuming the machine to itself."""
        if not self._started:
            self.start()
        tenant = str(tenant)
        if deadline_s is not None and deadline_s <= 0:
            raise DeadlineExpired(
                f"placement request from tenant {tenant!r} arrived with "
                f"an already-expired deadline ({deadline_s:.4g}s)")
        faults.maybe_fire("service.admit", tenant)
        pending = _Request(None, tenant, deadline_s, kind="plan",
                           payload=request)
        with self._queue_cond:
            self._check_admission_locked(tenant)
            state = self._tenant_locked(tenant)
            self._requests += 1
            state.admits += 1
            state.queue.append(pending)
            self._pending += 1
            self._queue_cond.notify_all()
        return pending.future

    def plan(self, request, tenant: str = "default",
             timeout: float | None = None,
             deadline_s: float | None = None) -> PlanResult:
        """Synchronous convenience: submit a placement request and wait."""
        return self.submit_plan(request, tenant=tenant,
                                deadline_s=deadline_s).result(
                                    timeout=timeout)

    def health(self) -> dict:
        """The cheap liveness/lifecycle probe: state, queue depths,
        admission bounds. The daemon's ``health`` op returns this."""
        with self._lock:
            return {
                "state": self.state,
                "pending": self._pending,
                "inflight_batches": self._inflight,
                "max_pending": self.config.max_pending,
                "tenant_quota": self.config.effective_tenant_quota,
                "tenants": {name: len(state.queue)
                            for name, state in self._tenants.items()},
            }

    def stats(self) -> dict:
        """The service's counters, latency summary and store telemetry —
        the daemon's ``stats`` op returns exactly this. Every counter is
        read under the batcher's own lock, so the snapshot is coherent
        even mid-batch."""
        with self._lock:
            served = (self._store_hits + self._batch_dedupe_hits +
                      self._module_dedupe_hits)
            total = self._functions_requested
            payload = {
                "uptime_s": time.monotonic() - self._t_start,
                "warmup_s": self.warmup_s,
                "state": self.state,
                "requests": self._requests,
                "batches": self._batches,
                "errors": self._errors,
                "sheds": self._sheds,
                "expired": self._expired,
                "pending": self._pending,
                "inflight_batches": self._inflight,
                "max_pending": self.config.max_pending,
                "tenant_quota": self.config.effective_tenant_quota,
                "functions_requested": total,
                "solved_functions": self._solved_functions,
                "store_hits": self._store_hits,
                "batch_dedupe_hits": self._batch_dedupe_hits,
                "module_dedupe_hits": self._module_dedupe_hits,
                "dedupe_ratio": served / total if total else 0.0,
                "plan_requests": self._plan_requests,
                "plan_batches": self._plan_batches,
                "parse_cache": {"hits": self._parse_hits,
                                "misses": self._parse_misses,
                                "entries": len(self._parse_cache)},
                "latency": summarize_latencies(self._latencies),
                "tenants": {name: state.as_dict()
                            for name, state in self._tenants.items()},
            }
        payload["store"] = self.store.describe()
        return payload

    # -- admission ----------------------------------------------------------------
    def _tenant_locked(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            weight = self.config.tenant_weights.get(
                tenant, self.config.default_weight)
            self._trim_tenants_locked(MAX_TENANTS - 1)
            state = self._tenants[tenant] = _TenantState(weight)
            self._tenant_order.append(tenant)
        return state

    def _trim_tenants_locked(self, limit: int) -> None:
        """Drop idle tenants, oldest first, until at most ``limit``
        remain (tenants with queued work are never dropped). The
        round-robin origin keeps pointing at the same tenant."""
        order = self._tenant_order
        excess = len(order) - limit
        if excess <= 0:
            return
        kept: list[str] = []
        rr_next = self._rr_next
        for position, name in enumerate(order):
            if excess and not self._tenants[name].queue:
                del self._tenants[name]
                excess -= 1
                if position < self._rr_next:
                    rr_next -= 1
            else:
                kept.append(name)
        self._tenant_order = kept
        self._rr_next = rr_next

    def _check_admission_locked(self, tenant: str) -> None:
        """Raise the typed admission failure for this submit, if any."""
        if self._closed or self._draining:
            raise ServiceDraining(
                f"service is {'closed' if self._closed else 'draining'}; "
                f"not admitting new work",
                retry_after_s=self._retry_after_locked())
        if self._pending >= self.config.max_pending:
            self._sheds += 1
            self._tenant_locked(tenant).sheds += 1
            raise ServiceOverloaded(
                f"pending queue full "
                f"({self._pending}/{self.config.max_pending})",
                retry_after_s=self._retry_after_locked())
        state = self._tenant_locked(tenant)
        quota = self.config.effective_tenant_quota
        if len(state.queue) >= quota:
            self._sheds += 1
            state.sheds += 1
            raise ServiceOverloaded(
                f"tenant {tenant!r} over quota "
                f"({len(state.queue)}/{quota} pending)",
                retry_after_s=self._retry_after_locked())

    def _retry_after_locked(self) -> float:
        """When to come back: the current backlog, ``max_batch`` requests
        per batch, at the recently observed per-request service rate."""
        per = self._ewma_request_s
        if per is None:
            per = max(self.config.batch_window_s, 0.002) * 2
        waves = 1 + self._pending // self.config.max_batch
        return round(min(5.0, max(0.01, per * waves)), 4)

    # -- internals ----------------------------------------------------------------
    def _resolve_module(self, source) -> Module:
        if isinstance(source, Module):
            return source
        if not isinstance(source, str):
            raise IDLError(
                f"submit() takes IR text or a Module, "
                f"got {type(source).__name__}")
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        with self._lock:
            module = self._parse_cache.get(digest)
            if module is not None:
                self._parse_cache.move_to_end(digest)
                self._parse_hits += 1
                return module
            self._parse_misses += 1
        # Parse outside the lock (two threads may race to parse the same
        # new text; the loser's parse is discarded — harmless, and it
        # keeps parse time off the submit critical section).
        module = parse_module(source, name=f"m-{digest[:12]}")
        with self._lock:
            module = self._parse_cache.setdefault(digest, module)
            self._parse_cache.move_to_end(digest)
            while len(self._parse_cache) > self.config.parse_cache_entries:
                self._parse_cache.popitem(last=False)
        return module

    def _next_batch_locked(self, limit: int) -> list[_Request]:
        """Weighted round-robin drain across the tenant queues.

        Each pass grants every tenant with pending work up to ``weight``
        slots; passes repeat until the batch fills or the queues empty.
        The pass origin rotates per batch, so no tenant is structurally
        first. A flooding tenant therefore gets at most its weighted
        share of every batch while anyone else is waiting."""
        batch: list[_Request] = []
        order = self._tenant_order
        if not order:
            return batch
        start = self._rr_next % len(order)
        while len(batch) < limit:
            progressed = False
            for k in range(len(order)):
                state = self._tenants[order[(start + k) % len(order)]]
                quantum = state.weight
                while quantum and state.queue and len(batch) < limit:
                    batch.append(state.queue.popleft())
                    self._pending -= 1
                    quantum -= 1
                    progressed = True
            if not progressed:
                break
        self._rr_next = (start + 1) % len(order)
        self._trim_tenants_locked(MAX_TENANTS)
        return batch

    def _batch_loop(self):
        config = self.config
        while True:
            with self._queue_cond:
                while not self._pending:
                    if self._closed:
                        return
                    self._queue_cond.wait()
                # Micro-batch window: the first request opens it; wait
                # for co-travellers until it lapses or the batch fills.
                deadline = time.monotonic() + config.batch_window_s
                while self._pending < config.max_batch:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._queue_cond.wait(timeout=remaining)
                batch = self._next_batch_locked(config.max_batch)
                self._batches += 1
                self._inflight = 1
            # Backpressure: the next batch forms only after this one, so
            # excess load waits in the bounded tenant queues where
            # admission control sees it.
            self._run_batch(batch)

    def _expire_locked(self, expired: list[_Request]) -> None:
        self._expired += len(expired)
        for request in expired:
            state = self._tenants.get(request.tenant)
            if state is not None:
                state.expired += 1

    def _serve_plans(self, batch: list[_Request]) -> None:
        """Jointly place every placement request in this micro-batch.

        The whole subset is one :func:`plan_concurrent` call — tenants
        that arrived within the batch window contend for the simulated
        accelerators, so each tenant's answer already accounts for its
        co-travellers. Failures resolve each future with the typed
        exception; detection requests in the same batch are unaffected.
        """
        try:
            plan = plan_concurrent([r.payload for r in batch],
                                   profile=self.config.profile)
            now = time.perf_counter()
            with self._lock:
                self._plan_requests += len(batch)
                self._plan_batches += 1
                for request in batch:
                    latency = now - request.t_submit
                    self._latencies.append(latency)
                    state = self._tenants.get(request.tenant)
                    if state is not None:
                        state.completed += 1
                        state.latencies.append(latency)
            for i, request in enumerate(batch):
                request.future.set_result(PlanResult(
                    plan, i, request.tenant, now - request.t_submit))
        except BaseException as exc:
            with self._lock:
                self._errors += sum(
                    1 for r in batch if not r.future.done())
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _run_batch(self, batch: list[_Request]):
        t_batch = time.perf_counter()
        size = len(batch)
        try:
            faults.maybe_fire("service.batch", str(size))
            # Deadline propagation, step 1: work whose budget lapsed in
            # the queue gets a typed failure, not a stale solve.
            now_mono = time.monotonic()
            live: list[_Request] = []
            expired: list[_Request] = []
            for request in batch:
                if request.deadline_at is not None and \
                        now_mono > request.deadline_at:
                    expired.append(request)
                else:
                    live.append(request)
            if expired:
                with self._lock:
                    self._expire_locked(expired)
                for request in expired:
                    request.future.set_exception(DeadlineExpired(
                        f"deadline expired after "
                        f"{time.perf_counter() - request.t_submit:.3f}s "
                        f"in the service queue"))
            batch = live
            if not batch:
                return
            # Placement requests co-batched here form one joint
            # contention domain; detection continues below on the rest.
            plan_batch = [r for r in batch if r.kind == "plan"]
            batch = [r for r in batch if r.kind == "detect"]
            if plan_batch:
                self._serve_plans(plan_batch)
            if not batch:
                return
            # Step 2: the tightest surviving budget bounds the solve via
            # the session's per-function deadline.
            budget = None
            for request in batch:
                if request.deadline_at is not None:
                    remaining = request.deadline_at - now_mono
                    budget = (remaining if budget is None
                              else min(budget, remaining))
            unique: list[Module] = []
            index_of: dict[int, int] = {}
            for request in batch:
                if id(request.module) not in index_of:
                    index_of[id(request.module)] = len(unique)
                    unique.append(request.module)
            session = DetectionSession(self.detector,
                                       deadline_s=self.config.deadline_s)
            if budget is not None:
                session.policy = session.policy.tightened(budget)
            reports = session.detect_many(unique)
            now = time.perf_counter()
            per_module_functions = [
                sum(1 for f in module.functions.values()
                    if not f.is_declaration())
                for module in unique]
            with self._lock:
                self._store_hits += session.cache_hits
                self._solved_functions += session.solved_functions
                self._batch_dedupe_hits += session.dedupe_hits
                for request in batch:
                    fcount = per_module_functions[
                        index_of[id(request.module)]]
                    self._functions_requested += fcount
                self._module_dedupe_hits += sum(
                    per_module_functions[index_of[id(r.module)]]
                    for r in batch) - sum(per_module_functions)
                for request in batch:
                    latency = now - request.t_submit
                    self._latencies.append(latency)
                    state = self._tenants.get(request.tenant)
                    if state is not None:
                        state.completed += 1
                        state.latencies.append(latency)
            for request in batch:
                request.future.set_result(ServiceResult(
                    reports[index_of[id(request.module)]],
                    request.module, request.tenant,
                    now - request.t_submit))
        except BaseException as exc:
            with self._lock:
                self._errors += sum(1 for r in batch if not r.future.done())
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        finally:
            with self._queue_cond:
                self._inflight = 0
                per = (time.perf_counter() - t_batch) / max(1, size)
                self._ewma_request_s = (
                    per if self._ewma_request_s is None
                    else 0.7 * self._ewma_request_s + 0.3 * per)
                self._queue_cond.notify_all()
