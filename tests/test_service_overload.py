"""Tests for the service's overload-safety layer: admission control and
typed sheds, per-tenant weighted-round-robin fairness, deadline
propagation, the ``starting → ready → draining → stopped`` lifecycle,
structured daemon error kinds, and the self-healing client."""

import socket as socket_module
import threading
import time

import pytest

from repro.errors import IDLError, InjectedFault, IRError, ParseError
from repro.frontend import compile_c
from repro.idioms import detect_idioms
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.passes import optimize
from repro.reliability import faults
from repro.reliability.faults import FaultPlan
from repro.reliability.supervisor import RetryPolicy
from repro.service import (
    DeadlineExpired,
    DetectionDaemon,
    DetectionService,
    ServiceClient,
    ServiceConfig,
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
    encode_error,
    error_from_response,
    report_wire_fingerprint,
)
from repro.service.core import MAX_TENANTS, _Request

SRC = """
double dot(double* a, double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s = s + a[i] * b[i]; }
  return s;
}
"""


def module_text(src=SRC, name="t"):
    module = compile_c(src, name)
    optimize(module)
    return print_module(module)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.install_plan(None)
    yield
    faults.install_plan(None)


#: A plan that hangs every batch briefly — the deterministic way to
#: build a backlog no matter how fast the solver is on this machine.
def slow_batches(seconds=0.05, count=64):
    return FaultPlan([{"site": "service.batch", "kind": "hang",
                       "seconds": seconds, "at": tuple(range(count))}])


# ---------------------------------------------------------------------------
# RetryPolicy.tightened — the deadline-propagation primitive
# ---------------------------------------------------------------------------

class TestTightened:
    def test_none_budget_is_identity(self):
        policy = RetryPolicy(deadline_s=2.0)
        assert policy.tightened(None) is policy

    def test_budget_tightens_an_unbounded_policy(self):
        assert RetryPolicy().tightened(0.5).deadline_s == 0.5

    def test_budget_tightens_a_looser_deadline(self):
        assert RetryPolicy(deadline_s=10.0).tightened(0.5).deadline_s == 0.5

    def test_tighter_existing_deadline_wins(self):
        policy = RetryPolicy(deadline_s=0.1)
        assert policy.tightened(5.0) is policy

    def test_non_positive_budget_clamps_near_zero(self):
        tightened = RetryPolicy().tightened(-3.0)
        assert 0 < tightened.deadline_s <= 1e-6


# ---------------------------------------------------------------------------
# Admission control: bounded queue, quotas, typed sheds
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_full_queue_sheds_typed_with_retry_after(self):
        text = module_text()
        faults.install_plan(slow_batches())
        config = ServiceConfig(max_pending=2, tenant_quota=2,
                               batch_window_s=0.02, max_batch=1)
        sheds = []
        futures = []
        with DetectionService(config) as service:
            for _ in range(10):
                try:
                    futures.append(service.submit(text, tenant="flood"))
                except ServiceOverloaded as exc:
                    sheds.append(exc)
            for future in futures:
                future.result(timeout=60.0)
            stats = service.stats()
        assert sheds, "bounded queue never shed"
        assert all(exc.kind == "overloaded" for exc in sheds)
        assert all(exc.retry_after_s > 0 for exc in sheds)
        assert stats["sheds"] == len(sheds)
        assert stats["tenants"]["flood"]["sheds"] == len(sheds)

    def test_tenant_quota_protects_other_tenants(self):
        text = module_text()
        faults.install_plan(slow_batches())
        config = ServiceConfig(max_pending=16, tenant_quota=2,
                               batch_window_s=0.02, max_batch=1)
        with DetectionService(config) as service:
            futures, shed = [], None
            for _ in range(6):
                try:
                    futures.append(service.submit(text, tenant="hog"))
                except ServiceOverloaded as exc:
                    shed = exc
            assert shed is not None and "quota" in str(shed)
            # The hog is capped, so the shared queue has room for
            # everyone else even while the hog's flood continues.
            polite = service.submit(text, tenant="polite")
            polite.result(timeout=60.0)
            for future in futures:
                future.result(timeout=60.0)

    def test_admit_fault_does_not_poison_the_service(self):
        text = module_text()
        faults.install_plan(FaultPlan([
            {"site": "service.admit", "kind": "exception", "at": (0,)}]))
        with DetectionService(ServiceConfig()) as service:
            with pytest.raises(InjectedFault):
                service.submit(text)
            service.detect(text, timeout=60.0)  # healthy afterwards

    def test_shed_is_an_idl_error(self):
        # Typed service errors must stay inside the repo's exception
        # taxonomy so pre-existing callers' except clauses still work.
        assert issubclass(ServiceOverloaded, IDLError)
        assert issubclass(ServiceDraining, ServiceError)
        assert issubclass(DeadlineExpired, ServiceError)


# ---------------------------------------------------------------------------
# Fairness: weighted round-robin batch formation
# ---------------------------------------------------------------------------

def _loaded_service(pending: dict, weights=None) -> DetectionService:
    """A never-started service with hand-loaded tenant queues, for
    white-box batch-formation tests (no solving involved)."""
    service = DetectionService(ServiceConfig(
        tenant_weights=weights or {}))
    with service._lock:
        for tenant, count in pending.items():
            state = service._tenant_locked(tenant)
            for _ in range(count):
                state.queue.append(_Request(None, tenant))
                service._pending += 1
    return service


class TestFairBatching:
    def counts(self, batch):
        out = {}
        for request in batch:
            out[request.tenant] = out.get(request.tenant, 0) + 1
        return out

    def test_flooder_cannot_monopolise_a_batch(self):
        service = _loaded_service({"flood": 10, "b": 3, "c": 3})
        with service._lock:
            batch = service._next_batch_locked(8)
        assert self.counts(batch) == {"flood": 3, "b": 3, "c": 2}

    def test_weights_grant_proportional_slots(self):
        service = _loaded_service({"big": 10, "small": 10},
                                  weights={"big": 3})
        with service._lock:
            batch = service._next_batch_locked(8)
        assert self.counts(batch) == {"big": 6, "small": 2}

    def test_rotation_moves_the_leftover_slot_around(self):
        # With 3 equal tenants and batches of 4, the odd slot must not
        # always land on the same (structurally first) tenant.
        service = _loaded_service({"a": 20, "b": 20, "c": 20})
        leftovers = set()
        for _ in range(3):
            with service._lock:
                batch = service._next_batch_locked(4)
            counts = self.counts(batch)
            leftovers.add(max(counts, key=counts.get))
        assert len(leftovers) > 1

    def test_drains_fully_when_under_capacity(self):
        service = _loaded_service({"a": 2, "b": 1})
        with service._lock:
            batch = service._next_batch_locked(32)
        assert len(batch) == 3
        assert service._pending == 0

    def test_tenant_table_stays_bounded(self):
        """Distinct tenant names past MAX_TENANTS do not accumulate:
        idle tenants are dropped oldest first, service-wide counters
        keep their totals, and a dropped weighted tenant returns with
        its configured weight."""
        text = module_text()
        flood = 4 * MAX_TENANTS
        config = ServiceConfig(tenant_weights={"vip": 3},
                               max_pending=flood + 1)
        with DetectionService(config) as service:
            service.detect(text, tenant="vip")
            futures = [service.submit(text, tenant=f"t{i}")
                       for i in range(flood)]
            for future in futures:
                future.result(timeout=60)
            stats = service.stats()
            assert len(stats["tenants"]) <= MAX_TENANTS
            assert sorted(service._tenant_order) == \
                sorted(stats["tenants"])
            assert "vip" not in stats["tenants"]  # oldest idle: dropped
            assert stats["requests"] == flood + 1
            assert stats["errors"] == 0 and stats["sheds"] == 0
            service.detect(text, tenant="vip")
            vip = service.stats()["tenants"]["vip"]
        assert vip["weight"] == 3
        assert vip["admits"] == 1 and vip["completed"] == 1


# ---------------------------------------------------------------------------
# Deadlines: admission, queue expiry, solver budget
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_already_expired_rejected_at_admission(self):
        with DetectionService(ServiceConfig()) as service:
            with pytest.raises(DeadlineExpired):
                service.submit(module_text(), deadline_s=0.0)
            with pytest.raises(DeadlineExpired):
                service.submit(module_text(), deadline_s=-5.0)
            assert service.stats()["requests"] == 0

    def test_queue_expiry_is_typed_and_counted(self):
        text = module_text()
        faults.install_plan(FaultPlan([
            {"site": "service.batch", "kind": "hang", "seconds": 0.12,
             "at": (0,)}]))
        config = ServiceConfig(batch_window_s=0.005)
        with DetectionService(config) as service:
            doomed = service.submit(text, tenant="late", deadline_s=0.05)
            control = service.submit(text, tenant="ok")
            with pytest.raises(DeadlineExpired):
                doomed.result(timeout=60.0)
            control.result(timeout=60.0)
            stats = service.stats()
        assert stats["expired"] == 1
        assert stats["tenants"]["late"]["expired"] == 1
        assert stats["tenants"]["ok"]["expired"] == 0

    def test_config_deadline_degrades_to_partial_not_hang(self):
        # An already-expired per-function solve deadline must produce a
        # timed-out-partial outcome through the session, never an
        # exception or a stuck future. CG's driver loop solves for
        # >4096 ticks, enough for the sampled wall clock to notice
        # (same workload the reliability suite uses).
        from repro.workloads import all_workloads

        workload = next(w for w in all_workloads() if w.name == "CG")
        text = module_text(workload.source, workload.name)
        config = ServiceConfig(deadline_s=0.0)
        with DetectionService(config) as service:
            result = service.detect(text, timeout=120.0)
        outcomes = result.report.outcomes.counts()
        assert outcomes.get("timed-out-partial", 0) >= 1

    def test_generous_budget_does_not_change_the_answer(self):
        text = module_text()
        with DetectionService(ServiceConfig()) as service:
            bounded = service.detect(text, deadline_s=60.0, timeout=60.0)
            unbounded = service.detect(text, timeout=60.0)
        assert (report_wire_fingerprint(bounded.report)
                == report_wire_fingerprint(unbounded.report))


# ---------------------------------------------------------------------------
# Lifecycle: starting → ready → draining → stopped
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_states_progress(self):
        service = DetectionService(ServiceConfig())
        assert service.state == "starting"
        service.start()
        assert service.state == "ready"
        assert service.drain() is True
        assert service.state == "draining"
        service.close()
        assert service.state == "stopped"

    def test_drain_refuses_new_work_typed(self):
        with DetectionService(ServiceConfig()) as service:
            service.drain()
            with pytest.raises(ServiceDraining):
                service.submit(module_text())
            assert service.stats()["state"] == "draining"

    def test_drain_waits_for_queued_work(self):
        text = module_text()
        faults.install_plan(slow_batches(seconds=0.1, count=4))
        config = ServiceConfig(batch_window_s=0.02, max_batch=1)
        with DetectionService(config) as service:
            futures = [service.submit(text) for _ in range(3)]
            assert service.drain(timeout=0.01) is False  # backlog remains
            assert service.state == "draining"
            assert service.drain(timeout=60.0) is True
            for future in futures:  # drained work completed, not dropped
                future.result(timeout=1.0)

    def test_health_reports_state_and_depths(self):
        with DetectionService(ServiceConfig()) as service:
            service.detect(module_text(), tenant="probe", timeout=60.0)
            health = service.health()
        assert health["state"] == "ready"
        assert health["pending"] == 0
        assert health["max_pending"] == service.config.max_pending
        assert "probe" in health["tenants"]


# ---------------------------------------------------------------------------
# Wire error envelope: kinds survive the round trip
# ---------------------------------------------------------------------------

class TestErrorEnvelope:
    def test_typed_service_errors_keep_kind_and_retry_after(self):
        response = encode_error(ServiceOverloaded("full",
                                                  retry_after_s=0.25))
        assert response["ok"] is False
        assert response["kind"] == "overloaded"
        assert response["retry_after_s"] == 0.25
        rebuilt = error_from_response(response)
        assert isinstance(rebuilt, ServiceOverloaded)
        assert rebuilt.retry_after_s == 0.25

    def test_caller_errors_are_bad_request(self):
        assert encode_error(IDLError("nope"))["kind"] == "bad-request"
        assert encode_error(ValueError("nope"))["kind"] == "bad-request"

    def test_hostile_nesting_is_bad_request(self):
        """Over-deep C expressions and IR types fail with typed errors
        the caller can fix, not as internal RecursionErrors."""
        source = "int f(int x) { return " + "(" * 3000 + "x" + \
            ")" * 3000 + "; }"
        ir_text = "@g = global " + "[2 x " * 3000 + "i32" + \
            "]" * 3000 + "\n"
        for build, error in ((lambda: compile_c(source), ParseError),
                             (lambda: parse_module(ir_text), IRError)):
            with pytest.raises(error, match="nested deeper") as info:
                build()
            assert encode_error(info.value)["kind"] == "bad-request"

    def test_unexpected_errors_are_internal(self):
        assert encode_error(RuntimeError("boom"))["kind"] == "internal"

    def test_deadline_round_trips(self):
        rebuilt = error_from_response(
            encode_error(DeadlineExpired("too late")))
        assert isinstance(rebuilt, DeadlineExpired)


# ---------------------------------------------------------------------------
# Daemon + self-healing client
# ---------------------------------------------------------------------------

def daemon_config(tmp_path=None, **kw):
    kw.setdefault("batch_window_s", 0.002)
    if tmp_path is not None:
        kw.setdefault("cache_dir", str(tmp_path))
    return ServiceConfig(**kw)


class TestDaemonLifecycle:
    def test_health_and_drain_ops(self):
        daemon = DetectionDaemon(port=0, config=daemon_config())
        daemon.serve_in_thread()
        host, port = daemon.address
        try:
            with ServiceClient(host, port, max_retries=0) as client:
                health = client.health()
                assert health["state"] == "ready"
                drained = client.drain(timeout_s=5.0)
                assert drained["drained"] is True
                assert drained["state"] == "draining"
                with pytest.raises(ServiceDraining):
                    client.detect(module_text())
        finally:
            daemon.close()

    def test_expired_deadline_rejected_over_the_wire(self):
        daemon = DetectionDaemon(port=0, config=daemon_config())
        daemon.serve_in_thread()
        host, port = daemon.address
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(DeadlineExpired):
                    client.detect(module_text(), deadline_s=-1.0)
        finally:
            daemon.close()

    def test_client_survives_daemon_restart(self, tmp_path):
        text = module_text()
        config = daemon_config(tmp_path)
        daemon = DetectionDaemon(port=0, config=config)
        daemon.serve_in_thread()
        host, port = daemon.address
        client = ServiceClient(host, port, max_retries=10,
                               backoff_s=0.05)
        try:
            first = client.detect_report(text)
            daemon.kill()  # live connection dropped, no goodbye

            def restart():
                time.sleep(0.2)
                replacement = DetectionDaemon(host, port, config=config)
                replacement.serve_in_thread()
                return replacement

            holder = {}
            thread = threading.Thread(
                target=lambda: holder.update(d=restart()), daemon=True)
            thread.start()
            second = client.detect_report(text)  # heals mid-call
            thread.join(timeout=30.0)
            assert client.reconnects >= 1
            assert (report_wire_fingerprint(first)
                    == report_wire_fingerprint(second))
        finally:
            client.close()
            if "d" in holder:
                holder["d"].close()

    def test_injected_conn_drop_is_healed(self):
        faults.install_plan(FaultPlan([
            {"site": "daemon.conn", "kind": "exception", "at": (1,),
             "key": "ping"}]))
        daemon = DetectionDaemon(port=0, config=daemon_config())
        daemon.serve_in_thread()
        host, port = daemon.address
        try:
            with ServiceClient(host, port, backoff_s=0.01) as client:
                assert client.ping()
                assert client.ping()  # dropped by the fault, then healed
                assert client.retries >= 1
        finally:
            daemon.close()


class TestClientHygiene:
    def test_port_zero_rejected(self):
        with pytest.raises(IDLError):
            ServiceClient("127.0.0.1", 0)

    def test_no_socket_leak_when_setup_fails(self, monkeypatch):
        class FakeSock:
            closed = False

            def settimeout(self, _timeout):
                raise OSError("simulated setup failure")

            def close(self):
                FakeSock.closed = True

        monkeypatch.setattr(
            "repro.service.daemon.socket.create_connection",
            lambda *a, **k: FakeSock())
        with pytest.raises(OSError):
            ServiceClient("127.0.0.1", 1)
        assert FakeSock.closed, "failed setup leaked the socket"

    def test_overloaded_retry_honours_retry_after(self, monkeypatch):
        # A client facing typed sheds must back off and eventually get
        # through — no daemon needed: fake the transport.
        responses = [
            {"ok": False, "kind": "overloaded", "error": "full",
             "retry_after_s": 0.01},
            {"ok": False, "kind": "overloaded", "error": "full",
             "retry_after_s": 0.01},
            {"ok": True, "pong": True},
        ]
        client = ServiceClient.__new__(ServiceClient)
        client.host, client.port = "fake", 1
        client.timeout = client.connect_timeout = 1.0
        client.max_retries = 5
        client.backoff_s = 0.001
        client.max_backoff_s = 0.01
        client.reconnect = True
        client.reconnects = client.retries = 0
        client._sock = None
        client._rfile = None

        def fake_connect():
            import json as json_module

            class Sock:
                def sendall(self, _data):
                    pass

            class RFile:
                def readline(self):
                    return (json_module.dumps(responses.pop(0))
                            + "\n").encode()

            client._sock, client._rfile = Sock(), RFile()

        monkeypatch.setattr(client, "_connect", fake_connect)
        t0 = time.monotonic()
        assert client.request({"op": "ping"})["pong"] is True
        assert client.retries == 2
        assert time.monotonic() - t0 >= 0.02  # two retry_after sleeps

    def test_non_retryable_kinds_raise_immediately(self, monkeypatch):
        client = ServiceClient.__new__(ServiceClient)
        client.host, client.port = "fake", 1
        client.timeout = client.connect_timeout = 1.0
        client.max_retries = 5
        client.backoff_s = 0.001
        client.max_backoff_s = 0.01
        client.reconnect = True
        client.reconnects = client.retries = 0

        class Sock:
            def sendall(self, _data):
                pass

        class RFile:
            def readline(self):
                return (b'{"ok": false, "kind": "bad-request", '
                        b'"error": "nope"}\n')

        client._sock, client._rfile = Sock(), RFile()
        with pytest.raises(IDLError):
            client.request({"op": "detect"})
        assert client.retries == 0


# ---------------------------------------------------------------------------
# Stats coherence under concurrent load
# ---------------------------------------------------------------------------

class TestStatsCoherence:
    def test_counters_balance_while_serving(self):
        text = module_text()
        config = ServiceConfig(batch_window_s=0.001)
        snapshots = []
        with DetectionService(config) as service:
            stop = threading.Event()

            def poll():
                while not stop.is_set():
                    snapshots.append(service.stats())

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            futures = [service.submit(text, tenant=f"t{i % 3}")
                       for i in range(30)]
            for future in futures:
                future.result(timeout=60.0)
            stop.set()
            poller.join(timeout=10.0)
            final = service.stats()
        for snap in snapshots + [final]:
            completed = sum(t["completed"]
                            for t in snap["tenants"].values())
            # A coherent snapshot never shows more completions than
            # admissions, and pending is what's admitted minus what
            # finished or failed.
            assert completed <= snap["requests"]
            assert snap["pending"] >= 0
        assert final["requests"] == 30
        assert sum(t["completed"] for t in final["tenants"].values()) == 30
        assert all("p95_latency_s" in t
                   for t in final["tenants"].values())


# ---------------------------------------------------------------------------
# Chaos: overload storm, repeated connection drops
# ---------------------------------------------------------------------------

class TestChaos:
    def test_overload_storm_sheds_typed_and_admits_others(self):
        """40 rapid submits into a tiny admission envelope under hung
        batches: at least 10 typed sheds, each with a positive
        ``retry_after_s``; exactly the one injected admit fault; a second
        tenant still admitted; every admitted request identical."""
        text = module_text()
        want = report_wire_fingerprint(detect_idioms(parse_module(text)))
        faults.install_plan(FaultPlan([
            {"site": "service.batch", "kind": "hang", "seconds": 0.05,
             "at": tuple(range(64))},
            {"site": "service.admit", "kind": "exception", "at": (3,)},
        ]))
        config = ServiceConfig(max_pending=8, tenant_quota=4,
                               batch_window_s=0.02, max_batch=2)
        sheds, admit_faults, futures = [], 0, []
        with DetectionService(config) as service:
            for _ in range(40):
                try:
                    futures.append(service.submit(text, tenant="flood"))
                except ServiceOverloaded as exc:
                    sheds.append(exc)
                except InjectedFault:
                    admit_faults += 1
            other = service.detect(text, tenant="other", timeout=120.0)
            results = [future.result(timeout=120.0) for future in futures]
        assert len(sheds) >= 10
        assert all(exc.retry_after_s and exc.retry_after_s > 0
                   for exc in sheds)
        assert admit_faults == 1
        for result in [other] + results:
            assert report_wire_fingerprint(result.report) == want

    def test_repeated_conn_drops_are_healed(self):
        """Two severed detect connections among 8 requests: exactly the
        planned drops fire, the client retries through each, and every
        report is identical."""
        plan = faults.install_plan(FaultPlan([
            {"site": "daemon.conn", "kind": "exception", "at": (2, 5),
             "key": "detect"}]))
        text = module_text()
        daemon = DetectionDaemon(port=0, config=daemon_config())
        daemon.serve_in_thread()
        host, port = daemon.address
        try:
            with ServiceClient(host, port, max_retries=6,
                               backoff_s=0.02) as client:
                reports = [client.detect_report(text, tenant="chaos")
                           for _ in range(8)]
                retries = client.retries
        finally:
            daemon.close()
        drops = [f for f in plan.fired if f["site"] == "daemon.conn"]
        assert len(drops) == 2
        assert retries >= len(drops)
        assert len({report_wire_fingerprint(r) for r in reports}) == 1
