"""The detection daemon: a socket skin over :class:`DetectionService`.

Protocol: line-delimited JSON over TCP. Each request line is an object
with an ``op`` — ``detect`` (fields ``module``: IR text, optional
``tenant`` and ``deadline_s``), ``plan`` (field ``request``: an encoded
:class:`~repro.platform.placement.PlacementRequest`, optional ``tenant``
and ``deadline_s``), ``stats``, ``health``, ``ping``, ``drain``
(optional ``timeout_s``), ``shutdown`` — and each response line an
object with ``ok``. A ``detect`` response carries the report in the
structural wire format (:mod:`.wire`); the client rebinds it against
its own parse of the submitted text, so daemon answers are bit-identical
to local :func:`~repro.idioms.detect_idioms` runs. A ``plan`` response
carries the tenant's slice of the joint placement its micro-batch was
costed under — concurrent ``plan`` calls contend for the simulated
accelerators together (see
:meth:`~repro.service.core.DetectionService.submit_plan`).

Error responses are structured: ``{"ok": false, "kind": ..., "error":
..., "retry_after_s": ...}`` with ``kind`` one of
:data:`~repro.service.wire.ERROR_KINDS`, so clients distinguish
retryable overload/drain sheds from bad requests and internal failures
without string-matching (see :func:`~repro.service.wire.encode_error`).
A request line longer than :data:`MAX_LINE_BYTES` gets a ``bad-request``
error, after which the daemon closes the connection.

:class:`ServiceClient` is self-healing: it reconnects through dropped
connections and daemon restarts with bounded exponential backoff plus
jitter, honours ``retry_after_s`` from typed sheds, and keeps a
per-request timeout distinct from the connect timeout. ``detect`` is
idempotent on the daemon side (warm store + dedupe make replays cheap),
which is what makes blind resends safe.

Only the stdlib is used (:mod:`socketserver` threading TCP server), so
the daemon runs anywhere the repo does."""

from __future__ import annotations

import json
import random
import socket
import socketserver
import threading
import time

from ..errors import IDLError, InjectedFault
from ..ir.parser import parse_module
from ..reliability import faults
from ..platform.placement import PlacementRequest
from .core import DetectionService, ServiceConfig
from .wire import decode_plan_request, decode_report, encode_error, \
    encode_plan_request, encode_plan_result, encode_report, \
    error_from_response

#: The daemon's well-known default port (the CLI's default endpoint).
DEFAULT_PORT = 7199

#: Longest request line the daemon reads, newline included (the suite's
#: largest module is about 12 KB on the wire). A longer line is answered
#: with a typed ``bad-request`` error and its connection is closed; it
#: is never buffered past this bound.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: How long the rest of an over-long line is read and thrown away before
#: its connection closes, so the client sees the error response rather
#: than a reset.
_DISCARD_S = 2.0


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not line:
                return
            if len(line) > MAX_LINE_BYTES:
                self._send(encode_error(IDLError(
                    f"request line exceeds {MAX_LINE_BYTES} bytes")))
                if not line.endswith(b"\n"):
                    self._discard_line()
                return
            line = line.strip()
            if not line:
                continue
            request, op = None, None
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise IDLError("request must be a JSON object")
                op = request.get("op")
            except Exception as exc:  # malformed line: a bad request,
                response = encode_error(exc)  # never a dead connection
            else:
                try:
                    faults.maybe_fire("daemon.conn", str(op))
                except InjectedFault:
                    return  # injected connection drop: the client's
                    # reconnect path owns recovery from here
                try:
                    response = self.server.dispatch(request)
                except Exception as exc:  # one bad request must not
                    response = encode_error(exc)  # kill the daemon
            if not self._send(response) or op == "shutdown":
                return

    def _send(self, response: dict) -> bool:
        """Write one response line; False once the client has gone."""
        try:
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
        except (OSError, ValueError):
            return False
        return True

    def _discard_line(self) -> None:
        """Read and drop the rest of an over-long line, in bounded chunks
        and for at most ``_DISCARD_S``: closing with unread input would
        reset the connection before the client reads the error."""
        deadline = time.monotonic() + _DISCARD_S
        try:
            while time.monotonic() < deadline:
                self.connection.settimeout(
                    max(0.01, deadline - time.monotonic()))
                chunk = self.rfile.readline(1 << 16)
                if not chunk or chunk.endswith(b"\n"):
                    return
        except (OSError, ValueError):
            return


class DetectionDaemon(socketserver.ThreadingTCPServer):
    """Serve a :class:`DetectionService` on a TCP port.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`). One handler thread per connection; all of them
    funnel into the shared service, whose micro-batcher coalesces their
    concurrent requests and whose admission control sheds overload with
    typed responses."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: ServiceConfig | None = None,
                 service: DetectionService | None = None):
        super().__init__((host, port), _Handler)
        self._conn_lock = threading.Lock()
        self._conns: set = set()
        self.service = (service or DetectionService(config)).start()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    # -- connection tracking (for kill()) -----------------------------------------
    def process_request(self, request, client_address):
        with self._conn_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._conn_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        import sys
        exc = sys.exc_info()[1]
        # Dropped/killed connections are routine under chaos testing and
        # client restarts; only genuinely unexpected handler failures
        # deserve the default traceback spew.
        if isinstance(exc, (OSError, ValueError)):
            return
        super().handle_error(request, client_address)

    # -- ops ----------------------------------------------------------------------
    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True,
                    "state": self.service.state}
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if op == "health":
            return {"ok": True, **self.service.health()}
        if op == "detect":
            text = request.get("module")
            if not isinstance(text, str):
                raise IDLError("detect needs a 'module' IR-text field")
            deadline_s = request.get("deadline_s")
            result = self.service.detect(
                text, tenant=str(request.get("tenant", "default")),
                deadline_s=None if deadline_s is None
                else float(deadline_s))
            return {"ok": True,
                    "report": encode_report(result.report),
                    "tenant": result.tenant,
                    "latency_s": result.latency_s}
        if op == "plan":
            payload = request.get("request")
            if not isinstance(payload, dict):
                raise IDLError("plan needs a 'request' object field "
                               "(an encoded PlacementRequest)")
            deadline_s = request.get("deadline_s")
            result = self.service.plan(
                decode_plan_request(payload),
                tenant=str(request.get("tenant", "default")),
                deadline_s=None if deadline_s is None
                else float(deadline_s))
            return {"ok": True,
                    "plan": encode_plan_result(result),
                    "tenant": result.tenant,
                    "latency_s": result.latency_s}
        if op == "drain":
            timeout = request.get("timeout_s")
            drained = self.service.drain(
                None if timeout is None else float(timeout))
            return {"ok": True, "drained": drained,
                    "state": self.service.state,
                    "pending": self.service.health()["pending"]}
        if op == "shutdown":
            # shutdown() blocks until serve_forever() exits; calling it
            # from this handler thread is safe (ThreadingTCPServer), but
            # the response must go out first — hence the helper thread.
            threading.Thread(target=self.shutdown, daemon=True).start()
            return {"ok": True, "shutting_down": True}
        raise IDLError(f"unknown op {op!r}")

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown, phase 1: stop admitting, finish in-flight.
        The SIGTERM hook and the ``drain`` op both land here."""
        return self.service.drain(timeout)

    def close(self):
        self.shutdown()
        self.server_close()
        self.service.close()

    def kill(self):
        """Abrupt stop: drop every live connection and stop serving
        without waiting for handlers — the crash/restart simulation the
        chaos benchmark uses. Internally queued work is still drained
        (its clients are gone; the responses go nowhere), and the port
        is immediately rebindable by a replacement daemon."""
        self.shutdown()
        with self._conn_lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.server_close()
        self.service.close()


class ServiceClient:
    """A blocking, self-healing line-protocol client for
    :class:`DetectionDaemon`.

    One TCP connection, reused across requests and transparently
    re-established when it drops (daemon restart, injected connection
    fault, network blip): retryable requests are resent after a bounded
    exponential backoff with jitter — safe because ``detect`` is
    idempotent on the daemon side. Typed ``overloaded``/``draining``
    sheds are retried honouring the daemon's ``retry_after_s`` hint.
    ``timeout`` bounds each request round-trip; :attr:`CONNECT_TIMEOUT_S`
    bounds connection establishment separately. Usable as a context
    manager. :meth:`detect_report` returns a decoded
    :class:`~repro.idioms.matches.DetectionReport` bound to the client's
    own parse of the submitted text."""

    #: Error kinds worth another attempt (after honouring retry_after_s).
    RETRYABLE_KINDS = ("overloaded", "draining")
    #: Seconds to establish a connection.
    CONNECT_TIMEOUT_S = 10.0
    #: Cap on one retry's sleep, before jitter.
    MAX_BACKOFF_S = 2.0

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 120.0, max_retries: int = 5,
                 backoff_s: float = 0.05):
        if int(port) == 0:
            raise IDLError(
                "port 0 is the daemon's pick-an-ephemeral-port bind "
                "sentinel, not a connectable address; pass the daemon's "
                "actual bound port (DetectionDaemon.address)")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = backoff_s
        #: Telemetry: connections re-established / requests re-attempted.
        self.reconnects = 0
        self.retries = 0
        self._sock: socket.socket | None = None
        self._rfile = None
        self._connect()

    # -- connection management ----------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.CONNECT_TIMEOUT_S)
        try:
            # The connect timeout has done its job; from here on the
            # per-request timeout governs reads and writes.
            sock.settimeout(self.timeout)
            rfile = sock.makefile("rb")
        except BaseException:
            sock.close()  # never leak the socket if makefile/settimeout
            raise         # fails after the connection was established
        if self._rfile is not None or self._sock is not None:
            self.reconnects += 1
        self._sock = sock
        self._rfile = rfile

    def _teardown(self) -> None:
        sock, rfile = self._sock, self._rfile
        self._sock = None
        # Keep _rfile's old object identity check out of _connect's
        # reconnect accounting by leaving it non-None until replaced.
        for resource in (rfile, sock):
            if resource is not None:
                try:
                    resource.close()
                except OSError:
                    pass

    def _sleep(self, attempt: int,
               retry_after_s: float | None = None) -> None:
        if retry_after_s:
            delay = float(retry_after_s)
        else:
            delay = self.backoff_s * (2 ** attempt)
        delay = min(self.MAX_BACKOFF_S, delay)
        # Jitter decorrelates a fleet of clients retrying the same shed.
        time.sleep(delay + random.uniform(0, self.backoff_s))

    # -- request loop -------------------------------------------------------------
    def request(self, payload: dict, retryable: bool = True,
                deadline_at: float | None = None) -> dict:
        """One round-trip, with self-healing.

        Connection failures tear the socket down and (for ``retryable``
        requests) reconnect + resend after backoff; typed retryable
        error kinds back off per the daemon's ``retry_after_s``.
        ``deadline_at`` (monotonic) bounds the total retry effort."""
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._connect()
                self._sock.sendall(
                    (json.dumps(payload) + "\n").encode("utf-8"))
                line = self._rfile.readline()
                if not line:
                    raise ConnectionError("daemon closed the connection")
                response = json.loads(line.decode("utf-8"))
            except (OSError, ValueError) as exc:
                # OSError covers resets, refusals and timeouts;
                # ValueError covers a line torn mid-write by a dying
                # daemon — both mean this attempt produced nothing
                # trustworthy, so the connection is rebuilt from scratch.
                self._teardown()
                if not retryable \
                        or attempt >= self.max_retries \
                        or (deadline_at is not None
                            and time.monotonic() >= deadline_at):
                    raise ConnectionError(
                        f"daemon at {self.host}:{self.port} unreachable "
                        f"after {attempt + 1} attempt(s): {exc}") from exc
                self.retries += 1
                self._sleep(attempt)
                attempt += 1
                continue
            if response.get("ok"):
                return response
            if response.get("kind") in self.RETRYABLE_KINDS \
                    and retryable and attempt < self.max_retries \
                    and (deadline_at is None
                         or time.monotonic() < deadline_at):
                self.retries += 1
                self._sleep(attempt, response.get("retry_after_s"))
                attempt += 1
                continue
            raise error_from_response(response)

    # -- ops ----------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def health(self) -> dict:
        """Daemon lifecycle state + queue depths (cheap; no batching)."""
        return self.request({"op": "health"})

    def drain(self, timeout_s: float | None = None) -> dict:
        """Ask the daemon to stop admitting and finish in-flight work."""
        payload: dict = {"op": "drain"}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return self.request(payload)

    def detect(self, ir_text: str, tenant: str = "default",
               deadline_s: float | None = None) -> dict:
        """The raw response: ``report`` (wire payload), ``latency_s``.

        ``deadline_s`` is the per-attempt budget the daemon enforces
        from admission; the client additionally stops retrying once the
        budget is spent locally."""
        payload = {"op": "detect", "module": ir_text, "tenant": tenant}
        deadline_at = None
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
            deadline_at = time.monotonic() + deadline_s
        return self.request(payload, deadline_at=deadline_at)

    def plan(self, request, tenant: str = "default",
             deadline_s: float | None = None) -> dict:
        """Joint placement through the daemon: ``request`` is a
        :class:`~repro.platform.placement.PlacementRequest` (encoded
        here) or an already-encoded wire dict. Returns the ``plan``
        payload: this tenant's ``assignment``/``locations``, its
        ``completion_ms`` under contention with whatever co-batched
        with it, and the batch totals. Idempotent, hence retry-safe:
        planning is a pure costing computation."""
        if isinstance(request, PlacementRequest):
            request = encode_plan_request(request)
        payload = {"op": "plan", "request": request, "tenant": tenant}
        deadline_at = None
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
            deadline_at = time.monotonic() + deadline_s
        return self.request(payload, deadline_at=deadline_at)["plan"]

    def detect_report(self, ir_text: str, tenant: str = "default",
                      module=None, deadline_s: float | None = None):
        """Round-trip convenience: submit text, decode the answer
        against ``module`` (or a fresh local parse of the text)."""
        response = self.detect(ir_text, tenant=tenant,
                               deadline_s=deadline_s)
        if module is None:
            module = parse_module(ir_text)
        return decode_report(response["report"], module)

    def shutdown(self) -> dict:
        # Not retryable: a dropped connection after send most likely
        # means the shutdown worked.
        return self.request({"op": "shutdown"}, retryable=False)

    def close(self):
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
