"""Detection-as-a-service: a resident multi-tenant detection daemon.

The serving layer above the detection pipeline: a warmed detector,
LRU-governed artifact store and parse cache stay resident in one
process (:mod:`.core`) while concurrent tenants submit modules;
requests arriving together are micro-batched into single
:meth:`~repro.idioms.scheduler.DetectionSession.detect_many` calls with
cross-tenant dedupe, one batch at a time. The service is overload-safe: a bounded
pending queue with per-tenant quotas sheds excess load with typed,
retryable errors; a weighted round-robin batcher keeps one flooding
tenant from starving the rest; request deadlines propagate from the
wire into the solver; and a ``starting → ready → draining → stopped``
lifecycle supports graceful drain. :mod:`.daemon` exposes the service
over a line-delimited-JSON TCP protocol (stdlib only) with reports
shipped in the structural wire format (:mod:`.wire`) and errors as
structured ``kind`` envelopes; its :class:`ServiceClient` self-heals
through connection drops and daemon restarts. ``python -m
repro.service`` is the CLI (:mod:`.__main__`).
"""

from .core import (
    DeadlineExpired,
    DetectionService,
    PlanResult,
    ServiceConfig,
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
)
from .daemon import DEFAULT_PORT, DetectionDaemon, ServiceClient
from .wire import (
    ERROR_KINDS,
    WIRE_VERSION,
    decode_plan_request,
    decode_report,
    encode_error,
    encode_plan_request,
    encode_plan_result,
    encode_report,
    error_from_response,
    report_wire_fingerprint,
)

__all__ = [
    "DetectionService", "ServiceConfig", "ServiceResult", "PlanResult",
    "ServiceError", "ServiceOverloaded", "ServiceDraining",
    "DeadlineExpired",
    "DetectionDaemon", "ServiceClient", "DEFAULT_PORT",
    "WIRE_VERSION", "ERROR_KINDS",
    "decode_report", "encode_report", "report_wire_fingerprint",
    "encode_plan_request", "decode_plan_request", "encode_plan_result",
    "encode_error", "error_from_response",
]
