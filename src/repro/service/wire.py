"""JSON wire format for whole detection reports and placement requests.

The daemon's line protocol ships reports as pure JSON: matches carry the
scheduler's structural solution tokens (block/instruction indices,
argument positions, global names, constant values) plus an identity-
interned pool of per-match solver stats — the codec the artifact cache
uses (:func:`~repro.cache.detection.encode_pooled` and
:func:`~repro.cache.detection.decode_pooled`), lifted from one function
to one report, with the report's per-function outcome records. A
client that parses the module text it submitted can
:func:`decode_report` the payload back into a
:class:`~repro.idioms.matches.DetectionReport` whose matches reference
its own IR objects, bit-identical (under the structural fingerprint) to
a local :func:`~repro.idioms.detect_idioms` run — the property the
service benchmark gates on.

Placement requests travel the same way: :func:`encode_plan_request`
flattens a :class:`~repro.platform.placement.PlacementRequest` (sites as
metadata dicts — handlers never cross the wire — events as nested
lists), :func:`decode_plan_request` rebuilds it daemon-side, and
:func:`encode_plan_result` ships one tenant's slice of the joint plan:
its ``API@device`` assignment, its completion under contention, and the
batch-level totals so the client can see who it shared the machine with.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from ..backends.api import ApiCallSite
from ..cache.detection import (
    decode_pooled,
    decode_solution,
    encode_pooled,
    encode_solution,
)
from ..errors import IDLError, InjectedFault, ReproError
from ..idioms.matches import DetectionReport, IdiomMatch
from ..ir.module import Module
from ..platform.placement import PlacementRequest
from .core import (
    DeadlineExpired,
    PlanResult,
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
)

#: Bump on any report payload schema change.
WIRE_VERSION = 1

#: Every ``kind`` an error response may carry. ``overloaded`` and
#: ``draining`` are retryable (honour ``retry_after_s``); ``deadline``
#: and ``bad-request`` are the caller's to fix; ``internal`` is fatal.
ERROR_KINDS = ("overloaded", "draining", "deadline", "bad-request",
               "internal")


def encode_error(exc: BaseException) -> dict:
    """One failed request as a structured error response.

    Clients discriminate on ``kind`` instead of string-matching
    ``error``: typed :class:`~repro.service.core.ServiceError` failures
    keep their own kind (plus ``retry_after_s`` when the service set
    one); other :class:`~repro.errors.ReproError` subclasses and
    payload-shape errors are the caller's fault (``bad-request``);
    everything else — including injected faults — is ``internal``."""
    response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, ServiceError):
        response["kind"] = exc.kind
        if exc.retry_after_s is not None:
            response["retry_after_s"] = round(float(exc.retry_after_s), 4)
    elif isinstance(exc, InjectedFault):
        response["kind"] = "internal"
    elif isinstance(exc, (ReproError, ValueError, KeyError, TypeError)):
        response["kind"] = "bad-request"
    else:
        response["kind"] = "internal"
    return response


def error_from_response(response: dict) -> IDLError:
    """The client-side inverse of :func:`encode_error`: rebuild the
    typed exception a daemon error response stands for."""
    kind = response.get("kind", "internal")
    message = str(response.get("error", "unknown daemon error"))
    retry_after = response.get("retry_after_s")
    if kind == "overloaded":
        return ServiceOverloaded(f"daemon overloaded: {message}",
                                 retry_after_s=retry_after)
    if kind == "draining":
        return ServiceDraining(f"daemon draining: {message}",
                               retry_after_s=retry_after)
    if kind == "deadline":
        return DeadlineExpired(f"daemon: {message}")
    return IDLError(f"daemon error ({kind}): {message}")


def encode_report(report: DetectionReport) -> dict:
    """One report as a JSON-safe dict.

    Per-match stats are pooled by object identity (forest-mode matches
    of one function share one stats object; the round trip preserves
    the sharing). Raises :class:`~repro.errors.IDLError` if a solution
    binds a value the wire format cannot express."""
    outcomes = report.outcomes
    return {
        "wire_version": WIRE_VERSION,
        "module": report.module_name,
        **encode_pooled(report.matches, report.stats,
                        lambda m: (m.idiom, m.function.name,
                                   encode_solution(m.solution,
                                                   m.function))),
        "total": report.total(),
        "by_category": report.by_category(),
        "outcomes": None if outcomes is None else {
            "counts": dict(Counter(outcomes.values())),
            "functions": [{"function": name, "status": status}
                          for name, status in outcomes.items()],
        },
    }


def report_wire_fingerprint(report: DetectionReport) -> str:
    """Structural identity that survives re-parsing.

    :func:`~repro.idioms.report_fingerprint` keys non-constant values by
    object identity, which is exact within one parsed module but useless
    across two parses of the same text (a daemon client vs a local run).
    This digest keys every binding by its wire token — block/instruction
    index, argument position, global name, constant value — so two
    reports over *any* parses of the same module fingerprint equal iff
    they contain the same matches with the same bindings. Per-match
    bindings are sorted; match order is preserved."""
    blob = [(m.idiom, m.function.name,
             sorted(encode_solution(m.solution, m.function)))
            for m in report.matches]
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode("utf-8")).hexdigest()


def decode_report(payload: dict, module: Module) -> DetectionReport:
    """Rebind an :func:`encode_report` payload against the caller's
    parse of the module it was computed for. Raises on a mis-shaped
    payload or a module that does not contain the referenced IR."""
    def decode_match(idiom, fname, encoded, stats):
        function = module.functions[fname]
        return IdiomMatch(str(idiom), function,
                          decode_solution(encoded, function, module),
                          stats=stats)

    report = DetectionReport(str(payload["module"]))
    report.matches, report.stats = decode_pooled(payload, decode_match)
    return report


# ---------------------------------------------------------------------------
# Placement requests and joint-plan results
# ---------------------------------------------------------------------------

def encode_plan_request(request: PlacementRequest) -> dict:
    """One placement request as a JSON-safe dict.

    Sites ship as cost-model metadata only — the handler callable stays
    on the client; the daemon's planner never executes sites, it only
    costs them."""
    return {
        "sites": [
            {
                "call_id": s.call_id,
                "idiom": s.idiom,
                "category": s.category,
                "stats": dict(s.stats),
                "backend": s.backend,
                "reads": list(s.reads),
                "writes": list(s.writes),
            }
            for s in request.call_sites()
        ],
        "events": [
            [call_id, [[key, nbytes, mode]
                       for key, nbytes, mode in accesses]]
            for call_id, accesses in request.events
        ],
        "host_seconds": request.host_seconds,
        "scale": request.scale,
        "greedy_lazy": bool(request.greedy_lazy),
        "label": request.label,
    }


def decode_plan_request(payload: dict) -> PlacementRequest:
    """The daemon-side inverse of :func:`encode_plan_request`. Raises
    :class:`~repro.errors.IDLError` on a mis-shaped payload (reported to
    the client as ``bad-request``)."""
    try:
        sites = [
            ApiCallSite(int(s["call_id"]), str(s["idiom"]),
                        str(s["category"]), None,
                        stats=dict(s.get("stats", {})),
                        backend=str(s.get("backend", "")),
                        reads=tuple(s.get("reads", ())),
                        writes=tuple(s.get("writes", ())))
            for s in payload["sites"]
        ]
        events = [
            (int(call_id), tuple((key, float(nbytes), str(mode))
                                 for key, nbytes, mode in accesses))
            for call_id, accesses in payload.get("events", [])
        ]
        return PlacementRequest(
            sites, events,
            host_seconds=float(payload.get("host_seconds", 0.0)),
            scale=float(payload.get("scale", 1.0)),
            greedy_lazy=bool(payload.get("greedy_lazy", True)),
            label=str(payload.get("label", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise IDLError(f"malformed placement request: {exc}") from exc


def encode_plan_result(result: PlanResult) -> dict:
    """One tenant's slice of a joint plan as a JSON-safe dict: its own
    ``API@device`` assignment and completion, plus the batch totals."""
    plan = result.plan
    i = result.index
    return {
        "assignment": {str(cid): p.describe()
                       for cid, p in sorted(plan.assignments[i].items())},
        "locations": {str(cid): loc
                      for cid, loc in sorted(plan.locations(i).items())},
        "completion_ms": plan.completions[i] * 1e3,
        "wait_ms": plan.wait_s[i] * 1e3,
        "batch": {
            "strategy": plan.strategy,
            "requests": len(plan.requests),
            "sum_completion_ms": plan.sum_completion_s * 1e3,
            "makespan_ms": plan.makespan_s * 1e3,
        },
    }
