"""The per-layer metrics of a traced run, named ``<layer>.<metric>``."""

from __future__ import annotations

from common import LAYERS, metric
from spans import breakdown

SERVICE_METRICS = (
    "service.rpc_p50_ms", "service.plan_rpc_p50_ms",
    "service.server_p50_ms", "service.transport_p50_ms",
    "service.decode_p50_ms", "service.batches", "service.solved_functions",
    "service.store_hits", "service.parse_hits", "service.dedupe_ratio",
    "service.sheds", "service.errors",
)


def layer_metrics(spans: list[dict], counts: dict, overhead: float,
                  service: dict | None = None) -> dict:
    """Every per-layer metric from a traced run's spans and counters.

    Layers a workload never calls report 0."""
    summary = breakdown(spans)
    own = summary["self"]
    separate = summary["separate"]
    total = summary["total_s"]

    def layer_self(layer: str, kind: str | None = None) -> float:
        return sum(s for (name, k), s in own.items()
                   if name == layer and (kind is None or k == kind))

    out = {}
    for layer in LAYERS:
        if layer == "analysis":
            continue
        seconds = layer_self(layer)
        out[f"{layer}.self_s"] = metric(seconds, "s")
        out[f"{layer}.share"] = metric(seconds / total if total else 0.0,
                                       "ratio")
    out["analysis.self_s"] = metric(
        sum(s for (name, _), s in separate.items() if name == "analysis"),
        "s")
    out["runtime.lower_s"] = metric(separate.get(("runtime", "lower"), 0.0),
                                    "s")
    out["runtime.original_s"] = metric(layer_self("runtime", "original"), "s")
    out["runtime.accel_s"] = metric(layer_self("runtime", "accel"), "s")
    for name, value in counts.items():
        out[name] = metric(value, "count")
    service = service or {}
    for name in SERVICE_METRICS:
        unit = "ms" if name.endswith("_ms") else \
            "ratio" if name.endswith("ratio") else "count"
        out[name] = metric(service.get(name, 0.0), unit)
    out["trace.total_s"] = metric(total, "s")
    out["trace.unattributed_s"] = metric(summary["unattributed_s"], "s")
    out["trace.unattributed_share"] = metric(
        summary["unattributed_s"] / total if total else 0.0, "ratio")
    out["trace.overhead"] = metric(overhead, "x")
    return out
