"""In-memory span recorder, self-time arithmetic and Chrome trace export.

Spans are recorded by the benchmark's own code around the public calls
into each layer. A span has a name (the layer, or ``bench`` for the
benchmark's own top-level phases), a kind, the id of the program or
request it belongs to, start and end (``perf_counter`` seconds), its
parent span and its thread. A disabled tracer records nothing and costs
one attribute read per span.

Top-level ``bench`` spans come in three kinds:

* ``setup`` — the work before the first measured pass;
* ``pass`` — one measured pass (one suite pass, one replay pass, or one
  daemon request);
* ``separate`` — calls made only to time one layer on its own (building
  the analyses, lowering to bytecode); they stay out of the shares.
"""

from __future__ import annotations

import itertools
import threading
import time

#: Slack when checking that a child lies inside its parent (clock reads
#: are ordered, so this only absorbs float rounding).
_EPS = 1e-9


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack()
        record = self.record
        record["parent"] = stack[-1]["id"] if stack else None
        stack.append(record)
        record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        record = self.record
        record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(record)
        return False


class Tracer:
    """Collects spans when ``enabled``; thread-safe for appends."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, kind: str = "", item: str = ""):
        if not self.enabled:
            return _NULL
        return _Span(self, {"id": next(self._ids), "name": name,
                            "kind": kind, "item": item,
                            "tid": threading.get_ident(),
                            "start": 0.0, "end": 0.0, "parent": None})


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------

def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate span lists from several processes, renumbering ids so
    they stay unique; each list's spans get ``pid`` = its index."""
    merged: list[dict] = []
    offset = 0
    for pid, spans in enumerate(span_lists):
        top = 0
        for span in spans:
            copy = dict(span)
            copy["id"] = span["id"] + offset
            if span["parent"] is not None:
                copy["parent"] = span["parent"] + offset
            copy["pid"] = pid
            merged.append(copy)
            top = max(top, span["id"] + 1)
        offset += top
    return merged


def _children(spans: list[dict]) -> dict:
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return children


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict:
    """span id -> self time: its duration minus the part of its interval
    that its direct children cover."""
    children = _children(spans)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        kids = [(max(start, c["start"]), min(end, c["end"]))
                for c in children.get(span["id"], ())]
        kids = [(a, b) for a, b in kids if b > a]
        result[span["id"]] = (end - start) - _covered(kids)
    return result


def check_well_formed(spans: list[dict],
                      required: tuple[str, ...] = ()) -> list[str]:
    """Problems with a trace: spans that end before they start, parents
    that are missing, on another thread, or do not contain the child,
    and ``required`` layer names that never appear."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ({span['name']}) ends "
                            f"before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {span['id']} has missing parent "
                            f"{parent_id}")
        elif parent["tid"] != span["tid"] \
                or parent.get("pid") != span.get("pid"):
            problems.append(f"span {span['id']} has a parent on another "
                            f"thread")
        elif span["start"] < parent["start"] - _EPS \
                or span["end"] > parent["end"] + _EPS:
            problems.append(f"span {span['id']} ({span['name']}) is not "
                            f"inside its parent {parent_id} "
                            f"({parent['name']})")
    names = {span["name"] for span in spans}
    for name in required:
        if name not in names:
            problems.append(f"layer {name!r} never appears in the trace")
    return problems


def _root_of(spans: list[dict]) -> dict:
    """span id -> its top-level ancestor."""
    by_id = {span["id"]: span for span in spans}
    roots: dict = {}

    def root(span):
        if span["id"] in roots:
            return roots[span["id"]]
        parent = by_id.get(span["parent"]) if span["parent"] is not None \
            else None
        found = span if parent is None else root(parent)
        roots[span["id"]] = found
        return found

    for span in spans:
        root(span)
    return roots


def breakdown(spans: list[dict]) -> dict:
    """Per-layer self time of the traced run, as the mean ``setup`` root
    plus the mean ``pass`` root, with ``separate`` calls reported on
    their own.

    Returns ``{"total_s", "unattributed_s", "self": {(layer, kind): s},
    "separate": {(layer, kind): s}, "rounds": {kind: count}}``.
    Layer self times in ``self`` plus ``unattributed_s`` equal
    ``total_s`` exactly; unattributed time is the self time of the
    benchmark's own ``bench`` spans (input binding, bookkeeping, import).
    """
    selfs = self_times(spans)
    roots = _root_of(spans)
    rounds: dict = {}
    root_dur: dict = {}
    for span in spans:
        if span["parent"] is None and span["name"] == "bench":
            rounds[span["kind"]] = rounds.get(span["kind"], 0) + 1
            root_dur[span["kind"]] = root_dur.get(span["kind"], 0.0) + \
                span["end"] - span["start"]
    sums: dict = {}
    for span in spans:
        root = roots[span["id"]]
        if root["name"] != "bench" or span["name"] == "bench":
            continue
        key = (root["kind"], span["name"], span["kind"])
        sums[key] = sums.get(key, 0.0) + selfs[span["id"]]
    layer_self: dict = {}
    separate: dict = {}
    for (phase, layer, kind), seconds in sums.items():
        mean = seconds / rounds[phase]
        target = separate if phase == "separate" else layer_self
        target[(layer, kind)] = target.get((layer, kind), 0.0) + mean
    total = sum(root_dur.get(k, 0.0) / rounds[k]
                for k in ("setup", "pass") if rounds.get(k))
    return {
        "total_s": total,
        "unattributed_s": total - sum(layer_self.values()),
        "self": layer_self,
        "separate": separate,
        "rounds": rounds,
    }


def to_chrome(spans: list[dict]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(span["start"] for span in spans)
    events = []
    for span in sorted(spans, key=lambda s: (s.get("pid", 0), s["start"])):
        events.append({
            "name": span["name"] if not span["kind"]
            else f"{span['name']}:{span['kind']}",
            "cat": span["name"],
            "ph": "X",
            "ts": (span["start"] - t0) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span.get("pid", 0),
            "tid": span["tid"] % 1_000_000,
            "args": {"id": span["id"], "parent": span["parent"],
                     "item": span["item"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
