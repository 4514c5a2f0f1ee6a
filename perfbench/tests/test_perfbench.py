"""Tests for the benchmark's own pieces: span arithmetic, the percentile
helper, the seeded request stream and the output oracle."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from common import BENCH_DIR, LAYERS, pass_percentile, percentile
from spans import Tracer, breakdown, check_well_formed, merge, self_times


def span(id_, name, start, end, parent=None, kind="", tid=1):
    return {"id": id_, "name": name, "kind": kind, "item": "",
            "start": start, "end": end, "parent": parent, "tid": tid}


def nested():
    return [
        span(0, "bench", 0.0, 10.0, kind="pass"),
        span(1, "frontend", 1.0, 4.0, parent=0),
        span(2, "passes", 2.0, 3.0, parent=1),
        span(3, "runtime", 5.0, 9.0, parent=0, kind="accel"),
        span(4, "backends", 6.0, 8.5, parent=3),
    ]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(nested())
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5,
                                   4: 2.5})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "bench", 0.0, 10.0),
             span(1, "service", 1.0, 5.0, parent=0),
             span(2, "service", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_breakdown_self_times_plus_unattributed_equal_total():
    spans = nested() + [
        span(5, "bench", 20.0, 22.0, kind="setup"),
        span(6, "idioms", 20.5, 21.0, parent=5, kind="warmup"),
        span(7, "bench", 30.0, 31.0, kind="separate"),
        span(8, "analysis", 30.0, 30.5, parent=7),
    ]
    summary = breakdown(spans)
    assert summary["total_s"] == pytest.approx(12.0)
    assert sum(summary["self"].values()) + summary["unattributed_s"] \
        == pytest.approx(summary["total_s"])
    assert summary["unattributed_s"] == pytest.approx(3.0 + 1.5)
    assert summary["separate"] == {("analysis", ""): 0.5}


def test_breakdown_averages_rounds_of_one_phase():
    spans = [span(0, "bench", 0.0, 2.0, kind="pass"),
             span(1, "frontend", 0.0, 1.0, parent=0),
             span(2, "bench", 5.0, 9.0, kind="pass"),
             span(3, "frontend", 5.0, 8.0, parent=2)]
    summary = breakdown(spans)
    assert summary["total_s"] == pytest.approx(3.0)
    assert summary["self"][("frontend", "")] == pytest.approx(2.0)


def test_tracer_nests_spans_and_a_disabled_tracer_records_nothing():
    tracer = Tracer(True)
    with tracer.span("bench", "pass"):
        with tracer.span("frontend"):
            pass
    assert [s["name"] for s in tracer.spans] == ["frontend", "bench"]
    assert tracer.spans[0]["parent"] == tracer.spans[1]["id"]
    assert check_well_formed(tracer.spans) == []
    off = Tracer(False)
    with off.span("bench"):
        pass
    assert off.spans == []


def test_well_formedness_flags_escaping_children_and_missing_layers():
    bad = nested()
    bad[2]["end"] = 4.5  # passes outlives its frontend parent
    problems = check_well_formed(bad, required=("frontend", "platform"))
    assert any("not inside its parent" in p for p in problems)
    assert any("'platform' never appears" in p for p in problems)


def test_merge_keeps_ids_unique_across_processes():
    merged = merge([nested(), nested()])
    assert len({s["id"] for s in merged}) == len(merged)
    assert check_well_formed(merged) == []


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    data = list(rng.exponential(size=257))
    for q in (0, 5, 50, 95, 99, 100):
        assert percentile(data, q) == pytest.approx(np.percentile(data, q))
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([7], 99) == 7.0


def test_pass_percentile_averages_each_pass():
    assert pass_percentile([[1, 2, 3], [10, 20, 30]], 50) == 11.0


_STREAM = """
import itertools, json, sys
sys.path[:0] = [sys.argv[1]]
from daemon_mix import request_stream
print(json.dumps([list(itertools.islice(request_stream(s, c, 21, 10), 300))
                  for s in (1, 2) for c in (0, 1)]))
"""


def _stream_in_fresh_process(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", _STREAM, str(BENCH_DIR)],
                         capture_output=True, text=True, env=env,
                         check=True)
    return json.loads(out.stdout)


def test_request_stream_is_identical_across_processes():
    first = _stream_in_fresh_process("1")
    assert first == _stream_in_fresh_process("2")
    streams = [[tuple(op) for op in s] for s in first]
    assert streams[0] != streams[1] and streams[0] != streams[2]
    ops = [op for s in streams for op, _, _ in s]
    assert 0.7 < ops.count("detect") / len(ops) < 0.9
    edits = [edit for s in streams[:2] for op, _, edit in s if op == "edit"]
    assert len(edits) == len(set(edits))


def _suite_pass(tmp_path, order: str, corrupt: bool, trace: int = 0):
    import flow
    import suite_eval
    from repro.workloads import get_workload

    reference = {name: flow.reference_outputs(get_workload(name), 1)
                 for name in order.split(",")}
    if corrupt:
        buffer = next(iter(reference[order.split(",")[0]].buffers.values()))
        buffer.data = buffer.data + 1
    ref_path = tmp_path / "reference.npz"
    flow.save_outputs(ref_path, reference)
    out = tmp_path / "pass.json"
    assert suite_eval.child_main(["--order", order, "--reference",
                                  str(ref_path), "--trace", str(trace),
                                  "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_suite_pass_is_correct_on_todays_code(tmp_path):
    result = _suite_pass(tmp_path, "histo", corrupt=False, trace=1)
    assert result["failures"] == []
    spans = result["spans"]
    required = tuple(l for l in LAYERS if l != "service")
    assert check_well_formed(spans, required=required) == []


def test_corrupted_output_raises_failed_frac(tmp_path):
    result = _suite_pass(tmp_path, "histo", corrupt=True)
    failed_frac = len(result["failures"]) / result["attempted"]
    assert failed_frac > 0
    assert "reference interpreter" in result["failures"][0]
