"""Placement-as-a-service: the ``plan`` request kind through the
service batcher and the daemon wire protocol. The micro-batch window IS
the contention domain — requests that arrive together are jointly
placed against shared device and link queues."""

import pytest

from repro.backends.api import ApiCallSite, ApiRuntime
from repro.errors import IDLError, PlacementError
from repro.frontend import compile_c
from repro.ir.printer import print_module
from repro.passes import optimize
from repro.platform.placement import PlacementRequest
from repro.service import (
    DetectionDaemon,
    DetectionService,
    PlanResult,
    ServiceClient,
    ServiceConfig,
    decode_plan_request,
    encode_plan_request,
)

from test_service import serve_in_thread


def _request(label="", calls=8, elements=4e6, flops=40, nbytes=32e6):
    runtime = ApiRuntime()
    site = runtime.new_site("Stencil1D", "stencil",
                            lambda args, engine: None)
    site.stats = {"calls": calls, "elements": elements,
                  "flops_per_element": flops, "bytes": nbytes}
    return PlacementRequest([site], host_seconds=0.001, label=label)


class TestServicePlanPath:
    def test_cobatched_requests_share_one_joint_plan(self):
        config = ServiceConfig(batch_window_s=0.25)
        with DetectionService(config) as service:
            futures = [service.submit_plan(_request(f"t{i}"),
                                           tenant=f"t{i}")
                       for i in range(4)]
            results = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        assert all(isinstance(r, PlanResult) for r in results)
        # One window caught all four; they were planned together.
        assert stats["plan_batches"] == 1
        assert stats["plan_requests"] == 4
        shared = results[0].plan
        assert all(r.plan is shared for r in results)
        assert shared.strategy == "joint"
        assert sorted(r.index for r in results) == [0, 1, 2, 3]
        for i, result in enumerate(results):
            assert result.tenant == f"t{i}"
            assert result.latency_s >= 0.0
            assert result.completion_s > 0.0
            assert set(result.assignment) == {0}
            assert set(result.locations()) == {0}

    def test_plan_and_detect_coexist_in_one_batch(self):
        module = compile_c(
            "double dot(double* a, double* b, int n) {\n"
            "  double s = 0.0;\n"
            "  for (int i = 0; i < n; i++) { s = s + a[i] * b[i]; }\n"
            "  return s;\n}\n", "t")
        optimize(module)
        text = print_module(module)
        config = ServiceConfig(batch_window_s=0.25)
        with DetectionService(config) as service:
            detect = service.submit(text, tenant="d")
            plan = service.submit_plan(_request(), tenant="p")
            report = detect.result(timeout=120)
            placed = plan.result(timeout=120)
            stats = service.stats()
        assert report.report.module_name
        assert placed.completion_s > 0.0
        assert stats["plan_requests"] == 1
        # Both kinds share the admission path and its counter.
        assert stats["requests"] == 2

    def test_sync_convenience(self):
        with DetectionService(ServiceConfig(batch_window_s=0.001)) \
                as service:
            result = service.plan(_request(), tenant="solo")
        assert isinstance(result, PlanResult)
        assert result.index == 0
        assert len(result.plan.requests) == 1


def _payload(**changes) -> dict:
    """A well-formed encoded request with one site and one event, with
    ``changes`` applied to its site, its access or its top level."""
    runtime = ApiRuntime()
    site = runtime.new_site("Reduction", "scalar_reduction",
                            lambda args, engine: None, reads=(0,))
    site.stats = {"calls": 3, "elements": 3e6, "flops_per_element": 2,
                  "bytes": 24e6}
    payload = encode_plan_request(PlacementRequest(
        [site], [(site.call_id, ((1001, 8e6, "r"),))], host_seconds=0.01))
    for name, value in changes.items():
        if name in ("category", "stats"):
            payload["sites"][0][name] = value
        elif name in ("key", "nbytes"):
            access = payload["events"][0][1][0]
            access[("key", "nbytes").index(name)] = value
        elif name == "duplicate":
            payload["sites"].append(dict(payload["sites"][0]))
        else:
            payload[name] = value
    return payload


#: Payloads that decode but cannot be planned, and what is wrong.
BAD_PAYLOADS = {
    "no API serves the category": dict(category="nonsense"),
    "buffer key is a list": dict(key=[1, 2]),
    "stat is not a number": dict(stats={"calls": "many"}),
    "negative scale": dict(scale=-2.0),
    "infinite host seconds": dict(host_seconds=float("inf")),
    "NaN byte count": dict(nbytes=float("nan")),
    "duplicate call ids": dict(duplicate=True),
}


class TestPlanValidation:
    @pytest.mark.parametrize("bad", sorted(BAD_PAYLOADS))
    def test_bad_request_fails_only_its_submitter(self, bad):
        """A malformed request co-submitted with a good one inside one
        batch window fails alone; the good one gets its plan."""
        request = decode_plan_request(_payload(**BAD_PAYLOADS[bad]))
        with DetectionService(ServiceConfig(batch_window_s=0.25)) \
                as service:
            good = service.submit_plan(_request("good"), tenant="good")
            with pytest.raises(PlacementError):
                service.submit_plan(request, tenant="bad")
            result = good.result(timeout=120)
        assert len(result.plan.requests) == 1
        assert set(result.locations()) == {0}

    def test_well_formed_payload_passes(self):
        decode_plan_request(_payload()).check()


class TestPlanWire:
    def test_round_trip(self):
        runtime = ApiRuntime()
        site = runtime.new_site("Reduction", "scalar_reduction",
                                lambda args, engine: None, reads=(0,))
        site.stats = {"calls": 3, "elements": 3e6,
                      "flops_per_element": 2, "bytes": 24e6}
        original = PlacementRequest(
            [site], [(0, ((1001, 8e6, "r"),))],
            host_seconds=0.25, scale=2.0, greedy_lazy=False, label="CG")
        clone = decode_plan_request(encode_plan_request(original))
        assert clone.host_seconds == 0.25
        assert clone.scale == 2.0
        assert clone.greedy_lazy is False
        assert clone.label == "CG"
        assert clone.events == [(0, ((1001, 8e6, "r"),))]
        [decoded] = clone.sites
        assert isinstance(decoded, ApiCallSite)
        assert decoded.call_id == 0
        assert decoded.category == "scalar_reduction"
        assert decoded.stats == site.stats
        assert decoded.handler is None  # handlers never cross the wire

    def test_malformed_payload_rejected(self):
        with pytest.raises(IDLError):
            decode_plan_request({"sites": [{"idiom": "x"}]})  # no call_id
        with pytest.raises(IDLError):
            decode_plan_request({})


class TestPlanDaemon:
    def test_plan_over_the_wire(self):
        daemon = DetectionDaemon(port=0)
        thread = serve_in_thread(daemon)
        host, port = daemon.address
        try:
            with ServiceClient(host, port) as client:
                answer = client.plan(_request("net"), tenant="net")
                assert set(answer["assignment"]) == {"0"}
                assert "@" in answer["assignment"]["0"]
                assert answer["completion_ms"] > 0.0
                assert answer["batch"]["requests"] == 1
                assert answer["batch"]["strategy"] == "joint"
                assert answer["batch"]["sum_completion_ms"] >= \
                    answer["completion_ms"] - 1e-9
                with pytest.raises(IDLError):
                    client.request({"op": "plan"})  # no request field
                with pytest.raises(IDLError):
                    client.request({"op": "plan",
                                    "request": {"sites": [{}]}})
                assert client.ping()  # still alive after bad requests
        finally:
            daemon.shutdown()
            thread.join(timeout=10)
            daemon.server_close()
            daemon.service.close()
