"""Tests for the typed request layer (``repro.core.requests``).

Covers, per ISSUE requirements:

* exact JSON round-trips for ``OptimizeRequest`` / ``SweepSpec`` /
  ``ServiceReply`` — including the value/type/repr bit-identity of a
  decoded ``PlanResult`` on every substrate (int, Fraction and
  LogNumber costs; pipeline and star plans);
* schema validation errors with messages, not stack traces, and the
  exact text of the request path's messages;
* stable content fingerprints (``no_cache`` excluded from identity);
* malformed sweep replies raise ``ValidationError``, not ``KeyError``;
* the two forms ``api.optimize`` takes;
* ``api.capabilities()`` as plain JSON-safe data.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import pytest

from repro import api, io
from repro.core.requests import (
    REPLY_SCHEMA,
    REQUEST_SCHEMA,
    decode_cost,
    decode_value,
    encode_cost,
    encode_value,
    result_from_dict,
    result_to_dict,
    validate_reply,
    validate_request,
)
from repro.core.results import PlanResult
from repro.hashjoin.instance import HashJoinCostModel, QOHInstance
from repro.joinopt.instance import Graph, QONInstance
from repro.service import protocol
from repro.starqo.instance import SQOCPInstance
from repro.utils.lognum import LogNumber
from repro.utils.validation import ValidationError


@pytest.fixture
def qon_instance():
    return api.generate("chain", 5, seed=1)


@pytest.fixture
def qoh_instance():
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    return QOHInstance(
        graph,
        [64, 32, 128, 16],
        {(0, 1): Fraction(1, 8), (1, 2): Fraction(1, 16),
         (2, 3): Fraction(1, 4)},
        memory=64,
        model=HashJoinCostModel(psi=Fraction(1, 3), g_scale=2),
    )


@pytest.fixture
def sqocp_instance():
    return SQOCPInstance(
        num_satellites=2,
        sort_passes=4,
        page_size=8,
        tuples=[10_000, 3, 5_000],
        pages=[10_000, 1, 5_000],
        sort_costs=[40_000, 4, 20_000],
        selectivities=[Fraction(1, 10_000), Fraction(1, 5_000)],
        satellite_access=[1, 1],
        center_access=[1, 1],
    )


def assert_bit_identical(left, right):
    """The service-cache contract: equal value, type AND repr."""
    assert left == right
    assert type(left) is type(right)
    assert repr(left) == repr(right)


# ---------------------------------------------------------------------
# Value / cost codecs
# ---------------------------------------------------------------------


class TestCodecs:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 2 ** 200, 0.25, "beam",
        Fraction(3, 7), (1, 2, 3), [1, Fraction(1, 3), "x"],
        ("nested", (Fraction(-5, 9), None)),
    ])
    def test_value_round_trip_is_exact(self, value):
        wire = json.loads(json.dumps(encode_value(value)))
        assert_bit_identical(decode_value(wire), value)

    def test_unserializable_value_is_rejected(self):
        with pytest.raises(ValidationError, match="not\\s+JSON-serializable"):
            encode_value(object())

    @pytest.mark.parametrize("cost", [
        0, 123, 2 ** 400,
        Fraction(355, 113),
        LogNumber.from_log2(1234.5678),
        LogNumber.from_log2(float("-inf")),
        2.5,
    ])
    def test_cost_round_trip_is_exact(self, cost):
        wire = json.loads(json.dumps(encode_cost(cost)))
        assert_bit_identical(decode_cost(wire), cost)

    def test_bool_is_not_a_cost(self):
        with pytest.raises(ValidationError):
            encode_cost(True)


# ---------------------------------------------------------------------
# PlanResult round-trips per substrate
# ---------------------------------------------------------------------


class TestPlanResultRoundTrip:
    def check(self, result):
        wire = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(wire)
        assert_bit_identical(restored.cost, result.cost)
        assert_bit_identical(restored.plan, result.plan)
        assert_bit_identical(restored, result)

    def test_qon_int_cost(self, qon_instance):
        self.check(api.optimize(qon_instance, "dp"))

    def test_qoh_fraction_cost_and_pipelines(self, qoh_instance):
        result = api.optimize(qoh_instance, "qoh-exhaustive")
        assert result.plan is not None
        self.check(result)

    def test_sqocp_star_plan(self, sqocp_instance):
        result = api.optimize(sqocp_instance, "sqocp-dp")
        assert result.plan is not None
        self.check(result)

    def test_type_tag_is_checked(self):
        with pytest.raises(ValidationError, match="plan_result"):
            result_from_dict({"type": "mystery"})


# ---------------------------------------------------------------------
# OptimizeRequest
# ---------------------------------------------------------------------


class TestOptimizeRequest:
    def test_json_round_trip(self, qon_instance):
        request = api.OptimizeRequest.build(
            qon_instance, "sampling", samples=50, rng=7,
        )
        restored = api.OptimizeRequest.from_json(request.to_json())
        assert restored.algorithm == "sampling"
        assert restored.params == request.params
        assert restored.kwargs() == {"rng": 7, "samples": 50}
        assert restored.to_json() == request.to_json()

    def test_round_trip_executes_identically(self, qon_instance):
        request = api.OptimizeRequest.build(qon_instance, "dp")
        restored = api.OptimizeRequest.from_json(request.to_json())
        assert_bit_identical(
            api.execute_request(restored), api.execute_request(request)
        )

    def test_fingerprint_is_content_addressed(self, qon_instance):
        request = api.OptimizeRequest.build(qon_instance, "dp")
        rebuilt = api.OptimizeRequest.from_json(request.to_json())
        assert api.request_fingerprint(rebuilt) == request.fingerprint()

    def test_no_cache_is_not_identity(self, qon_instance):
        plain = api.OptimizeRequest.build(qon_instance, "dp")
        bypass = api.OptimizeRequest.build(qon_instance, "dp", no_cache=True)
        assert plain.fingerprint() == bypass.fingerprint()

    def test_params_are_identity(self, qon_instance):
        narrow = api.OptimizeRequest.build(qon_instance, "sampling", samples=20)
        wide = api.OptimizeRequest.build(qon_instance, "sampling", samples=80)
        assert narrow.fingerprint() != wide.fingerprint()

    def test_wrong_schema_is_rejected(self, qon_instance):
        payload = api.OptimizeRequest.build(qon_instance).to_dict()
        payload["schema"] = "repro.request/99"
        with pytest.raises(ValidationError, match="schema"):
            validate_request(payload)

    def test_missing_field_is_rejected(self, qon_instance):
        payload = api.OptimizeRequest.build(qon_instance).to_dict()
        del payload["algorithm"]
        with pytest.raises(ValidationError, match="algorithm"):
            api.OptimizeRequest.from_dict(payload)

    def test_wrong_field_type_is_rejected(self, qon_instance):
        payload = api.OptimizeRequest.build(qon_instance).to_dict()
        payload["no_cache"] = "yes"
        with pytest.raises(ValidationError, match="no_cache"):
            validate_request(payload)


# ---------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------


class TestSweepSpec:
    def make_spec(self, qon_instance):
        return api.SweepSpec.build(
            ["dp", "greedy"],
            [("q5", qon_instance)],
            params={("greedy", "q5"): {"rng": 3}},
            workers=1,
            timeout=30.0,
            retries=2,
            backoff=0.0,
        )

    def test_json_round_trip(self, qon_instance):
        spec = self.make_spec(qon_instance)
        restored = api.SweepSpec.from_json(spec.to_json())
        assert restored.optimizers == ("dp", "greedy")
        assert restored.kwargs_for("greedy", "q5") == {"rng": 3}
        assert restored.kwargs_for("dp", "q5") == {}
        assert restored.retries == 2
        assert restored.to_json() == spec.to_json()

    def test_fingerprint_covers_runner_settings(self, qon_instance):
        spec = self.make_spec(qon_instance)
        restored = api.SweepSpec.from_json(spec.to_json())
        assert restored.fingerprint() == spec.fingerprint()
        retuned = api.SweepSpec.build(
            ["dp", "greedy"], [("q5", qon_instance)],
            params={("greedy", "q5"): {"rng": 3}},
            workers=1, timeout=30.0, retries=3, backoff=0.0,
        )
        assert retuned.fingerprint() != spec.fingerprint()

    def test_execute_request_matches_direct_sweep(self, qon_instance):
        spec = api.SweepSpec.build(["dp"], [("q5", qon_instance)], workers=1)
        served = api.execute_request(
            api.SweepSpec.from_json(spec.to_json())
        )
        direct = api.sweep(spec)
        assert [o.result.cost for o in served] == [
            o.result.cost for o in direct
        ]

    def test_missing_runner_field_is_rejected(self, qon_instance):
        payload = self.make_spec(qon_instance).to_dict()
        del payload["workers"]
        with pytest.raises(ValidationError, match="workers"):
            validate_request(payload)


# ---------------------------------------------------------------------
# ServiceReply
# ---------------------------------------------------------------------


class TestServiceReply:
    def test_plan_result_reply_round_trip(self, qon_instance):
        result = api.optimize(qon_instance, "dp")
        reply = api.ServiceReply(
            op="optimize", result=result, fingerprint="abc",
            wall_time_s=0.25, counters=(("cache.hits", 3),),
        )
        restored = api.ServiceReply.from_json(reply.to_json())
        assert restored.ok
        assert_bit_identical(restored.result, result)
        assert restored.counters == (("cache.hits", 3),)

    def test_rejected_reply_round_trip(self):
        reply = api.ServiceReply(
            op="optimize", status="rejected", error="queue full",
            retry_after=0.05,
        )
        restored = api.ServiceReply.from_json(reply.to_json())
        assert restored.rejected
        assert restored.retry_after == 0.05
        assert restored.result is None

    def test_bad_status_is_rejected(self):
        payload = api.ServiceReply(op="optimize").to_dict()
        payload["status"] = "maybe"
        with pytest.raises(ValidationError, match="status"):
            validate_reply(payload)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda r: r["outcomes"][0].pop("cache"), id="no-cache"),
        pytest.param(lambda r: r["outcomes"][0].pop("index"), id="no-index"),
        pytest.param(
            lambda r: r["outcomes"][0].pop("optimizer"), id="no-optimizer"
        ),
        pytest.param(
            lambda r: r.update(outcomes="dp"), id="outcomes-not-a-list"
        ),
        pytest.param(
            lambda r: r["outcomes"][0].update(failure="exploded"),
            id="unknown-failure",
        ),
        pytest.param(lambda r: r.pop("mode"), id="no-mode"),
        pytest.param(
            lambda r: r["outcomes"][0]["result"].pop("cost"),
            id="result-without-cost",
        ),
    ])
    def test_malformed_sweep_reply_is_rejected(self, qon_instance, corrupt):
        spec = api.SweepSpec.build(["dp"], [("q5", qon_instance)], workers=1)
        reply = api.ServiceReply(op="sweep", result=api.sweep(spec))
        payload = reply.to_dict()
        api.ServiceReply.from_dict(payload)  # the intact reply decodes
        corrupt(payload["result"])
        with pytest.raises(ValidationError):
            api.ServiceReply.from_dict(payload)

    def test_non_ok_reply_cannot_carry_a_result(self, qon_instance):
        payload = api.ServiceReply(
            op="optimize", result=api.optimize(qon_instance, "dp"),
        ).to_dict()
        payload["status"] = "error"
        payload["error"] = "boom"
        with pytest.raises(ValidationError, match="non-ok"):
            validate_reply(payload)


# ---------------------------------------------------------------------
# Validation message text
# ---------------------------------------------------------------------


def raised_message(build):
    """The text of the :class:`ValidationError` ``build()`` raises; the
    error must be exactly that type."""
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError
    return str(info.value)


class TestMessageText:
    """The request path's checks say exactly this when they fail."""

    def test_out_of_range_edge_endpoint(self):
        assert raised_message(lambda: Graph(3, [(0, 5)])) == (
            "edge endpoint must lie in [0, 3), got 5"
        )
        assert raised_message(lambda: Graph(3, [(-1, 2)])) == (
            "edge endpoint must lie in [0, 3), got -1"
        )

    def test_self_loop(self):
        assert raised_message(lambda: Graph(3, [(1, 1)])) == (
            "self-loop at vertex 1 is not allowed"
        )

    def test_selectivity_on_a_non_edge(self):
        graph = Graph(3, [(0, 1)])
        assert raised_message(lambda: QONInstance(
            graph, [4, 4, 4],
            {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)},
        )) == "selectivity on non-edge (0,2)"
        assert raised_message(lambda: QONInstance(
            graph, [4, 4, 4], {(0, 3): Fraction(1, 2)},
        )) == "selectivity index must lie in [0, 3), got 3"

    def test_access_cost_outside_its_bounds(self):
        graph = Graph(2, [(0, 1)])
        assert raised_message(lambda: QONInstance(
            graph, [4, 6], {(0, 1): Fraction(1, 4)},
            {(0, 1): Fraction(13, 2)},
        )) == "w[0][1]=Fraction(13, 2) violates [Fraction(3, 2), 6]"
        assert raised_message(lambda: QONInstance(
            graph, [4, 6], {(0, 1): Fraction(1, 4)}, {(1, 0): 0},
        )) == "w[1][0]=0 violates [Fraction(1, 1), 4]"

    def test_instance_statistics(self):
        graph = Graph(2, [(0, 1)])
        assert raised_message(lambda: QONInstance(
            graph, [4], {(0, 1): Fraction(1, 4)},
        )) == "need 2 sizes, got 1"
        assert raised_message(lambda: QONInstance(
            graph, [4, 0], {(0, 1): Fraction(1, 4)},
        )) == "relation size t_1 must be positive"
        assert raised_message(lambda: QONInstance(
            graph, [4, 6], {(0, 1): Fraction(5, 4)},
        )) == "selectivity (0, 1) must lie in (0, 1]"
        assert raised_message(lambda: QONInstance(graph, [4, 6], {})) == (
            "missing selectivity for edge (0, 1)"
        )

    def test_optimize_payload_of_the_wrong_type(self, qon_instance):
        spec = api.SweepSpec.build(["dp"], [("q5", qon_instance)])
        assert raised_message(
            lambda: api.OptimizeRequest.from_dict(spec.to_dict())
        ) == "expected an optimize_request payload, got 'sweep_spec'"
        request = api.OptimizeRequest.build(qon_instance)
        assert raised_message(
            lambda: api.SweepSpec.from_dict(request.to_dict())
        ) == "expected a sweep_spec payload, got 'optimize_request'"
        payload = request.to_dict()
        payload["type"] = "plan"
        assert raised_message(lambda: validate_request(payload)) == (
            "request type must be one of "
            "['optimize_request', 'sweep_spec'], got 'plan'"
        )

    def test_request_schema_and_fields(self, qon_instance):
        payload = api.OptimizeRequest.build(qon_instance).to_dict()
        assert raised_message(
            lambda: validate_request({**payload, "schema": "x/1"})
        ) == "request schema must be 'repro.request/1', got 'x/1'"
        missing = dict(payload)
        del missing["algorithm"]
        assert raised_message(lambda: validate_request(missing)) == (
            "request: missing field 'algorithm'"
        )
        assert raised_message(
            lambda: validate_request({**payload, "no_cache": "yes"})
        ) == "request.no_cache: expected <class 'bool'>, got str"
        assert raised_message(
            lambda: validate_request({**payload, "params": True})
        ) == "request.params: expected <class 'list'>, got bool"
        spec = api.SweepSpec.build(["dp"], [("q5", qon_instance)]).to_dict()
        del spec["workers"]
        assert raised_message(lambda: validate_request(spec)) == (
            "request: missing field 'workers'"
        )
        spec["workers"] = "2"
        assert raised_message(lambda: validate_request(spec)) == (
            "request.workers must be null or an int"
        )

    def test_reply_with_an_unknown_status(self):
        payload = api.ServiceReply(op="optimize").to_dict()
        assert raised_message(
            lambda: validate_reply({**payload, "status": "maybe"})
        ) == (
            "reply.status must be one of ['ok', 'error', 'rejected'], "
            "got 'maybe'"
        )
        assert raised_message(
            lambda: validate_reply({**payload, "schema": None})
        ) == "reply schema must be 'repro.reply/1', got None"
        assert raised_message(
            lambda: validate_reply({**payload, "fingerprint": 7})
        ) == "reply.fingerprint must be null or a string"

    def test_result_payload_of_the_wrong_type(self, qon_instance):
        payload = result_to_dict(api.optimize(qon_instance, "dp"))
        assert raised_message(
            lambda: result_from_dict({**payload, "type": "plan"})
        ) == "result payload type must be 'plan_result', got 'plan'"
        assert raised_message(
            lambda: result_from_dict({**payload, "explored": "9"})
        ) == "result.explored: expected <class 'int'>, got str"

    def test_frames(self):
        assert raised_message(lambda: protocol.request_frame("stats", 1)) == (
            "unknown op 'stats'; known: "
            "['hello', 'optimize', 'sweep', 'metrics', 'shutdown']"
        )
        frame = protocol.request_frame("optimize", 1, {})
        assert raised_message(
            lambda: protocol.validate_request_frame({**frame, "rpc": "x"})
        ) == "frame rpc must be 'repro.rpc/1', got 'x'"
        assert raised_message(
            lambda: protocol.validate_request_frame({**frame, "op": "x"})
        ) == (
            "unknown op 'x'; known: "
            "['hello', 'optimize', 'sweep', 'metrics', 'shutdown']"
        )
        assert raised_message(
            lambda: protocol.validate_request_frame(
                {**frame, "payload": None}
            )
        ) == "op 'optimize' requires a request payload"
        reply = protocol.reply_frame(1, {})
        assert raised_message(
            lambda: protocol.validate_reply_frame({**reply, "rpc": None})
        ) == "frame rpc must be 'repro.rpc/1', got None"

    def test_instance_payload_of_an_unknown_type(self):
        assert raised_message(lambda: io.from_dict({"type": "tree"})) == (
            "unknown payload type 'tree'"
        )


# ---------------------------------------------------------------------
# The two forms of optimize (the kwarg shims are gone)
# ---------------------------------------------------------------------


class TestDeprecationShims:
    def test_optimize_without_kwargs_does_not_warn(self, qon_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            api.optimize(qon_instance, "dp")
            api.optimize(api.OptimizeRequest.build(qon_instance, "dp"))

    def test_request_shim_refuses_extra_arguments(self, qon_instance):
        request = api.OptimizeRequest.build(qon_instance, "dp")
        with pytest.raises(ValidationError, match="no extra arguments"):
            api.optimize(request, "greedy")


# ---------------------------------------------------------------------
# Capabilities
# ---------------------------------------------------------------------


class TestCapabilities:
    def test_payload_is_json_safe_and_complete(self):
        payload = api.capabilities()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["api_version"] == api.API_VERSION
        assert REQUEST_SCHEMA in payload["rpc_schemas"]
        assert REPLY_SCHEMA in payload["rpc_schemas"]
        assert "repro.rpc/1" in payload["rpc_schemas"]
        assert payload["request_types"] == [
            "optimize_request", "sweep_spec",
        ]
        assert "dp" in payload["optimizers"]
        assert "qoh-exhaustive" in payload["optimizers"]
        assert set(payload["families"]) == set(api.FAMILIES)

    def test_rpc_schemas_are_exactly_the_wire_schemas(self):
        # The daemon speaks frames, requests, replies and metrics
        # snapshots; no other schema is advertised.
        assert api.capabilities()["rpc_schemas"] == [
            "repro.rpc/1", "repro.request/1", "repro.reply/1",
            "repro.metrics/1",
        ]
