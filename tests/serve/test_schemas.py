"""Wire schemas: strict request parsing, round-trips, and the one
response envelope both transports share."""

import json

import pytest

from repro.errors import ClaraError, InvalidWorkloadError, UnknownElementError
from repro.serve.schemas import (
    REQUEST_KINDS,
    WIRE_SCHEMA,
    AnalyzeRequest,
    ColocationRequest,
    LintRequest,
    dump_envelope,
    envelope,
    error_envelope,
    request_from_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.workload.spec import WorkloadSpec


class TestWorkloadWire:
    def test_round_trip(self):
        spec = WorkloadSpec(name="w", n_flows=64, packet_bytes=128,
                            zipf_alpha=1.2, udp_fraction=1.0, n_packets=50)
        assert workload_from_dict(workload_to_dict(spec)) == spec

    def test_empty_dict_is_default_spec(self):
        assert workload_from_dict({}) == WorkloadSpec()

    def test_unknown_field_rejected_with_known_list(self):
        with pytest.raises(InvalidWorkloadError, match="n_flowz"):
            workload_from_dict({"n_flowz": 10})

    def test_non_object_rejected(self):
        with pytest.raises(InvalidWorkloadError, match="JSON object"):
            workload_from_dict([1, 2])

    def test_spec_validation_still_applies(self):
        with pytest.raises(InvalidWorkloadError):
            workload_from_dict({"n_flows": 0})

    @pytest.mark.parametrize("field,value,match", [
        ("n_packets", 1.5, "n_packets must be an integer, got float"),
        ("n_flows", 1e12, "n_flows must be an integer, got float"),
        ("n_flows", True, "n_flows must be an integer, got bool"),
        ("packet_bytes", "256", "packet_bytes must be an integer, got str"),
        ("payload_bytes", None, "payload_bytes must be an integer"),
        ("n_flows", 10**12, "n_flows must be <= 1_000_000"),
        ("n_packets", 100_001, "n_packets must be <= 100_000"),
        ("packet_bytes", 70_000, "packet_bytes must be <= 65_535"),
        ("payload_bytes", -1, "payload_bytes must be >= 0"),
        ("zipf_alpha", "1.0", "zipf_alpha must be a number, got str"),
        ("zipf_alpha", float("nan"), "zipf_alpha must be finite"),
        ("zipf_alpha", 10**400, "zipf_alpha must be within"),
        ("syn_fraction", float("inf"), "syn_fraction must be finite"),
        ("udp_fraction", False, "udp_fraction must be a number, got bool"),
        ("name", 7, "name must be a string, got int"),
    ])
    def test_wrong_typed_or_oversized_fields_are_invalid(self, field, value,
                                                         match):
        with pytest.raises(InvalidWorkloadError, match=match):
            workload_from_dict({field: value})
        # The Python API gives the same error as the wire.
        with pytest.raises(InvalidWorkloadError, match=match):
            WorkloadSpec(**{field: value})

    def test_caps_are_inclusive(self):
        from repro.workload.spec import MAX_FLOWS, MAX_PACKETS

        spec = workload_from_dict({"n_flows": MAX_FLOWS,
                                   "n_packets": MAX_PACKETS,
                                   "zipf_alpha": 0})
        assert (spec.n_flows, spec.n_packets) == (MAX_FLOWS, MAX_PACKETS)


class TestAnalyzeRequest:
    def test_round_trip(self):
        req = AnalyzeRequest(
            element="aggcounter",
            workload=WorkloadSpec(name="w", n_packets=40),
            trace_seed=7,
        )
        wire = req.to_dict()
        assert wire["schema"] == WIRE_SCHEMA
        assert wire["kind"] == "analyze_request"
        assert AnalyzeRequest.from_dict(wire) == req
        assert AnalyzeRequest.from_dict(json.loads(json.dumps(wire))) == req

    def test_header_is_optional(self):
        req = AnalyzeRequest.from_dict({"element": "aggcounter"})
        assert req.element == "aggcounter"
        assert req.workload == WorkloadSpec()
        assert req.trace_seed == 0

    def test_missing_element_rejected(self):
        with pytest.raises(ClaraError, match="element"):
            AnalyzeRequest.from_dict({})

    def test_unknown_field_rejected(self):
        with pytest.raises(ClaraError, match="wlrkload"):
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "wlrkload": {}}
            )

    def test_future_schema_rejected(self):
        with pytest.raises(ClaraError, match="wire schema"):
            AnalyzeRequest.from_dict(
                {"schema": WIRE_SCHEMA + 1, "element": "aggcounter"}
            )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ClaraError, match="expected kind"):
            AnalyzeRequest.from_dict(
                {"kind": "lint_request", "element": "aggcounter"}
            )

    def test_target_round_trips(self):
        req = AnalyzeRequest(element="aggcounter", target="dpu-offpath")
        wire = req.to_dict()
        assert wire["target"] == "dpu-offpath"
        assert AnalyzeRequest.from_dict(wire) == req

    def test_target_defaults_to_none(self):
        assert AnalyzeRequest.from_dict(
            {"element": "aggcounter"}
        ).target is None

    def test_unknown_target_rejected_at_parse_time(self):
        from repro.errors import UnknownTargetError

        with pytest.raises(UnknownTargetError, match="no-such-nic"):
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "target": "no-such-nic"}
            )

    def test_non_string_target_rejected(self):
        with pytest.raises(ClaraError, match="must be a string"):
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "target": 7}
            )

    @pytest.mark.parametrize("seed", ["x", "3", 1.5, 2.0, True, False,
                                      None, [1]])
    def test_non_integer_trace_seed_rejected(self, seed):
        # No parsing, truncation, or bool-as-int: only a JSON integer.
        with pytest.raises(ClaraError, match="'trace_seed' must be an"
                                             " integer") as info:
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "trace_seed": seed}
            )
        assert type(info.value) is ClaraError  # plain 400, not a 500

    def test_integer_trace_seed_accepted(self):
        for seed in (0, 7, -3, 2**40):
            assert AnalyzeRequest.from_dict(
                {"element": "aggcounter", "trace_seed": seed}
            ).trace_seed == seed


class TestLintRequest:
    def test_round_trip(self):
        req = LintRequest(elements=("aggcounter",), only=("CL007",),
                          disable=None)
        assert LintRequest.from_dict(req.to_dict()) == req

    def test_defaults_mean_whole_corpus(self):
        req = LintRequest.from_dict({})
        assert req.elements is None and req.only is None \
            and req.disable is None

    def test_non_string_lists_rejected(self):
        with pytest.raises(ClaraError, match="list of strings"):
            LintRequest.from_dict({"elements": "aggcounter"})
        with pytest.raises(ClaraError, match="list of strings"):
            LintRequest.from_dict({"only": [7]})

    def test_target_round_trips(self):
        req = LintRequest(elements=("aggcounter",), target="dpu-offpath")
        assert LintRequest.from_dict(req.to_dict()) == req

    def test_unknown_target_rejected(self):
        from repro.errors import UnknownTargetError

        with pytest.raises(UnknownTargetError):
            LintRequest.from_dict({"target": "no-such-nic"})

    def test_baseline_fingerprints_round_trip(self):
        req = LintRequest(
            elements=("aggcounter",),
            baseline=("a" * 16, "b" * 16),
        )
        wire = req.to_dict()
        assert wire["baseline"] == ["a" * 16, "b" * 16]
        assert LintRequest.from_dict(wire) == req
        assert LintRequest.from_dict({}).baseline is None

    def test_non_string_baseline_rejected(self):
        with pytest.raises(ClaraError, match="list of strings"):
            LintRequest.from_dict({"baseline": [12345]})


class TestLintRunPayload:
    def _report(self):
        from repro.nfir import Function, I32, IRBuilder, Module
        from repro.nfir.analysis import lint_module

        module = Module("fixture")
        f = Function("pkt_handler")
        b = IRBuilder(f, f.add_block("entry"))
        b.binop("sdiv", b.const(I32, 8), b.const(I32, 3))
        b.ret()
        module.add_function(f)
        return lint_module(module, only=["CL001"])

    def test_counters_present_and_deterministic(self):
        from repro.serve.schemas import lint_run_payload

        report = self._report()
        payload = lint_run_payload([report], target="nfp-4000")
        assert payload["n_errors"] == 0
        assert payload["n_warnings"] == 1
        assert payload["n_suppressed"] == 0
        assert payload["n_baselined"] == 0
        # Run-varying cache counters must never leak into the payload:
        # the CLI and the server promise byte-identical envelopes.
        assert "cache" not in payload

    def test_stats_feed_the_baselined_counter(self):
        from repro.serve.schemas import lint_run_payload

        payload = lint_run_payload(
            [self._report()],
            target="nfp-4000",
            stats={"cache": "on", "hits": 3, "n_baselined": 2},
        )
        assert payload["n_baselined"] == 2
        assert "cache" not in payload


class TestColocationRequest:
    def test_round_trip(self):
        req = ColocationRequest(
            elements=("aggcounter", "udpcount"),
            workload=WorkloadSpec(name="w", n_packets=40),
        )
        assert ColocationRequest.from_dict(req.to_dict()) == req

    def test_fewer_than_two_elements_rejected(self):
        with pytest.raises(ClaraError, match="at least two"):
            ColocationRequest(elements=("solo",))
        with pytest.raises(ClaraError, match="at least two"):
            ColocationRequest.from_dict({"elements": ["solo"]})

    def test_missing_elements_rejected(self):
        with pytest.raises(ClaraError, match="elements"):
            ColocationRequest.from_dict({})

    @pytest.mark.parametrize("seed", ["x", 1.5, True])
    def test_non_integer_trace_seed_rejected(self, seed):
        with pytest.raises(ClaraError, match="'trace_seed' must be an"
                                             " integer"):
            ColocationRequest.from_dict({
                "elements": ["aggcounter", "udpcount"], "trace_seed": seed,
            })


class TestDispatch:
    def test_kind_routes_to_the_right_class(self):
        req = request_from_dict(
            {"kind": "analyze_request", "element": "aggcounter"}
        )
        assert isinstance(req, AnalyzeRequest)
        req = request_from_dict({"kind": "lint_request"})
        assert isinstance(req, LintRequest)

    def test_unknown_kind_lists_known_ones(self):
        with pytest.raises(ClaraError, match="analyze_request"):
            request_from_dict({"kind": "mystery"})

    def test_request_kinds_cover_all_classes(self):
        assert sorted(REQUEST_KINDS) == [
            "analyze_request", "colocation_request", "lint_request",
        ]


class TestEnvelope:
    def test_success_shape(self):
        env = envelope("analysis_result", {"x": 1})
        assert env == {
            "schema": WIRE_SCHEMA,
            "kind": "analysis_result",
            "request_id": None,
            "result": {"x": 1},
            "error": None,
        }

    def test_request_id_stamped_from_ambient_context(self):
        from repro.obs import RequestContext, use_request

        with use_request(RequestContext(request_id="abc123")):
            env = envelope("health", {"ready": True})
        assert env["request_id"] == "abc123"
        assert envelope("health", {"ready": True})["request_id"] is None

    def test_error_shape_carries_typed_facts(self):
        env = error_envelope(UnknownElementError("unknown element 'nope'"))
        assert env["result"] is None
        assert env["error"] == {
            "type": "UnknownElementError",
            "message": "unknown element 'nope'",
            "exit_code": UnknownElementError.exit_code,
            "http_status": 404,
        }

    def test_dump_is_parseable_and_stable(self):
        env = envelope("health", {"ready": True})
        text = dump_envelope(env)
        assert json.loads(text) == env
        assert text == dump_envelope(env)
        assert not text.endswith("\n")
