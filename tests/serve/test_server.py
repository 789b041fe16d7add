"""End-to-end daemon tests: an in-process ``ClaraServer`` on an
ephemeral port, driven over real HTTP with urllib.

The load-bearing assertions: CLI ``--json`` output and server response
bodies are byte-identical (one serializer, two transports), concurrent
batched inference returns exactly the sequential answers, and every
``ClaraError`` maps to its documented HTTP status.
"""

import http.client as httpclient
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.serve import ServeConfig, build_server
from repro.serve.schemas import WIRE_SCHEMA

#: the wire form of the CLI's default workload at ``--packets 60``
#: (see ``_workload_from_args``), for byte-parity tests.
CLI_WORKLOAD_60 = {
    "name": "cli",
    "n_flows": 10_000,
    "packet_bytes": 256,
    "zipf_alpha": 1.0,
    "udp_fraction": 0.0,
    "n_packets": 60,
}


def http(server, path, payload=None, raw=None, method=None, headers=None):
    """``(status, headers, body_bytes)`` for one request; HTTP errors
    are returned, not raised."""
    if raw is None and payload is not None:
        raw = json.dumps(payload).encode("utf-8")
    all_headers = {"Content-Type": "application/json"} if raw else {}
    all_headers.update(headers or {})
    req = urllib.request.Request(
        server.url(path), data=raw, method=method, headers=all_headers,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def body_json(body):
    return json.loads(body.decode("utf-8"))


def poll_journal(timeout_s=5.0, **filters):
    """Journal events matching ``filters``, polling briefly: finish and
    slow-capture events are emitted *after* the response is sent, so an
    immediate read can race the handler thread."""
    import time

    from repro.obs.events import get_journal

    deadline = time.monotonic() + timeout_s
    events = get_journal().snapshot(**filters)
    while not events and time.monotonic() < deadline:
        time.sleep(0.02)
        events = get_journal().snapshot(**filters)
    return events


@pytest.fixture(scope="module")
def server(clara_artifacts):
    from repro.core import Clara

    clara = Clara.load(clara_artifacts["artifact"])
    config = ServeConfig(
        port=0,  # ephemeral
        batch_window_ms=5.0,
        colocation_programs=6,
        colocation_groups=4,
    )
    srv = build_server(clara, config)
    srv.start()
    yield srv
    srv.shutdown()


class TestHealthAndMetrics:
    def test_healthz_reports_ready(self, server):
        status, _headers, body = http(server, "/healthz")
        assert status == 200
        env = body_json(body)
        assert env["schema"] == WIRE_SCHEMA
        assert env["kind"] == "health"
        result = env["result"]
        assert result["ready"] is True and result["trained"] is True
        assert result["wire_schema"] == WIRE_SCHEMA
        assert "analyze_request" in result["request_kinds"]
        assert result["batching"]["max_batch"] >= 1
        targets = result["targets"]
        assert targets["default"] == "nfp-4000"
        assert "dpu-offpath" in targets["available"]
        assert targets["warm"] == ["nfp-4000"]

    def test_healthz_cold_clara_is_503(self):
        from repro.core import Clara

        srv = build_server(Clara(seed=0), ServeConfig(port=0))
        srv.start()
        try:
            status, _headers, body = http(srv, "/healthz")
            assert status == 503
            assert body_json(body)["result"]["ready"] is False
        finally:
            srv.shutdown()

    def test_metrics_is_prometheus_text(self, server):
        # Generate at least one instrumented request first.
        http(server, "/healthz")
        status, headers, body = http(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "http_requests_total" in text
        assert "http_request_seconds" in text
        assert "http_inflight_requests" in text


    def test_metrics_has_a_latency_histogram_per_analyze_stage(self, server):
        from repro.core.pipeline import STAGE_HISTOGRAM
        from repro.obs import validate_exposition

        status, _headers, _body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "workload": {"n_packets": 5},
        })
        assert status == 200
        _status, _headers, body = http(server, "/metrics")
        text = body.decode("utf-8")
        assert validate_exposition(text) == []
        samples = [line for line in text.splitlines()
                   if line.startswith(STAGE_HISTOGRAM + "_count")]
        for stage in ("prepare", "profile_on_host", "characterize",
                      "predict", "identify", "scaleout", "placement",
                      "coalescing", "lint"):
            assert any(f'stage="{stage}"' in line for line in samples), stage


    def test_memo_hit_still_counts_lint_diagnostics_and_stage(self, server):
        """A repeat analyze answers lint from the static memo, but its
        diagnostics and its lint stage are still counted per request."""
        from repro.core.pipeline import STAGE_HISTOGRAM

        def scrape():
            text = http(server, "/metrics")[2].decode("utf-8")
            stage = [line for line in text.splitlines() if line.startswith(
                STAGE_HISTOGRAM + '_count{stage="lint"}')]
            diags = sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("lint_diagnostics{")
            )
            return float(stage[0].rsplit(" ", 1)[1]) if stage else 0.0, diags

        clara = server.service.clara
        clara.clear_static_memo()
        stages0, diags0 = scrape()
        payload = {"element": "iplookup", "workload": {"n_packets": 5}}
        assert http(server, "/v1/analyze", payload=payload)[0] == 200
        stages1, diags1 = scrape()
        assert len(clara._static_memo) == 1
        assert http(server, "/v1/analyze", payload=payload)[0] == 200
        stages2, diags2 = scrape()
        assert len(clara._static_memo) == 1  # the second was a hit
        per_analyze = diags1 - diags0
        assert per_analyze > 0
        assert diags2 - diags0 == 2 * per_analyze
        assert (stages1 - stages0, stages2 - stages0) == (1, 2)


class TestKeepAlive:
    """A reused connection must not pay a delayed-ACK stall per
    response: the handler writes headers and body separately, and
    without TCP_NODELAY Nagle holds the body back ~40 ms."""

    def test_keepalive_responses_are_not_stalled(self, server):
        conn = httpclient.HTTPConnection(server.host, server.port,
                                         timeout=30)
        latencies_ms = []
        try:
            for _ in range(15):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                latencies_ms.append((time.perf_counter() - start) * 1e3)
                assert resp.status == 200
                assert not resp.will_close  # one connection throughout
        finally:
            conn.close()
        assert statistics.median(latencies_ms) < 20.0, latencies_ms

    def test_accepted_sockets_have_tcp_nodelay(self, server, monkeypatch):
        handler_cls = server._httpd.RequestHandlerClass
        original_setup = handler_cls.setup
        seen = []

        def setup(handler):
            original_setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(handler_cls, "setup", setup)
        http(server, "/healthz")
        assert seen and all(seen)


class TestCliParity:
    """One serializer, two transports.  The envelope stamps the ambient
    request id, so parity needs both transports to carry the same one:
    the CLI's ``--request-id`` flag is the twin of the daemon's
    ``X-Clara-Request-Id`` header."""

    def test_analyze_body_matches_cli_json_bytes(
        self, server, clara_artifacts, capsys
    ):
        assert main(["analyze", "aggcounter", "--packets", "60", "--json",
                     "--request-id", "parity-1",
                     "--load", str(clara_artifacts["artifact"])]) == 0
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        status, _headers, body = http(server, "/v1/analyze", payload={
            "schema": WIRE_SCHEMA,
            "kind": "analyze_request",
            "element": "aggcounter",
            "workload": CLI_WORKLOAD_60,
        }, headers={"X-Clara-Request-Id": "parity-1"})
        assert status == 200
        assert body == cli_bytes

    def test_lint_body_matches_cli_json_bytes(self, server, capsys):
        main(["lint", "aggcounter", "--json", "--request-id", "parity-2"])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        status, _headers, body = http(
            server, "/v1/lint", payload={"elements": ["aggcounter"]},
            headers={"X-Clara-Request-Id": "parity-2"},
        )
        assert status == 200
        assert body == cli_bytes
        env = body_json(body)
        assert env["kind"] == "lint_run"
        assert env["result"]["reports"][0]["module"] == "aggcounter"

    def test_dpu_lint_body_matches_cli_json_bytes(self, server, capsys):
        main(["lint", "loadbalancer", "--target", "dpu-offpath", "--json",
              "--request-id", "parity-3"])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        status, _headers, body = http(server, "/v1/lint", payload={
            "elements": ["loadbalancer"], "target": "dpu-offpath",
        }, headers={"X-Clara-Request-Id": "parity-3"})
        assert status == 200
        assert body == cli_bytes


class TestAnalyze:
    def test_concurrent_analyzes_equal_sequential(self, server):
        elements = ["aggcounter", "udpcount", "iplookup"]
        payloads = [
            {"element": name, "workload": {"name": "t", "n_packets": 50}}
            for name in elements
        ]
        def ask(payload):
            # Every request gets its own generated correlation id;
            # strip it so only the analysis content is compared.
            env = body_json(http(server, "/v1/analyze", payload=payload)[2])
            del env["request_id"]
            return env

        sequential = [ask(p) for p in payloads]

        before = server.service.broker.n_jobs
        barrier = threading.Barrier(len(payloads))
        concurrent = [None] * len(payloads)

        def worker(i):
            barrier.wait()
            concurrent[i] = ask(payloads[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(payloads))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Batch composition must not change any answer.
        assert concurrent == sequential
        # All three went through the broker.
        assert server.service.broker.n_jobs >= before + len(payloads)

    def test_trace_seed_is_honored(self, server):
        def ask(seed):
            env = body_json(http(server, "/v1/analyze", payload={
                "element": "aggcounter",
                "workload": {"name": "t", "n_packets": 50},
                "trace_seed": seed,
            })[2])
            del env["request_id"]  # generated fresh per request
            return env

        assert ask(3) == ask(3)  # deterministic per seed


class TestColocation:
    def test_ranking_covers_all_pairs(self, server):
        elements = ["aggcounter", "udpcount", "iplookup"]
        status, _headers, body = http(server, "/v1/colocation", payload={
            "elements": elements,
            "workload": {"name": "t", "n_packets": 50},
        })
        assert status == 200
        env = body_json(body)
        assert env["kind"] == "colocation_ranking"
        pairs = env["result"]["pairs"]
        assert len(pairs) == 3  # C(3, 2)
        names = {(p["a"]["name"], p["b"]["name"]) for p in pairs}
        assert len(names) == 3
        assert [p["rank"] for p in pairs] == [0, 1, 2]

    def test_lazy_ranker_trains_once(self, server):
        status, _headers, body = http(server, "/healthz")
        assert status == 200
        assert body_json(body)["result"]["colocation_trained"] is True
        ranker = server.service.clara.colocation
        http(server, "/v1/colocation", payload={
            "elements": ["aggcounter", "udpcount"],
            "workload": {"name": "t", "n_packets": 50},
        })
        assert server.service.clara.colocation is ranker


class TestErrorMapping:
    def test_unknown_element_is_404(self, server):
        status, _headers, body = http(
            server, "/v1/analyze", payload={"element": "nope"}
        )
        assert status == 404
        error = body_json(body)["error"]
        assert error["type"] == "UnknownElementError"
        assert error["http_status"] == 404

    def test_invalid_workload_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "workload": {"n_flows": 0},
        })
        assert status == 400
        assert body_json(body)["error"]["type"] == "InvalidWorkloadError"

    @pytest.mark.parametrize("workload,match", [
        ({"n_packets": 1.5}, "n_packets must be an integer"),
        ({"n_flows": 1e12}, "n_flows must be an integer"),
        ({"n_flows": 10**12}, "n_flows must be <= 1_000_000"),
        ({"n_packets": 10**6}, "n_packets must be <= 100_000"),
        ({"zipf_alpha": "skewed"}, "zipf_alpha must be a number"),
    ])
    def test_wrong_typed_or_oversized_workload_is_400(self, server, workload,
                                                      match):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "workload": workload,
        })
        assert status == 400
        error = body_json(body)["error"]
        assert error["type"] == "InvalidWorkloadError"
        assert match in error["message"]
        assert "Traceback" not in error["message"]

    def test_unknown_workload_field_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "workload": {"n_flowz": 7},
        })
        assert status == 400
        assert "n_flowz" in body_json(body)["error"]["message"]

    def test_bad_json_is_400(self, server):
        status, _headers, body = http(
            server, "/v1/analyze", raw=b"this is not json"
        )
        assert status == 400
        assert "JSON" in body_json(body)["error"]["message"]

    def test_empty_body_is_400(self, server):
        status, _headers, body = http(
            server, "/v1/analyze", raw=b"", method="POST"
        )
        assert status == 400
        assert "empty" in body_json(body)["error"]["message"]

    def test_unknown_request_field_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "elemnt_typo": 1,
        })
        assert status == 400
        assert "elemnt_typo" in body_json(body)["error"]["message"]

    def test_mismatched_kind_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "kind": "lint_request", "element": "aggcounter",
        })
        assert status == 400
        assert "expected kind" in body_json(body)["error"]["message"]

    def test_unknown_paths_are_404(self, server):
        for path, raw in (("/nope", None), ("/v1/nope", b"{}")):
            status, _headers, body = http(server, path, raw=raw)
            assert status == 404
            assert body_json(body)["error"]["type"] == "ClaraError"

    def test_unknown_target_is_404(self, server):
        for path, payload in (
            ("/v1/analyze", {"element": "aggcounter",
                             "target": "no-such-nic"}),
            ("/v1/lint", {"target": "no-such-nic"}),
        ):
            status, _headers, body = http(server, path, payload=payload)
            assert status == 404
            error = body_json(body)["error"]
            assert error["type"] == "UnknownTargetError"
            assert "no-such-nic" in error["message"]

    def test_bad_lint_rule_is_400_with_known_codes(self, server):
        status, _headers, body = http(
            server, "/v1/lint", payload={"only": ["CL999"]}
        )
        assert status == 400
        assert "CL001" in body_json(body)["error"]["message"]

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
    def test_malformed_content_length_is_400(self, server, length):
        conn = httpclient.HTTPConnection(server.host, server.port,
                                         timeout=30)
        try:
            conn.putrequest("POST", "/v1/analyze")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders(b'{"element": "aggcounter"}')
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        assert resp.status == 400
        # The body's extent is unknown, so the server drops the
        # connection and says so.
        assert resp.getheader("Connection") == "close"
        error = body_json(body)["error"]
        assert error["type"] == "ClaraError"
        assert "Content-Length" in error["message"]

    def test_oversized_body_is_413_before_any_read(self, server):
        from repro.serve import MAX_BODY_BYTES

        conn = httpclient.HTTPConnection(server.host, server.port,
                                         timeout=30)
        try:
            conn.putrequest("POST", "/v1/analyze")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            # Only a fraction is sent: the server must answer from the
            # header alone instead of waiting for the rest.
            conn.endheaders(b'{"element": "aggcounter"')
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        assert resp.status == 413
        assert resp.getheader("Connection") == "close"
        error = body_json(body)["error"]
        assert error["type"] == "PayloadTooLargeError"
        assert error["http_status"] == 413
        assert str(MAX_BODY_BYTES) in error["message"]

    def test_body_at_the_cap_is_read(self, server):
        from repro.serve import MAX_BODY_BYTES

        payload = json.dumps({"element": "aggcounter",
                              "workload": {"n_packets": 5}})
        # Trailing whitespace is valid JSON, so this body is exactly
        # the cap.
        raw = payload.ljust(MAX_BODY_BYTES).encode("utf-8")
        status, _headers, body = http(server, "/v1/analyze", raw=raw)
        assert status == 200, body

    @pytest.mark.parametrize("seed", ["x", 1.5, True])
    def test_non_integer_trace_seed_is_400(self, server, seed):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "trace_seed": seed,
        })
        assert status == 400
        assert "trace_seed" in body_json(body)["error"]["message"]


class TestRequestCorrelation:
    """The tentpole acceptance path: one client-supplied request id is
    echoed in the response header and envelope, stamped on journal
    events, and visible in JSON log lines."""

    def test_client_id_echoed_in_header_and_envelope(self, server):
        status, headers, body = http(
            server, "/healthz",
            headers={"X-Clara-Request-Id": "abc"},
        )
        assert status == 200
        assert headers["X-Clara-Request-Id"] == "abc"
        assert body_json(body)["request_id"] == "abc"

    def test_id_minted_when_header_absent(self, server):
        _status, headers, body = http(server, "/healthz")
        rid = headers["X-Clara-Request-Id"]
        assert len(rid) == 32
        assert body_json(body)["request_id"] == rid

    def test_hostile_header_sanitized(self, server):
        _status, headers, _body = http(
            server, "/healthz",
            headers={"X-Clara-Request-Id": "x" * 500},
        )
        assert headers["X-Clara-Request-Id"] == "x" * 128

    def test_journal_events_carry_the_id(self, server):
        from repro.obs.events import get_journal

        rid = "journal-e2e-1"
        http(server, "/v1/analyze", payload={
            "element": "aggcounter",
            "workload": {"name": "t", "n_packets": 50},
        }, headers={"X-Clara-Request-Id": rid})
        finish = poll_journal(kind="request_finish", request_id=rid)[0]
        kinds = [
            e.kind for e in get_journal().snapshot(request_id=rid)
        ]
        assert kinds[0] == "request_start"
        assert kinds[-1] == "request_finish"
        assert finish.data["endpoint"] == "/v1/analyze"
        assert finish.data["status"] == 200
        assert finish.data["duration_s"] > 0

    def test_json_log_lines_stamped_with_the_id(self, server):
        import io

        from repro import obs

        stream = io.StringIO()
        obs.configure(verbosity=2, stream=stream, fmt="json")
        try:
            http(server, "/healthz",
                 headers={"X-Clara-Request-Id": "log-e2e-1"})
        finally:
            obs.configure(verbosity=0)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        stamped = [r for r in records
                   if r.get("request_id") == "log-e2e-1"]
        assert stamped, records
        assert all("ts" in r and "level" in r for r in stamped)


class TestEventsEndpoint:
    def test_events_returned_with_counters(self, server):
        rid = "events-e2e-1"
        http(server, "/healthz", headers={"X-Clara-Request-Id": rid})
        poll_journal(kind="request_finish", request_id=rid)
        status, _headers, body = http(
            server, f"/v1/events?request_id={rid}"
        )
        assert status == 200
        env = body_json(body)
        assert env["kind"] == "events"
        result = env["result"]
        assert result["n_returned"] == len(result["events"]) >= 2
        assert {e["kind"] for e in result["events"]} >= {
            "request_start", "request_finish",
        }
        assert all(e["request_id"] == rid for e in result["events"])
        assert result["n_emitted"] >= result["n_returned"]
        assert "slow_request" in result["kinds"]

    def test_polling_events_is_not_journaled(self, server):
        import time

        from repro.obs.events import get_journal

        rid = "events-poller-1"
        status, headers, _body = http(
            server, "/v1/events", headers={"X-Clara-Request-Id": rid}
        )
        assert status == 200
        # Correlation still works (header echoed) but the poll itself
        # leaves no journal entries, so a steady poller cannot evict
        # the serving events it is observing.
        assert headers.get("X-Clara-Request-Id") == rid
        time.sleep(0.2)  # finish events are emitted post-response
        assert get_journal().snapshot(request_id=rid) == []

    def test_kind_filter_and_limit(self, server):
        http(server, "/healthz")
        status, _headers, body = http(
            server, "/v1/events?kind=request_finish&n=3"
        )
        assert status == 200
        events = body_json(body)["result"]["events"]
        assert 0 < len(events) <= 3
        assert all(e["kind"] == "request_finish" for e in events)

    def test_since_seq_pagination(self, server):
        status, _headers, body = http(server, "/v1/events")
        all_events = body_json(body)["result"]["events"]
        cursor = all_events[-1]["seq"]
        status, _headers, body = http(
            server, f"/v1/events?since_seq={cursor}"
        )
        newer = body_json(body)["result"]["events"]
        assert all(e["seq"] > cursor for e in newer)

    def test_unknown_kind_is_400(self, server):
        status, _headers, body = http(server, "/v1/events?kind=nope")
        assert status == 400
        assert "request_start" in body_json(body)["error"]["message"]

    def test_non_integer_since_seq_is_400(self, server):
        status, _headers, body = http(server, "/v1/events?since_seq=abc")
        assert status == 400
        assert "since_seq" in body_json(body)["error"]["message"]


class TestSloSurface:
    def test_healthz_carries_windowed_quantiles(self, server):
        http(server, "/healthz")  # at least one prior sample
        _status, _headers, body = http(server, "/healthz")
        slo = body_json(body)["result"]["slo"]
        assert slo["status"] in ("ok", "degraded")
        assert slo["window_s"] > 0
        assert set(slo["thresholds"]) == {"p99_s", "error_rate"}
        stats = slo["endpoints"]["/healthz"]
        assert stats["count"] >= 1
        assert 0 <= stats["p50_s"] <= stats["p95_s"] <= stats["p99_s"]
        assert stats["status"] in ("ok", "degraded")

    def test_metrics_has_slo_gauges_and_validates(self, server):
        from repro.obs import validate_exposition

        http(server, "/healthz")
        _status, _headers, body = http(server, "/metrics")
        text = body.decode("utf-8")
        assert validate_exposition(text) == []
        assert "slo_latency_seconds" in text
        assert 'quantile="p99"' in text
        assert "slo_degraded" in text
        assert "slo_window_requests" in text


class TestSlowRequestCapture:
    def test_span_tree_journaled_and_trace_written(self, tmp_path):
        from repro.core import Clara

        # Threshold of 1 microsecond: every request is "slow".
        srv = build_server(Clara(seed=0), ServeConfig(
            port=0, slow_request_ms=0.001,
            slow_trace_dir=str(tmp_path / "slow"),
        ))
        srv.start()
        rid = "slow-e2e-1"
        try:
            status, _headers, body = http(
                srv, "/healthz", headers={"X-Clara-Request-Id": rid}
            )
            events = poll_journal(kind="slow_request", request_id=rid)
        finally:
            srv.shutdown()
        assert len(events) == 1
        data = events[0].data
        assert data["endpoint"] == "/healthz"
        assert data["duration_s"] >= data["threshold_s"]
        # The captured forest: an http_request root stamped with the id.
        roots = data["spans"]
        assert roots and roots[0]["name"] == "http_request"
        assert roots[0]["attrs"]["request_id"] == rid
        assert roots[0]["span_id"]
        # And the Chrome trace file landed where configured.
        trace_file = data["trace_file"]
        assert trace_file and trace_file.endswith(f"slow-{rid}.trace.json")
        with open(trace_file, encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    def test_hostile_request_id_cannot_escape_trace_dir(self, tmp_path):
        import os

        from repro.core import Clara

        trace_dir = tmp_path / "slow"
        srv = build_server(Clara(seed=0), ServeConfig(
            port=0, slow_request_ms=0.001,
            slow_trace_dir=str(trace_dir),
        ))
        srv.start()
        rid = "../../../../tmp/evil"
        try:
            http(srv, "/healthz", headers={"X-Clara-Request-Id": rid})
            events = poll_journal(kind="slow_request", request_id=rid)
        finally:
            srv.shutdown()
        assert len(events) == 1
        trace_file = events[0].data["trace_file"]
        assert trace_file is not None
        # The path separators were replaced, so the file landed inside
        # the configured directory — not four levels up.
        real_dir = os.path.realpath(str(trace_dir))
        assert os.path.realpath(trace_file).startswith(real_dir + os.sep)
        assert os.path.basename(trace_file) == \
            "slow-.._.._.._.._tmp_evil.trace.json"
        assert os.path.exists(trace_file)
        assert not (tmp_path / "tmp" / "evil").exists()

    def test_fast_requests_not_captured(self, server):
        from repro.obs.events import get_journal

        rid = "fast-e2e-1"
        http(server, "/healthz", headers={"X-Clara-Request-Id": rid})
        assert get_journal().snapshot(kind="slow_request",
                                      request_id=rid) == []

    def test_retrievable_over_the_wire(self, tmp_path):
        import time

        from repro.core import Clara

        srv = build_server(Clara(seed=0), ServeConfig(
            port=0, slow_request_ms=0.001,
        ))
        srv.start()
        rid = "slow-e2e-2"
        events = []
        try:
            http(srv, "/healthz", headers={"X-Clara-Request-Id": rid})
            # Capture happens after the response is sent (the duration
            # isn't known until then), so poll briefly.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                _s, _h, body = http(
                    srv, f"/v1/events?kind=slow_request&request_id={rid}"
                )
                events = body_json(body)["result"]["events"]
                if events:
                    break
                time.sleep(0.02)
        finally:
            srv.shutdown()
        assert len(events) == 1
        assert events[0]["data"]["spans"]


class TestEventsCli:
    def test_json_output_matches_http_body_bytes(self, server, capsys):
        http(server, "/healthz")
        query = "/v1/events?kind=request_finish&n=2"
        _s, _h, body = http(server, query)

        assert main(["events", "--url", server.url().rstrip("/"),
                     "--kind", "request_finish", "-n", "2",
                     "--json"]) == 0
        cli_out = capsys.readouterr().out.encode("utf-8")
        # Same envelope serializer; the CLI relays the body verbatim
        # (modulo its own request adding events between the two reads,
        # so compare shapes, not the event list).
        cli_env = json.loads(cli_out)
        http_env = body_json(body)
        assert cli_env["kind"] == http_env["kind"] == "events"
        assert cli_env["schema"] == http_env["schema"]
        assert set(cli_env["result"]) == set(http_env["result"])

    def test_table_output_and_jsonl_export(self, server, capsys, tmp_path):
        rid = "cli-events-1"
        http(server, "/healthz", headers={"X-Clara-Request-Id": rid})
        poll_journal(kind="request_finish", request_id=rid)
        out_path = tmp_path / "events.jsonl"
        assert main(["events", "--url", server.url().rstrip("/"),
                     "--for-request", rid,
                     "--jsonl", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "request_start" in out and "request_finish" in out
        assert rid in out
        lines = out_path.read_text().splitlines()
        assert len(lines) >= 2
        assert all(json.loads(line)["request_id"] == rid
                   for line in lines)

    def test_unreachable_daemon_is_clara_error(self, capsys):
        # Port 9 (discard) is never a clara daemon.
        code = main(["events", "--url", "http://127.0.0.1:9",
                     "--timeout", "0.5"])
        assert code != 0
        assert "cannot reach" in capsys.readouterr().err

    def test_bad_kind_surfaces_daemon_message(self, server, capsys):
        code = main(["events", "--url", server.url().rstrip("/"),
                     "--kind", "nope"])
        assert code != 0
        err = capsys.readouterr().err
        assert "HTTP 400" in err and "unknown event kind" in err
