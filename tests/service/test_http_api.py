"""Endpoint-level tests for the HTTP/SSE edge (`repro.service.http_edge`).

These drive the edge with plain :mod:`http.client` requests — deliberately
not the SDK — so the wire surface (status codes, headers, JSON shapes, SSE
framing) is pinned down independently of the client library.
"""

import base64
import http.client
import json
import time

import pytest

import repro
from repro import Config
from repro.auth import TokenStore
from repro.executors import ThreadPoolExecutor
from repro.serialize import deserialize, pack_apply_message
from repro.service import HttpEdge, WorkflowGateway, protocol


def double(x):
    return x * 2


def slow_double(x, duration=0.3):
    time.sleep(duration)
    return x * 2


def fail_with(message):
    raise ValueError(message)


@pytest.fixture
def gw_dfk(run_dir):
    cfg = Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=4)],
        run_dir=run_dir,
        strategy="none",
    )
    dfk = repro.load(cfg)
    yield dfk
    repro.clear()


@pytest.fixture
def edge(gw_dfk):
    with WorkflowGateway(gw_dfk, session_ttl_s=10.0) as gw:
        server = HttpEdge(gw, registry={"double": double, "slow": slow_double})
        server.start()
        yield server
        server.stop()


def request(edge, method, path, body=None, headers=None, tenant="alice"):
    """One HTTP exchange; returns (status, headers-dict, parsed-JSON body)."""
    conn = http.client.HTTPConnection(edge.host, edge.port, timeout=15)
    all_headers = {"X-Repro-Tenant": tenant} if tenant else {}
    all_headers.update(headers or {})
    payload = json.dumps(body) if body is not None else None
    if payload is not None:
        all_headers["Content-Type"] = "application/json"
    conn.request(method, path, payload, all_headers)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return (
        response.status,
        {k.lower(): v for k, v in response.getheaders()},
        json.loads(data) if data else {},
    )


def open_session(edge, tenant="alice", token=None):
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    status, _h, body = request(edge, "POST", "/v1/session", {}, headers, tenant)
    assert status == 201, body
    return body


def session_headers(session):
    return {
        "X-Repro-Session": session["session"],
        "X-Repro-Session-Token": session["session_token"],
    }


def read_sse_events(edge, session, tenant="alice", last_event_id=0, max_events=100,
                    timeout=15.0, stop_after=None):
    """Consume the SSE stream until ``stop_after`` events (or timeout)."""
    conn = http.client.HTTPConnection(edge.host, edge.port, timeout=timeout)
    headers = {"X-Repro-Tenant": tenant, "Last-Event-ID": str(last_event_id)}
    headers.update(session_headers(session))
    conn.request("GET", "/v1/stream", None, headers)
    response = conn.getresponse()
    assert response.status == 200, response.read()
    events = []
    current = {}
    deadline = time.time() + timeout
    while len(events) < max_events and time.time() < deadline:
        line = response.fp.readline().decode("utf-8").rstrip("\r\n")
        if line == "":
            if current:
                events.append(current)
                current = {}
                if stop_after is not None and len(events) >= stop_after:
                    break
            continue
        if line.startswith(":"):
            continue
        name, _sep, value = line.partition(":")
        current[name] = value.lstrip()
    conn.close()
    return events


class TestBasics:
    def test_healthz_needs_no_auth(self, edge):
        status, _h, body = request(edge, "GET", "/v1/healthz", tenant=None)
        assert status == 200 and body["status"] == "ok"

    def test_missing_tenant_header_is_400(self, edge):
        status, _h, body = request(edge, "POST", "/v1/session", {}, tenant=None)
        assert status == 400
        assert "X-Repro-Tenant" in body["error"]

    def test_unknown_route_is_404(self, edge):
        status, _h, _b = request(edge, "GET", "/v1/nope")
        assert status == 404

    def test_malformed_json_body_is_400(self, edge):
        conn = http.client.HTTPConnection(edge.host, edge.port, timeout=10)
        conn.request("POST", "/v1/session", "{not json",
                     {"X-Repro-Tenant": "alice", "Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        conn.close()

    @pytest.mark.parametrize("raw_length", ["nope", "-1", "1e3"])
    def test_bad_content_length_is_clean_400(self, edge, raw_length):
        """Regression: a malformed or negative Content-Length used to raise
        an uncaught ValueError that killed the connection with no reply."""
        import socket

        with socket.create_connection((edge.host, edge.port), timeout=10) as sock:
            sock.sendall(
                (
                    "POST /v1/session HTTP/1.1\r\n"
                    "Host: test\r\n"
                    "X-Repro-Tenant: alice\r\n"
                    f"Content-Length: {raw_length}\r\n\r\n"
                ).encode("latin-1")
            )
            reply = sock.recv(65536).decode("latin-1", "replace")
        assert reply.startswith("HTTP/1.1 400 "), reply

    @pytest.mark.parametrize("path, body", [
        ("/v1/session", {"weight": "heavy"}),
        ("/v1/session", {"session": "sess-x", "session_token": "t", "last_seq": "latest"}),
        ("/v1/tasks", {"fn": "double", "args": [1], "priority": "high"}),
        ("/v1/tasks", {"fn": "double", "args": [1], "resource_spec": "ab"}),
    ])
    def test_malformed_field_is_clean_400(self, edge, path, body):
        """Regression: a non-integer weight/last_seq/priority or a non-object
        resource_spec used to escape as a 500 that closed the connection."""
        conn = http.client.HTTPConnection(edge.host, edge.port, timeout=10)
        try:
            conn.request("POST", path, json.dumps(body), {"X-Repro-Tenant": "alice"})
            response = conn.getresponse()
            assert response.status == 400, response.read()
            response.read()
            # The keep-alive connection survives the rejection.
            conn.request("GET", "/v1/healthz")
            assert conn.getresponse().status == 200
        finally:
            conn.close()

    def test_session_open_and_release(self, edge):
        session = open_session(edge)
        assert session["session"] and session["session_token"]
        assert session["resumed"] is False
        status, _h, body = request(
            edge, "DELETE", f"/v1/session/{session['session']}",
            headers=session_headers(session),
        )
        assert status == 200 and body["released"] == session["session"]


class TestSubmission:
    def test_registered_fn_json_roundtrip(self, edge):
        session = open_session(edge)
        status, _h, accepted = request(
            edge, "POST", "/v1/tasks",
            {"fn": "double", "args": [21]}, session_headers(session),
        )
        assert status == 202
        task_id = accepted["task_id"]
        deadline = time.time() + 15
        while time.time() < deadline:
            status, _h, body = request(edge, "GET", f"/v1/tasks/{task_id}",
                                       headers=session_headers(session))
            assert status == 200
            if body["status"] == "done":
                assert body["success"] is True
                assert body["value"] == 42
                return
            time.sleep(0.05)
        pytest.fail("task never finished")

    def test_payload_b64_pickled_roundtrip(self, edge):
        session = open_session(edge)
        buffer = pack_apply_message(double, (8,), {})
        status, _h, accepted = request(
            edge, "POST", "/v1/tasks",
            {"payload_b64": base64.b64encode(buffer).decode()},
            session_headers(session),
        )
        assert status == 202
        events = read_sse_events(edge, session, stop_after=1)
        assert events[0]["event"] == "result"
        data = json.loads(events[0]["data"])
        assert data["task_id"] == accepted["task_id"]
        assert deserialize(base64.b64decode(data["payload_b64"])) == 16

    def test_submit_without_session_auto_creates_one(self, edge):
        status, _h, body = request(edge, "POST", "/v1/tasks",
                                   {"fn": "double", "args": [1]})
        assert status == 202
        # The implicit session's token comes back so the caller can stream.
        assert body["session"] and body["session_token"]

    def test_unregistered_fn_is_404(self, edge):
        session = open_session(edge)
        status, _h, body = request(edge, "POST", "/v1/tasks",
                                   {"fn": "os.system", "args": ["true"]},
                                   session_headers(session))
        assert status == 404
        assert "not registered" in body["error"]

    def test_fn_and_payload_together_is_400(self, edge):
        session = open_session(edge)
        status, _h, _b = request(
            edge, "POST", "/v1/tasks",
            {"fn": "double", "payload_b64": "aGk=", "args": [1]},
            session_headers(session),
        )
        assert status == 400

    def test_huge_client_task_id_accepted_in_constant_time(self, edge):
        """Regression: an explicit client_task_id near the top of the allowed
        range must not spin the event loop catching the auto-assign counter
        up one step at a time (it used to iterate `requested` times)."""
        from repro.service.http_edge import MAX_CLIENT_TASK_ID

        session = open_session(edge)
        big = MAX_CLIENT_TASK_ID - 1
        start = time.monotonic()
        status, _h, accepted = request(
            edge, "POST", "/v1/tasks",
            {"fn": "double", "args": [3], "client_task_id": big},
            session_headers(session),
        )
        elapsed = time.monotonic() - start
        assert status == 202
        assert accepted["client_task_id"] == big
        assert elapsed < 5.0  # O(1) bookkeeping, not O(requested) spinning
        # The auto-assign counter jumped past the explicit id: a follow-up
        # implicit submit must not collide with it.
        status, _h, follow = request(
            edge, "POST", "/v1/tasks",
            {"fn": "double", "args": [4]}, session_headers(session),
        )
        assert status == 202
        assert follow["client_task_id"] == big + 1

    def test_out_of_range_client_task_id_is_400(self, edge):
        from repro.service.http_edge import MAX_CLIENT_TASK_ID

        session = open_session(edge)
        for bad in (-1, MAX_CLIENT_TASK_ID + 1, 10**18):
            status, _h, body = request(
                edge, "POST", "/v1/tasks",
                {"fn": "double", "args": [1], "client_task_id": bad},
                session_headers(session),
            )
            assert status == 400, bad
            assert "client_task_id" in body["error"]

    def test_failure_surfaces_error_type_and_message(self, edge):
        session = open_session(edge)
        buffer = pack_apply_message(fail_with, ("kaput",), {})
        request(edge, "POST", "/v1/tasks",
                {"payload_b64": base64.b64encode(buffer).decode()},
                session_headers(session))
        events = read_sse_events(edge, session, stop_after=1)
        assert events[0]["event"] == "error"
        data = json.loads(events[0]["data"])
        assert data["success"] is False
        assert data["error_type"] == "ValueError"
        assert data["error_message"] == "kaput"
        exc = deserialize(base64.b64decode(data["payload_b64"]))
        assert isinstance(exc, ValueError)


class TestAuth:
    @pytest.fixture
    def secured(self, gw_dfk, tmp_path):
        store = TokenStore(path=str(tmp_path / "tokens.json"))
        token = store.refresh(protocol.token_scope("alice"))
        with WorkflowGateway(gw_dfk, token_store=store, session_ttl_s=10.0) as gw:
            server = HttpEdge(gw)
            server.start()
            yield server, token
            server.stop()

    def test_valid_bearer_token_accepted(self, secured):
        edge, token = secured
        session = open_session(edge, token=token)
        assert session["session"]

    def test_missing_token_is_401(self, secured):
        edge, _token = secured
        status, _h, body = request(edge, "POST", "/v1/session", {})
        assert status == 401
        assert "token" in body["error"]

    def test_wrong_token_is_401(self, secured):
        edge, _token = secured
        status, _h, _b = request(edge, "POST", "/v1/session", {},
                                 {"Authorization": "Bearer forged"})
        assert status == 401

    def test_unknown_tenant_without_entry_is_open(self, secured):
        # Mirrors TokenStore semantics: scopes with no stored entry accept
        # tokenless hellos (open unless an operator provisioned a token).
        edge, _token = secured
        session = open_session(edge, tenant="nobody")
        assert session["session"]


class TestBackpressureAndCancel:
    @pytest.fixture
    def tight_edge(self, gw_dfk):
        with WorkflowGateway(gw_dfk, max_inflight_per_tenant=2,
                             session_ttl_s=10.0) as gw:
            server = HttpEdge(gw, registry={"slow": slow_double})
            server.start()
            yield server
            server.stop()

    def test_429_with_retry_after(self, tight_edge):
        session = open_session(tight_edge)
        replies = []
        for i in range(4):
            replies.append(request(
                tight_edge, "POST", "/v1/tasks",
                {"fn": "slow", "args": [i], "kwargs": {"duration": 1.0}},
                session_headers(session),
            ))
        busy = [(s, h, b) for s, h, b in replies if s == 429]
        assert busy, "expected at least one 429 beyond the in-flight cap of 2"
        status, headers, body = busy[0]
        assert headers["retry-after"] == "1"
        assert body["error"] == "busy"
        assert body["retry_after_s"] > 0
        assert body["cap"] == 2

    def test_cancel_queued_task(self, gw_dfk):
        # window=1 + a long-running blocker keeps the victim queued.
        with WorkflowGateway(gw_dfk, window=1, session_ttl_s=10.0) as gw:
            edge = HttpEdge(gw, registry={"slow": slow_double})
            edge.start()
            try:
                session = open_session(edge)
                request(edge, "POST", "/v1/tasks",
                        {"fn": "slow", "args": [1], "kwargs": {"duration": 1.5}},
                        session_headers(session))
                _s, _h, victim = request(edge, "POST", "/v1/tasks",
                                         {"fn": "slow", "args": [2]},
                                         session_headers(session))
                status, _h, verdict = request(
                    edge, "POST", f"/v1/tasks/{victim['task_id']}/cancel",
                    {}, session_headers(session),
                )
                assert status == 200
                assert verdict["status"] == "cancelled"
                # The cancellation is delivered as a failed result carrying
                # TaskCancelledError.
                events = read_sse_events(edge, session, stop_after=2)
                cancelled = [e for e in events
                             if json.loads(e["data"])["task_id"] == victim["task_id"]]
                assert cancelled and cancelled[0]["event"] == "error"
                data = json.loads(cancelled[0]["data"])
                assert data["error_type"] == "TaskCancelledError"
            finally:
                edge.stop()

    def test_cancel_unknown_task_is_404(self, edge):
        session = open_session(edge)
        status, _h, body = request(
            edge, "POST", f"/v1/tasks/{session['session']}:999/cancel",
            {}, session_headers(session),
        )
        assert status == 404
        assert body["status"] == "unknown"


class TestStats:
    def test_tenant_stats_reflect_completions(self, edge):
        session = open_session(edge)
        for i in range(3):
            request(edge, "POST", "/v1/tasks", {"fn": "double", "args": [i]},
                    session_headers(session))
        read_sse_events(edge, session, stop_after=3)
        status, _h, body = request(edge, "GET", "/v1/tenants/me/stats")
        assert status == 200
        assert body["tenant"] == "alice"
        assert body["completed"] == 3


class TestStream:
    def test_sse_ids_are_session_seqs(self, edge):
        session = open_session(edge)
        for i in range(5):
            request(edge, "POST", "/v1/tasks", {"fn": "double", "args": [i]},
                    session_headers(session))
        events = read_sse_events(edge, session, stop_after=5)
        assert [int(e["id"]) for e in events] == [1, 2, 3, 4, 5]
        values = sorted(json.loads(e["data"])["value"] for e in events)
        assert values == [0, 2, 4, 6, 8]

    def test_last_event_id_replays_exactly_the_unseen_suffix(self, edge):
        session = open_session(edge)
        for i in range(8):
            request(edge, "POST", "/v1/tasks", {"fn": "double", "args": [i]},
                    session_headers(session))
        first = read_sse_events(edge, session, stop_after=8)
        assert [int(e["id"]) for e in first] == list(range(1, 9))
        # Reconnect claiming we saw through seq 5: replay must be 6,7,8 —
        # no duplicates, nothing missing.
        replay = read_sse_events(edge, session, last_event_id=5, stop_after=3,
                                 timeout=5)
        assert [int(e["id"]) for e in replay] == [6, 7, 8]

    def test_unknown_session_is_410(self, edge):
        conn = http.client.HTTPConnection(edge.host, edge.port, timeout=10)
        conn.request("GET", "/v1/stream", None, {
            "X-Repro-Tenant": "alice",
            "X-Repro-Session": "sess-doesnotexist",
            "X-Repro-Session-Token": "bogus",
        })
        response = conn.getresponse()
        assert response.status == 410
        conn.close()

    def test_stream_without_session_is_400(self, edge):
        status, _h, _b = request(edge, "GET", "/v1/stream")
        assert status == 400
