"""One session, two transports: the TCP service loop and the HTTP edge call
the same gateway session operations, so a session opened on one is usable
on the other, and races between them are settled by the gateway alone."""

import http.client
import json
import threading

import pytest

import repro
from repro import Config
from repro.comms.client import MessageClient
from repro.executors import ThreadPoolExecutor
from repro.serialize import pack_apply_message
from repro.service import HttpEdge, WorkflowGateway, protocol

from faults import wait_for

RUNS = []
RUNS_LOCK = threading.Lock()
GATE = threading.Event()


def double(x):
    return x * 2


def counted_double(x):
    with RUNS_LOCK:
        RUNS.append(x)
    return x * 2


def gated_double(x):
    GATE.wait(timeout=30)
    return x * 2


REGISTRY = {"double": double, "counted": counted_double, "gated": gated_double}


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
def gateway(gw_dfk):
    with WorkflowGateway(gw_dfk, session_ttl_s=10.0) as gw:
        yield gw


@pytest.fixture
def edge(gateway):
    server = HttpEdge(gateway, registry=REGISTRY).start()
    yield server
    server.stop()


def request(edge, method, path, body=None, headers=None, tenant="alice"):
    """One HTTP exchange; returns (status, parsed-JSON body)."""
    conn = http.client.HTTPConnection(edge.host, edge.port, timeout=15)
    all_headers = {"X-Repro-Tenant": tenant}
    all_headers.update(headers or {})
    conn.request(method, path, json.dumps(body) if body is not None else None, all_headers)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, json.loads(data) if data else {}


def session_headers(session_id, session_token):
    return {"X-Repro-Session": session_id, "X-Repro-Session-Token": session_token}


def read_events(edge, session_id, session_token, last_event_id, count, timeout=10.0):
    """Attach an SSE stream and return the ids of its first ``count`` events."""
    conn = http.client.HTTPConnection(edge.host, edge.port, timeout=timeout)
    headers = {"X-Repro-Tenant": "alice", "Last-Event-ID": str(last_event_id)}
    headers.update(session_headers(session_id, session_token))
    conn.request("GET", "/v1/stream", None, headers)
    response = conn.getresponse()
    assert response.status == 200, response.read()
    ids, current = [], {}
    try:
        while len(ids) < count:
            line = response.fp.readline().decode("utf-8").rstrip("\r\n")
            if line == "":
                if "id" in current:
                    ids.append(int(current["id"]))
                current = {}
            elif not line.startswith(":"):
                name, _sep, value = line.partition(":")
                current[name] = value.lstrip()
    except OSError:
        pass  # timed out: the caller's assertion reports what arrived
    finally:
        conn.close()
    return ids


def tcp_hello(gateway, tenant="alice"):
    client = MessageClient(gateway.host, gateway.port)
    client.send(protocol.hello(tenant))
    welcome = client.recv(timeout=5)
    assert welcome["type"] == "welcome", welcome
    return client, welcome


def recv_type(client, mtype, timeout=5.0):
    for _ in range(100):
        message = client.recv(timeout=timeout)
        assert message is not None, f"no {mtype!r} frame within {timeout}s"
        if message.get("type") == mtype:
            return message
    raise AssertionError(f"no {mtype!r} frame")


def test_tcp_session_resumed_over_http_replays_results(gateway, edge):
    tcp, welcome = tcp_hello(gateway)
    session_id, session_token = welcome["session"], welcome["session_token"]
    for cid in range(3):
        tcp.send(protocol.submit(cid, pack_apply_message(double, (cid,), {})))
    for _ in range(3):
        recv_type(tcp, "accepted")
    tcp.close()  # away: the results complete with nobody connected
    assert wait_for(lambda: gateway.stats()["alice"]["completed"] == 3)

    status, body = request(edge, "POST", "/v1/session",
                           {"session": session_id, "session_token": session_token})
    assert status == 201, body
    assert body["session"] == session_id and body["resumed"] is True
    assert read_events(edge, session_id, session_token, 0, count=3) == [1, 2, 3]


def test_same_client_task_id_over_tcp_and_http_runs_once(gateway, edge):
    RUNS.clear()
    tcp, welcome = tcp_hello(gateway)
    headers = session_headers(welcome["session"], welcome["session_token"])
    start = threading.Barrier(2)
    replies = {}

    def over_http():
        start.wait(timeout=5)
        replies["http"] = request(edge, "POST", "/v1/tasks",
                                  {"fn": "counted", "args": [21], "client_task_id": 7},
                                  headers)

    thread = threading.Thread(target=over_http)
    thread.start()
    start.wait(timeout=5)
    tcp.send(protocol.submit(7, pack_apply_message(counted_double, (21,), {})))
    thread.join(timeout=15)
    try:
        assert replies["http"][0] == 202, replies["http"]
        assert wait_for(lambda: gateway.stats()["alice"]["completed"] == 1)
        # A later resend is answered from the dedup table, not re-run.
        status, _body = request(edge, "POST", "/v1/tasks",
                                {"fn": "counted", "args": [21], "client_task_id": 7},
                                headers)
        assert status == 202
        counts = gateway.stats()["alice"]
        assert (counts["completed"], counts["queued"], counts["running"]) == (1, 0, 0)
        assert RUNS == [21]
    finally:
        tcp.close()


def test_stream_attach_racing_a_completion_delivers_each_seq_once(edge):
    status, session = request(edge, "POST", "/v1/session", {})
    assert status == 201
    sid, token = session["session"], session["session_token"]
    headers = session_headers(sid, token)
    for i in range(2):
        assert request(edge, "POST", "/v1/tasks", {"fn": "double", "args": [i]}, headers)[0] == 202
    assert wait_for(lambda: edge.gateway.stats()["alice"]["completed"] == 2)
    completed = 2
    for _round in range(5):
        GATE.clear()
        assert request(edge, "POST", "/v1/tasks", {"fn": "gated", "args": [1]}, headers)[0] == 202
        cursor = completed - 1  # one replayed result, then the live one
        ids = []
        reader = threading.Thread(
            target=lambda: ids.extend(read_events(edge, sid, token, cursor, count=2))
        )
        reader.start()
        GATE.set()  # the task completes while the stream attaches
        reader.join(timeout=15)
        completed += 1
        assert ids == [completed - 1, completed]


def test_idle_http_session_released_after_ttl(gw_dfk):
    with WorkflowGateway(gw_dfk, session_ttl_s=0.3) as gw:
        edge = HttpEdge(gw, registry=REGISTRY).start()
        try:
            status, session = request(edge, "POST", "/v1/session", {})
            assert status == 201
            assert gw.session_count() == 1
            assert wait_for(lambda: gw.session_count() == 0, timeout=10)
            status, body = request(
                edge, "POST", "/v1/tasks", {"fn": "double", "args": [1]},
                session_headers(session["session"], session["session_token"]),
            )
            assert status == 410, body
        finally:
            edge.stop()
