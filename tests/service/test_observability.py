"""Service-layer observability: /metrics, healthz readiness, and e2e traces.

The tentpole's acceptance surface: a Prometheus-valid ``GET /metrics`` on
the HTTP edge (and the equivalent ``metrics`` admin command on TCP), a
healthz probe whose status code tracks shard readiness, and — the full
pipeline test — a task submitted through the HTTP edge producing a
complete, monotone span waterfall queryable by trace id and renderable by
``tools/trace_report.py``.
"""

import asyncio
import http.client
import os
import subprocess
import sys
import time

import pytest

import repro
from repro import Config
from repro.executors import HighThroughputExecutor, ThreadPoolExecutor
from repro.monitoring.db import SQLiteStore
from repro.monitoring.hub import MonitoringHub
from repro.monitoring.report import span_timeline
from repro.observability.trace import SPAN_EVENTS
from repro.service import (
    AsyncServiceClient,
    HttpEdge,
    ServiceClient,
    WorkflowGateway,
)

from test_http_api import open_session, request, session_headers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def double(x):
    return x * 2


def wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


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
    server = HttpEdge(gateway, registry={"double": double})
    server.start()
    yield server
    server.stop()


def scrape(edge):
    """GET /metrics raw (it is text/plain, not JSON, so not request())."""
    conn = http.client.HTTPConnection(edge.host, edge.port, timeout=15)
    conn.request("GET", "/metrics", None, {})
    response = conn.getresponse()
    body = response.read().decode("utf-8")
    content_type = response.getheader("Content-Type")
    conn.close()
    return response.status, content_type, body


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_and_covers_the_stack(
            self, edge, prom_validator):
        session = open_session(edge)
        for i in range(4):
            status, _h, _b = request(edge, "POST", "/v1/tasks",
                                     {"fn": "double", "args": [i]},
                                     session_headers(session))
            assert status == 202
        assert wait_for(lambda: "repro_gateway_tasks_delivered_total 4"
                        in scrape(edge)[2])
        status, content_type, text = scrape(edge)
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        prom_validator(text)
        # The catalog spans every layer the issue names.
        for family in (
            "repro_gateway_tasks_delivered_total",       # delivery
            "repro_gateway_sessions",                    # session gauge
            "repro_gateway_admission_wait_seconds",      # queue wait
            "repro_gateway_e2e_latency_seconds",         # per-tenant e2e
            "repro_dfk_tasks_submitted_total",           # submit
            "repro_dfk_tasks_completed_total",           # completion
            "repro_dfk_task_duration_seconds",           # execution latency
            "repro_dfk_outstanding_tasks",               # backlog depth
        ):
            assert f"# TYPE {family}" in text, f"{family} missing from scrape"
        # Per-tenant histograms label by tenant, le rendered last.
        assert 'repro_gateway_e2e_latency_seconds_bucket{tenant="alice",le=' in text
        assert 'repro_gateway_e2e_latency_seconds_count{tenant="alice"} 4' in text
        assert 'repro_gateway_admission_wait_seconds_count{tenant="alice"} 4' in text

    def test_scrape_needs_no_auth(self, edge):
        status, _ct, _text = scrape(edge)
        assert status == 200

    def test_tcp_metrics_command_matches_scrape(self, gateway, edge,
                                                prom_validator):
        with ServiceClient(gateway.host, gateway.port, tenant="bob") as client:
            assert client.submit(double, 5).result(timeout=15) == 10
            text = client.metrics()
        prom_validator(text)
        assert "repro_gateway_tasks_delivered_total" in text
        assert 'repro_gateway_e2e_latency_seconds_count{tenant="bob"} 1' in text

    def test_shard_stats_carry_metrics_summary(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="carol") as client:
            assert client.submit(double, 2).result(timeout=15) == 4
        rows = gateway.shard_stats()
        assert len(rows) == 1
        summary = rows[0]["metrics"]
        assert summary["repro_dfk_tasks_submitted_total"] >= 1
        assert summary["repro_dfk_tasks_completed_total"] >= 1

    def test_metrics_disabled_scrape_is_empty_but_200(self, run_dir,
                                                      prom_validator):
        cfg = Config(
            executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
            run_dir=run_dir,
            strategy="none",
            metrics_enabled=False,
        )
        dfk = repro.load(cfg)
        try:
            with WorkflowGateway(dfk) as gw:
                server = HttpEdge(gw, registry={"double": double})
                server.start()
                try:
                    session = open_session(server)
                    request(server, "POST", "/v1/tasks",
                            {"fn": "double", "args": [1]},
                            session_headers(session))
                    status, _ct, text = scrape(server)
                    assert status == 200
                    prom_validator(text)  # the empty document is valid too
                    assert "repro_gateway" not in text
                    assert "repro_dfk" not in text
                finally:
                    server.stop()
        finally:
            repro.clear()


class TestHealthz:
    def test_ready_then_unavailable_after_shard_death(self, gateway, edge):
        status, _h, body = request(edge, "GET", "/v1/healthz", tenant=None)
        assert status == 200
        assert body["status"] == "ok"
        assert [s["alive"] for s in body["shards"]] == [True]

        gateway.kill_shard(0)
        status, _h, body = request(edge, "GET", "/v1/healthz", tenant=None)
        assert status == 503
        assert body["status"] == "unavailable"
        assert [s["alive"] for s in body["shards"]] == [False]


class TestTraceIdsOnClients:
    def test_tcp_future_carries_trace_id(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="alice") as client:
            future = client.submit(double, 21)
            assert future.result(timeout=15) == 42
            assert future.trace_id and future.trace_id.startswith("trace-")

    def test_http_submit_returns_trace_id(self, edge):
        session = open_session(edge)
        status, _h, accepted = request(edge, "POST", "/v1/tasks",
                                       {"fn": "double", "args": [3]},
                                       session_headers(session))
        assert status == 202
        assert accepted["trace_id"].startswith("trace-")

    def test_async_handle_carries_trace_id(self, edge):
        async def main():
            async with AsyncServiceClient(f"http://{edge.host}:{edge.port}",
                                          tenant="alice") as client:
                handle = await client.submit(double, 8)
                assert handle.trace_id and handle.trace_id.startswith("trace-")
                assert await handle.result(timeout=15) == 16
        asyncio.run(main())

    def test_trace_disabled_yields_no_trace_id(self, run_dir):
        cfg = Config(
            executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
            run_dir=run_dir,
            strategy="none",
            trace_enabled=False,
        )
        dfk = repro.load(cfg)
        try:
            with WorkflowGateway(dfk) as gw:
                with ServiceClient(gw.host, gw.port, tenant="alice") as client:
                    future = client.submit(double, 1)
                    assert future.result(timeout=15) == 2
                    assert future.trace_id is None
        finally:
            repro.clear()


class TestEndToEndWaterfall:
    """A remote task through the HTTP edge leaves the full 9-hop row set."""

    def _run_traced_task(self, run_dir, db_path):
        store = SQLiteStore(db_path)
        hub = MonitoringHub(store=store)
        cfg = Config(
            executors=[HighThroughputExecutor(label="htex_obsv",
                                              workers_per_node=2,
                                              worker_mode="thread")],
            monitoring=hub,
            run_dir=run_dir,
            strategy="none",
        )
        dfk = repro.load(cfg)
        run_id = dfk.run_id
        trace_id = None
        try:
            with WorkflowGateway(dfk) as gw:
                server = HttpEdge(gw, registry={"double": double})
                server.start()
                try:
                    session = open_session(server)
                    status, _h, accepted = request(
                        server, "POST", "/v1/tasks",
                        {"fn": "double", "args": [21]},
                        session_headers(session))
                    assert status == 202
                    trace_id = accepted["trace_id"]
                    assert trace_id
                    task_id = accepted["task_id"]
                    assert wait_for(lambda: request(
                        server, "GET", f"/v1/tasks/{task_id}",
                        headers=session_headers(session))[2].get("status")
                        == "done")
                    # The delivered hop is flushed by the gateway after the
                    # result is committed to the session; give the hub's
                    # batched path a moment to drain it to SQLite.
                    assert wait_for(lambda: any(
                        e["event"] == "delivered"
                        for attempts in span_timeline(
                            store, run_id=run_id, trace_id=trace_id).values()
                        for events in attempts.values()
                        for e in events))
                finally:
                    server.stop()
        finally:
            repro.clear()  # closes the hub and the SQLite store
        return run_id, trace_id

    def test_http_task_yields_complete_monotone_waterfall(self, run_dir,
                                                          tmp_path):
        db_path = str(tmp_path / "monitoring.db")
        run_id, trace_id = self._run_traced_task(run_dir, db_path)

        store = SQLiteStore(db_path)
        try:
            traces = span_timeline(store, run_id=run_id, trace_id=trace_id)
        finally:
            store.close()
        assert set(traces) == {trace_id}
        attempts = traces[trace_id]
        assert set(attempts) == {1}  # one row set per attempt, no retries
        events = attempts[1]
        assert [e["event"] for e in events] == SPAN_EVENTS
        ts = [e["t"] for e in events]
        assert ts == sorted(ts), "waterfall is not monotone"

        # And the operator CLI renders it from the same database.
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "trace_report.py"),
             db_path, "--trace", trace_id, "--critical-path"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        for hop in SPAN_EVENTS:
            assert hop in proc.stdout
        assert trace_id in proc.stdout
        assert "critical hop:" in proc.stdout
