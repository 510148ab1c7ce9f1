"""End-to-end acceptance for the live ops plane (SLO + stragglers + console).

The issue's pinned scenario: a tenant with a 250ms p99 objective runs
alongside a saturating batch tenant. The slow tenant's burn-rate alert must
show up on every surface at once — ``GET /v1/alerts``, the ``alerts`` TCP
admin command, and the ``repro_slo_burn`` gauge on ``/metrics`` — and an
injected slow task must land in the straggler list with its trace id and
worker attribution. ``tools/repro_top.py --once --plain`` renders all of it
headless, and ``/v1/healthz`` carries the session-store writer lag.
"""

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
from repro.observability.anomaly import StragglerDetector
from repro.service import HttpEdge, ServiceClient, WorkflowGateway

from test_http_api import open_session, request, session_headers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The issue's scenario: interactive tenant promises a 250ms p99. Short
#: windows keep the test fast; both stay far longer than the test's runtime
#: so nothing the assertions need expires mid-flight.
TENANT_SLOS = {"interactive": {"p99_ms": 250, "window_s": 30, "slow_window_s": 60}}


def double(x):
    return x * 2


def snooze(seconds):
    time.sleep(seconds)
    return seconds


def wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def scrape(edge):
    """GET /metrics raw (text/plain, so not request())."""
    conn = http.client.HTTPConnection(edge.host, edge.port, timeout=15)
    conn.request("GET", "/metrics", None, {})
    response = conn.getresponse()
    body = response.read().decode("utf-8")
    conn.close()
    return response.status, body


def repro_top_once(edge):
    """One headless console frame; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "repro_top.py"),
         f"http://{edge.host}:{edge.port}", "--once", "--plain"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )


@pytest.fixture
def slo_dfk(run_dir):
    cfg = Config(
        executors=[ThreadPoolExecutor(label="threads", max_threads=4)],
        run_dir=run_dir,
        strategy="none",
    )
    dfk = repro.load(cfg)
    yield dfk
    repro.clear()


@pytest.fixture
def gateway(slo_dfk):
    with WorkflowGateway(slo_dfk, session_ttl_s=10.0,
                         tenant_slos=TENANT_SLOS) as gw:
        yield gw


@pytest.fixture
def edge(gateway):
    server = HttpEdge(gateway, registry={"double": double, "snooze": snooze})
    server.start()
    yield server
    server.stop()


class TestSloBurnEndToEnd:
    """250ms-p99 tenant + saturating batch tenant -> alert on every surface."""

    def _saturate(self, edge):
        batch = open_session(edge, tenant="batch")
        for i in range(8):
            status, _h, _b = request(edge, "POST", "/v1/tasks",
                                     {"fn": "double", "args": [i]},
                                     session_headers(batch), tenant="batch")
            assert status == 202
        interactive = open_session(edge, tenant="interactive")
        for _ in range(6):  # every one blows the 250ms target
            status, _h, _b = request(edge, "POST", "/v1/tasks",
                                     {"fn": "snooze", "args": [0.4]},
                                     session_headers(interactive),
                                     tenant="interactive")
            assert status == 202

        def alert_up():
            _s, _h, body = request(edge, "GET", "/v1/alerts", tenant=None)
            return body if body.get("alerts") else None

        assert wait_for(lambda: alert_up() is not None, timeout=20.0)
        return alert_up()

    def test_burn_alert_on_every_surface(self, gateway, edge):
        body = self._saturate(edge)

        # Surface 1: GET /v1/alerts — the typed alert plus windowed state.
        (alert,) = body["alerts"]
        assert alert["kind"] == "slo_burn"
        assert alert["state"] == "firing"
        assert alert["tenant"] == "interactive"
        assert alert["objective"] == "p99_ms"
        assert alert["target_ms"] == pytest.approx(250.0)
        assert alert["fast_burn"] >= 1.0
        assert alert["slow_burn"] >= 1.0
        assert alert["observed_ms"] is not None and alert["observed_ms"] > 250

        snap = body["slo"]["interactive"]
        assert snap["count"] >= 5
        assert snap["p50_ms"] is not None and snap["p50_ms"] > 250
        assert snap["p99_ms"] is not None and snap["p99_ms"] > 250
        (objective,) = snap["objectives"]
        assert objective["firing"] is True
        # The batch tenant is tracked too, with no objective declared.
        assert wait_for(lambda: request(edge, "GET", "/v1/alerts", tenant=None)
                        [2]["slo"].get("batch", {}).get("count", 0) >= 1)
        _s, _h, body2 = request(edge, "GET", "/v1/alerts", tenant=None)
        assert body2["slo"]["batch"]["objectives"] == []

        # Surface 2: the alerts TCP admin command.
        with ServiceClient(gateway.host, gateway.port,
                           tenant="interactive") as client:
            payload = client.alerts()
        assert payload["alerts"][0]["tenant"] == "interactive"
        assert payload["slo"]["interactive"]["objectives"][0]["firing"] is True

        # Surface 3: the repro_slo_burn gauge on /metrics, both windows.
        status, text = scrape(edge)
        assert status == 200
        assert ('repro_slo_burn{objective="p99_ms",tenant="interactive",'
                'window="fast"}') in text
        assert ('repro_slo_burn{objective="p99_ms",tenant="interactive",'
                'window="slow"}') in text

        # /v1/stats serves the one-call operator overview.
        status, _h, stats = request(edge, "GET", "/v1/stats", tenant=None)
        assert status == 200
        assert "interactive" in stats["tenants"]
        assert len(stats["shards"]) == 1 and stats["shards"][0]["alive"]
        assert stats["sessions"] >= 2
        assert stats["store_lag_ms"] == 0.0  # no durable store configured

        # And the console renders the firing state headless.
        proc = repro_top_once(edge)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        for section in ("SHARDS", "TENANTS", "ALERTS", "STRAGGLERS"):
            assert section in out
        assert "interactive" in out
        assert "slo_burn" in out
        assert "FIRING" in out
        assert "p99_ms<=250" in out

    def test_on_alert_hook_fires_on_the_rising_edge(self, slo_dfk):
        fired = []
        with WorkflowGateway(slo_dfk, session_ttl_s=10.0,
                             tenant_slos=TENANT_SLOS,
                             on_alert=fired.append) as gw:
            server = HttpEdge(gw, registry={"snooze": snooze})
            server.start()
            try:
                session = open_session(server, tenant="interactive")
                for _ in range(6):
                    request(server, "POST", "/v1/tasks",
                            {"fn": "snooze", "args": [0.4]},
                            session_headers(session), tenant="interactive")
                assert wait_for(lambda: request(
                    server, "GET", "/v1/alerts", tenant=None)[2].get("alerts"),
                    timeout=20.0)
            finally:
                server.stop()
        assert len(fired) == 1
        assert fired[0].tenant == "interactive"


class TestHealthzStoreLag:
    def test_healthz_reports_lag_and_degrades_past_threshold(self, gateway,
                                                             edge):
        status, _h, body = request(edge, "GET", "/v1/healthz", tenant=None)
        assert status == 200
        assert body["status"] == "ok"
        assert body["store_lag_ms"] == 0.0

        # A wedged store writer: still serving, but not durable — degraded,
        # not down (503 stays reserved for zero live shards).
        gateway.store_lag_ms = lambda: gateway.store_degraded_ms + 500.0
        status, _h, body = request(edge, "GET", "/v1/healthz", tenant=None)
        assert status == 200
        assert body["status"] == "degraded"
        assert body["store_lag_ms"] > gateway.store_degraded_ms


class TestReproTopCli:
    def test_unreachable_edge_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "repro_top.py"),
             "http://127.0.0.1:1", "--once", "--plain"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 1
        assert "unreachable" in proc.stderr

    def test_quiet_gateway_renders_a_clean_frame(self, edge):
        proc = repro_top_once(edge)
        assert proc.returncode == 0, proc.stderr
        assert "status=ok" in proc.stdout
        assert "ALERTS (0 active)" in proc.stdout


class TestStragglerPlaneEndToEnd:
    """An injected 10x-slow task is flagged live, with worker attribution,
    and the same run feeds the resource histograms and trace_report."""

    def test_slow_task_flagged_with_trace_and_worker(self, run_dir, tmp_path):
        db_path = str(tmp_path / "monitoring.db")
        store = SQLiteStore(db_path)
        hub = MonitoringHub(store=store)
        cfg = Config(
            executors=[HighThroughputExecutor(label="htex_slo",
                                              workers_per_node=2,
                                              worker_mode="thread")],
            monitoring=hub,
            run_dir=run_dir,
            strategy="none",
        )
        dfk = repro.load(cfg)
        # Small-model knobs so eight warmup tasks train the detector.
        anomaly = StragglerDetector(min_samples=5, min_age_s=0.2, factor=3.0)
        slow_trace = None
        try:
            with WorkflowGateway(dfk, anomaly=anomaly) as gw:
                server = HttpEdge(gw, registry={"double": double,
                                                "snooze": snooze})
                server.start()
                try:
                    session = open_session(server, tenant="interactive")
                    for i in range(8):  # healthy completions: the model
                        status, _h, _b = request(
                            server, "POST", "/v1/tasks",
                            {"fn": "double", "args": [i]},
                            session_headers(session), tenant="interactive")
                        assert status == 202
                    assert wait_for(lambda: gw.stats().get(
                        "interactive", {}).get("completed") == 8)

                    # Inject the slow task and catch it in flight.
                    status, _h, accepted = request(
                        server, "POST", "/v1/tasks",
                        {"fn": "snooze", "args": [5.0]},
                        session_headers(session), tenant="interactive")
                    assert status == 202
                    slow_trace = accepted["trace_id"]
                    assert slow_trace

                    found = {}

                    def straggler_seen():
                        _s, _h2, body = request(server, "GET", "/v1/alerts",
                                                tenant=None)
                        for row in body.get("stragglers") or []:
                            if row.get("trace_id") == slow_trace:
                                found.update(row)
                                return True
                        return False

                    assert wait_for(straggler_seen, timeout=4.0)
                    assert found["tenant"] == "interactive"
                    assert found["hop"] == "dispatched"
                    assert found["worker"]  # interchange-stamped manager id
                    assert found["age_s"] >= 0.2
                    assert found["over"] > 1.0
                    assert found["task"] is not None

                    # The console renders the live straggler too.
                    proc = repro_top_once(server)
                    assert proc.returncode == 0, proc.stderr
                    assert slow_trace in proc.stdout
                    assert "STRAGGLERS" in proc.stdout

                    # Let it finish; per-task resource histograms follow.
                    task_id = accepted["task_id"]
                    assert wait_for(lambda: request(
                        server, "GET", f"/v1/tasks/{task_id}",
                        headers=session_headers(session),
                        tenant="interactive")[2].get("status") == "done",
                        timeout=20.0)
                    status, text = scrape(server)
                    assert status == 200
                    assert 'repro_task_cpu_seconds_count{executor="htex_slo"}' in text
                    assert 'repro_task_maxrss_kb_bucket{executor="htex_slo",le=' in text
                    assert 'repro_task_maxrss_kb_bucket{executor="htex_slo",le="+Inf"} 9' in text
                finally:
                    server.stop()
        finally:
            repro.clear()  # closes the hub and the SQLite store

        # The slow task tops the critical-path ranking offline.
        proc = subprocess.run(
            [sys.executable,
             os.path.join(REPO_ROOT, "tools", "trace_report.py"),
             db_path, "--slowest", "3"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "by worst critical-path hop" in proc.stdout
        assert "slowest hop:" in proc.stdout
        assert slow_trace in proc.stdout
        # Ranked first: nothing else in the run slept five seconds.
        first_trace_line = next(line for line in proc.stdout.splitlines()
                                if "trace-" in line)
        assert slow_trace in first_trace_line
