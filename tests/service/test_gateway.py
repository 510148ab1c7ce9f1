"""Tests for the multi-tenant workflow gateway service."""

import time

import pytest

import repro
from repro import Config
from repro.auth import NativeAppAuthClient, TokenStore
from repro.comms.client import MessageClient
from repro.errors import AuthenticationError, ServiceError
from repro.executors import ThreadPoolExecutor
from repro.serialize import deserialize, pack_apply_message
from repro.service import ServiceClient, WorkflowGateway
from repro.service import protocol


def double(x):
    return x * 2


def fail_with(message):
    raise ValueError(message)


def slow_double(x, duration=0.05):
    time.sleep(duration)
    return x * 2


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
    with WorkflowGateway(gw_dfk, session_ttl_s=5.0) as gw:
        yield gw


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class RawTenant:
    """A bare-protocol client for deterministic server-side assertions."""

    def __init__(self, gateway, tenant, token=None, **hello_kwargs):
        self.transport = MessageClient(gateway.host, gateway.port)
        self.transport.send(protocol.hello(tenant, token, **hello_kwargs))
        self.welcome = self.recv()

    def recv(self, timeout=5.0):
        return self.transport.recv(timeout=timeout)

    def recv_type(self, mtype, timeout=5.0):
        """Receive until a frame of the given type arrives (skipping others)."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            message = self.transport.recv(timeout=deadline - time.time())
            if message is not None and message.get("type") == mtype:
                return message
        raise AssertionError(f"no {mtype!r} frame within {timeout}s")

    def submit(self, cid, func, *args, spec=None):
        self.transport.send(
            protocol.submit(cid, pack_apply_message(func, args, {}), spec)
        )

    def close(self):
        self.transport.close()


class TestRoundtrip:
    def test_submit_result_roundtrip(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="alice") as client:
            futures = [client.submit(double, i) for i in range(10)]
            assert [f.result(timeout=10) for f in futures] == [i * 2 for i in range(10)]

    def test_remote_exception_surfaces(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="alice") as client:
            future = client.submit(fail_with, "boom")
            with pytest.raises(ValueError, match="boom"):
                future.result(timeout=10)

    def test_future_mirrors_app_future_shape(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="alice") as client:
            future = client.submit(double, 21)
            assert isinstance(future.tid, int)
            assert future.result(timeout=10) == 42
            assert future.done()

    def test_resource_spec_priority_accepted(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="alice") as client:
            future = client.submit(double, 3, priority=5)
            assert future.result(timeout=10) == 6

    def test_many_concurrent_tenants(self, gateway):
        clients = [
            ServiceClient(gateway.host, gateway.port, tenant=f"t{i}") for i in range(4)
        ]
        try:
            futures = {c.tenant: [c.submit(double, i) for i in range(5)] for c in clients}
            for tenant, futs in futures.items():
                assert [f.result(timeout=10) for f in futs] == [0, 2, 4, 6, 8]
            stats = gateway.stats()
            for c in clients:
                assert stats[c.tenant]["completed"] == 5
        finally:
            for c in clients:
                c.close()

    def test_monitoring_rows_carry_tenant_tag(self, run_dir):
        from repro.monitoring.hub import MonitoringHub
        from repro.monitoring.messages import MessageType

        hub = MonitoringHub(batch_flush_interval=0.01)
        cfg = Config(
            executors=[ThreadPoolExecutor(label="threads", max_threads=2)],
            run_dir=run_dir,
            strategy="none",
            monitoring=hub,
        )
        dfk = repro.load(cfg)
        try:
            with WorkflowGateway(dfk) as gw:
                with ServiceClient(gw.host, gw.port, tenant="acme") as client:
                    assert client.submit(double, 1).result(timeout=10) == 2
            assert wait_for(
                lambda: any(
                    row.get("tag") == "acme"
                    for row in hub.store.query(MessageType.TASK_STATE)
                )
            ), "no TASK_STATE row carried the tenant tag"
        finally:
            repro.clear()


class TestAuth:
    def test_token_required_and_validated(self, gw_dfk, tmp_path):
        store = TokenStore(path=str(tmp_path / "tokens.json"))
        store.login([protocol.token_scope("alice")])
        token = store.get_token(protocol.token_scope("alice"))
        with WorkflowGateway(gw_dfk, token_store=store) as gw:
            # Correct token: accepted.
            with ServiceClient(gw.host, gw.port, tenant="alice", token=token) as client:
                assert client.submit(double, 2).result(timeout=10) == 4
            # Wrong token: rejected at handshake.
            with pytest.raises(AuthenticationError):
                ServiceClient(gw.host, gw.port, tenant="alice", token="forged")
            # Missing token: rejected too (the scope demands one).
            with pytest.raises(AuthenticationError):
                ServiceClient(gw.host, gw.port, tenant="alice")

    def test_unscoped_tenant_allowed_without_token(self, gw_dfk, tmp_path):
        store = TokenStore(path=str(tmp_path / "tokens.json"))
        store.login([protocol.token_scope("alice")])
        with WorkflowGateway(gw_dfk, token_store=store) as gw:
            # No token entry for 'guest': open access, like an unguarded host.
            with ServiceClient(gw.host, gw.port, tenant="guest") as client:
                assert client.submit(double, 5).result(timeout=10) == 10

    def test_expired_token_rejected_until_refreshed(self, gw_dfk, tmp_path):
        store = TokenStore(path=str(tmp_path / "tokens.json"))
        scope = protocol.token_scope("alice")
        expired_client = NativeAppAuthClient(token_lifetime_s=-1)
        expired_client.start_flow([scope])
        store.store_tokens(expired_client.complete_flow("ok"))
        stale = str(store._tokens[scope]["access_token"])
        with WorkflowGateway(gw_dfk, token_store=store) as gw:
            with pytest.raises(AuthenticationError):
                ServiceClient(gw.host, gw.port, tenant="alice", token=stale)
            fresh = store.refresh(scope)
            with ServiceClient(gw.host, gw.port, tenant="alice", token=fresh) as client:
                assert client.submit(double, 4).result(timeout=10) == 8


class TestBackpressure:
    def test_busy_reply_past_tenant_cap(self, gw_dfk):
        """The server answers over-cap submits with busy, not silent queueing."""
        with WorkflowGateway(gw_dfk, max_inflight_per_tenant=2, window=1) as gw:
            raw = RawTenant(gw, "alice")
            try:
                assert raw.welcome["type"] == "welcome"
                assert raw.welcome["max_inflight"] == 2
                for cid in range(2):
                    raw.submit(cid, slow_double, cid)
                    assert raw.recv_type("accepted")["client_task_id"] == cid
                raw.submit(2, slow_double, 2)
                busy = raw.recv_type("busy")
                assert busy["client_task_id"] == 2 and busy["cap"] == 2
                # Capacity frees as results land; the resubmit then succeeds.
                raw.recv_type("result", timeout=10)
                raw.submit(2, slow_double, 2)
                assert raw.recv_type("accepted")["client_task_id"] == 2
            finally:
                raw.close()

    def test_service_client_self_paces_through_cap(self, gw_dfk):
        with WorkflowGateway(gw_dfk, max_inflight_per_tenant=3) as gw:
            with ServiceClient(gw.host, gw.port, tenant="alice") as client:
                assert client.max_inflight == 3
                futures = [client.submit(slow_double, i) for i in range(12)]
                assert [f.result(timeout=30) for f in futures] == [i * 2 for i in range(12)]

    def test_duplicate_submit_deduplicated(self, gateway):
        """A resent client_task_id must not run twice."""
        raw = RawTenant(gateway, "alice")
        try:
            raw.submit(0, slow_double, 7, 0.3)
            assert raw.recv_type("accepted")["client_task_id"] == 0
            raw.submit(0, slow_double, 7, 0.3)  # duplicate while queued/running
            assert raw.recv_type("accepted")["client_task_id"] == 0
            result = raw.recv_type("result", timeout=10)
            assert deserialize(result["buffer"]) == 14
            # Duplicate of a *finished* task: its result is replayed.
            raw.submit(0, double, 7)
            replay = raw.recv_type("result")
            assert replay["client_task_id"] == 0
            assert deserialize(replay["buffer"]) == 14
            assert gateway.stats()["alice"]["completed"] == 1
        finally:
            raw.close()


class TestSessions:
    def test_resume_replays_results_completed_while_away(self, gateway):
        raw = RawTenant(gateway, "alice")
        session = raw.welcome["session"]
        session_token = raw.welcome["session_token"]
        for cid in range(3):
            raw.submit(cid, double, cid)
        # Sever without goodbye: results complete with nobody connected.
        raw.close()
        assert wait_for(lambda: gateway.stats()["alice"]["completed"] == 3)
        resumed = RawTenant(
            gateway, "alice", session=session, session_token=session_token, last_seq=0
        )
        try:
            assert resumed.welcome["type"] == "welcome" and resumed.welcome["resumed"]
            replayed = sorted(
                deserialize(resumed.recv_type("result")["buffer"]) for _ in range(3)
            )
            assert replayed == [0, 2, 4]
        finally:
            resumed.close()

    def test_resume_with_wrong_session_token_rejected(self, gateway):
        raw = RawTenant(gateway, "alice")
        session = raw.welcome["session"]
        raw.close()
        stranger = RawTenant(
            gateway, "alice", session=session, session_token="forged", last_seq=0
        )
        try:
            assert stranger.welcome["type"] == "auth_error"
        finally:
            stranger.close()

    def test_disconnected_session_evicted_after_ttl(self, gw_dfk):
        with WorkflowGateway(gw_dfk, session_ttl_s=0.2) as gw:
            raw = RawTenant(gw, "alice")
            session = raw.welcome["session"]
            session_token = raw.welcome["session_token"]
            raw.close()
            assert wait_for(lambda: gw.session_count() == 0, timeout=5)
            late = RawTenant(
                gw, "alice", session=session, session_token=session_token, last_seq=0
            )
            try:
                assert late.welcome["type"] == "auth_error"
                assert "session" in late.welcome["reason"]
            finally:
                late.close()

    def test_second_hello_on_same_connection_releases_old_session(self, gw_dfk):
        """A fresh hello abandons the connection's previous session, which
        must become TTL-sweepable instead of leaking forever."""
        with WorkflowGateway(gw_dfk, session_ttl_s=0.2) as gw:
            raw = RawTenant(gw, "alice")
            first_session = raw.welcome["session"]
            raw.transport.send(protocol.hello("alice"))
            second = raw.recv_type("welcome")
            assert second["session"] != first_session
            # The orphaned session is swept; the new one survives.
            assert wait_for(lambda: gw.session_count() == 1, timeout=5)
            raw.submit(0, double, 5)
            result = raw.recv_type("result", timeout=10)
            assert deserialize(result["buffer"]) == 10
            raw.close()

    def test_goodbye_releases_session_immediately(self, gateway):
        raw = RawTenant(gateway, "alice")
        assert gateway.session_count() == 1
        raw.transport.send(protocol.goodbye())
        assert wait_for(lambda: gateway.session_count() == 0)
        raw.close()

    def test_service_client_reconnects_and_recovers(self, gateway):
        client = ServiceClient(
            gateway.host, gateway.port, tenant="alice", reconnect_interval=0.05
        )
        try:
            futures = [client.submit(slow_double, i) for i in range(12)]
            time.sleep(0.1)  # some done, some in flight
            client.drop_connection()
            assert [f.result(timeout=30) for f in futures] == [i * 2 for i in range(12)]
            assert client.reconnects >= 1
        finally:
            client.close()


class TestFairShare:
    def test_weighted_tenants_complete_in_weight_ratio(self, gw_dfk):
        with WorkflowGateway(
            gw_dfk,
            window=4,
            max_inflight_per_tenant=300,
            tenant_weights={"big": 8, "small": 1},
        ) as gw:
            big = ServiceClient(gw.host, gw.port, tenant="big")
            small = ServiceClient(gw.host, gw.port, tenant="small")
            try:
                n = 90
                futures = [big.submit(slow_double, i, 0.004) for i in range(n)]
                futures += [small.submit(slow_double, i, 0.004) for i in range(n)]
                assert wait_for(
                    lambda: sum(s["completed"] for s in gw.stats().values()) >= n,
                    timeout=60,
                )
                stats = gw.stats()
                ratio = stats["big"]["completed"] / max(stats["small"]["completed"], 1)
                assert 4 <= ratio <= 16, f"8:1 weights gave completion ratio {ratio:.1f}"
                for f in futures:
                    f.result(timeout=60)
            finally:
                big.close()
                small.close()

    def test_hello_weight_ignored_when_pinned(self, gw_dfk):
        with WorkflowGateway(gw_dfk, tenant_weights={"alice": 2}) as gw:
            raw = RawTenant(gw, "alice", weight=99)
            try:
                assert raw.welcome["weight"] == 2
            finally:
                raw.close()

    def test_hello_weight_capped_for_unpinned_tenants(self, gw_dfk):
        """An unpinned tenant cannot self-assign an unbounded fair share."""
        with WorkflowGateway(gw_dfk, max_client_weight=16) as gw:
            greedy = RawTenant(gw, "greedy", weight=10**9)
            modest = RawTenant(gw, "modest", weight=4)
            try:
                assert greedy.welcome["weight"] == 16
                assert modest.welcome["weight"] == 4
            finally:
                greedy.close()
                modest.close()


class TestProtocolErrors:
    def test_submit_without_hello_rejected(self, gateway):
        transport = MessageClient(gateway.host, gateway.port)
        try:
            transport.send(protocol.submit(0, pack_apply_message(double, (1,), {})))
            reply = transport.recv(timeout=5)
            assert reply["type"] == "error"
            assert "hello" in reply["reason"]
        finally:
            transport.close()

    @pytest.mark.parametrize("frame, reply_type", [
        ({"type": "stats", "req_id": "x"}, "error"),
        ({"type": "metrics", "req_id": "x"}, "error"),
        ({"type": "alerts", "req_id": [1]}, "error"),
        (protocol.hello("alice", session="s", session_token="t", last_seq="abc"),
         "auth_error"),
    ])
    def test_malformed_integer_field_gets_a_reply(self, gateway, frame, reply_type):
        transport = MessageClient(gateway.host, gateway.port)
        try:
            transport.send(frame)
            reply = transport.recv(timeout=2)
            assert reply is not None and reply["type"] == reply_type
            assert "must be an integer" in reply["reason"]
        finally:
            transport.close()

    def test_bad_resource_spec_reported(self, gateway):
        raw = RawTenant(gateway, "alice")
        try:
            raw.submit(0, double, 1, spec={"coers": 2})
            reply = raw.recv_type("error")
            assert reply["client_task_id"] == 0
        finally:
            raw.close()

    def test_client_surfaces_gateway_error(self, gateway):
        with ServiceClient(gateway.host, gateway.port, tenant="alice") as client:
            future = client.submit(double, 1, resource_spec=None)
            assert future.result(timeout=10) == 2
            # Closed client refuses further submissions.
        with pytest.raises(ServiceError):
            client.submit(double, 2)
