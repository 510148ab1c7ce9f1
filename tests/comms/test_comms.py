"""Tests for the TCP and in-process message fabrics."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.comms import (
    FrameProtocolError,
    InprocDealer,
    InprocFabric,
    InprocRouter,
    MessageClient,
    MessageServer,
    decode_message,
    encode_message,
)


class TestFraming:
    def test_encode_decode_roundtrip(self):
        for obj in [1, "msg", {"type": "tasks", "items": [1, 2]}, [None, True]]:
            assert decode_message(encode_message(obj)) == obj

    def test_truncated_frame_rejected(self):
        buf = encode_message({"a": 1})
        with pytest.raises(FrameProtocolError):
            decode_message(buf[:-2])

    def test_short_header_rejected(self):
        with pytest.raises(FrameProtocolError):
            decode_message(b"\x00")

    def test_oversized_frame_rejected(self):
        import repro.comms.protocol as protocol

        big = b"x" * (protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameProtocolError):
            encode_message(big)

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, payload):
        assert decode_message(encode_message(payload)) == payload


class TestTCPServerClient:
    def test_registration_and_echo(self):
        with MessageServer() as server:
            client = MessageClient(server.host, server.port, identity="w0", registration_info={"kind": "test"})
            ident, msg = server.recv(timeout=2)
            assert ident == "w0"
            assert msg["type"] == "registration"
            assert msg["info"]["kind"] == "test"

            assert server.send("w0", {"type": "task", "n": 1})
            assert client.recv(timeout=2) == {"type": "task", "n": 1}

            client.send({"type": "result", "n": 2})
            ident, msg = server.recv(timeout=2)
            assert (ident, msg["n"]) == ("w0", 2)
            client.close()

    def test_send_to_unknown_identity_returns_false(self):
        with MessageServer() as server:
            assert server.send("ghost", {"x": 1}) is False

    def test_broadcast_reaches_all_peers(self):
        with MessageServer() as server:
            clients = [MessageClient(server.host, server.port, identity=f"c{i}") for i in range(3)]
            for _ in range(3):
                server.recv(timeout=2)
            assert server.broadcast({"type": "shutdown"}) == 3
            for c in clients:
                assert c.recv(timeout=2)["type"] == "shutdown"
                c.close()

    def test_peer_lost_notification(self):
        with MessageServer() as server:
            client = MessageClient(server.host, server.port, identity="gone")
            server.recv(timeout=2)  # registration
            client.close()
            ident, msg = server.recv(timeout=2)
            assert ident == "gone"
            assert msg["type"] == "peer_lost"

    def test_connected_peers_listing(self):
        with MessageServer() as server:
            c1 = MessageClient(server.host, server.port, identity="a")
            c2 = MessageClient(server.host, server.port, identity="b")
            server.recv(timeout=2)
            server.recv(timeout=2)
            assert sorted(server.connected_peers()) == ["a", "b"]
            c1.close()
            c2.close()

    def test_client_connect_timeout(self):
        with pytest.raises(ConnectionError):
            MessageClient("127.0.0.1", 1, connect_timeout=0.3, retry_interval=0.05)

    def test_duplicate_identity_evicts_old_connection(self):
        """Re-registering an identity closes the old peer atomically.

        The inbound queue must show: old registration, then the old
        connection's eviction (peer_lost), then the new registration — and
        traffic for the identity must flow over the *new* socket only.
        """
        with MessageServer() as server:
            first = MessageClient(server.host, server.port, identity="dup")
            ident, msg = server.recv(timeout=2)
            assert (ident, msg["type"]) == ("dup", "registration")

            second = MessageClient(server.host, server.port, identity="dup")
            ident, msg = server.recv(timeout=2)
            assert (ident, msg["type"]) == ("dup", "peer_lost")
            assert msg.get("reason") == "superseded"
            ident, msg = server.recv(timeout=2)
            assert (ident, msg["type"]) == ("dup", "registration")

            # Outbound goes to the new connection; the old socket is dead.
            assert server.send("dup", {"type": "probe"})
            assert second.recv(timeout=2) == {"type": "probe"}
            assert first.recv(timeout=2) == {"type": "connection_lost"}

            # Frames from the new connection are attributed to the identity.
            second.send({"type": "data", "v": 1})
            ident, msg = server.recv(timeout=2)
            assert (ident, msg.get("v")) == ("dup", 1)

            # The eviction must not be re-reported when the old reader exits:
            # the only peer_lost left should come from closing the NEW socket.
            second.close()
            ident, msg = server.recv(timeout=2)
            assert (ident, msg["type"]) == ("dup", "peer_lost")
            assert server.recv(timeout=0.3) is None
            first.close()

    def test_failed_send_keeps_frames_the_peer_already_sent(self, monkeypatch):
        """Regression: a write failing because the peer closed used to make
        the reader drop the frames that peer had sent before closing.

        The peer sends three frames and closes. The server's reader is held
        after the first frame until a reply to that peer has failed; the two
        frames still buffered on the socket must then be delivered ahead of
        the ``peer_lost``.
        """
        import repro.comms.server as server_module

        real_recv_frame = server_module.recv_frame
        frames_read = []
        resume = threading.Event()

        def lagging_recv_frame(sock):
            if len(frames_read) == 2:  # registration and submit 0 are in
                resume.wait(timeout=10)
            frame = real_recv_frame(sock)
            frames_read.append(frame)
            return frame

        monkeypatch.setattr(server_module, "recv_frame", lagging_recv_frame)
        with MessageServer() as server:
            client = MessageClient(server.host, server.port, identity="t")
            for n in range(3):
                client.send({"type": "submit", "n": n})
            client.close()
            first = [server.recv(timeout=5) for _ in range(2)]
            assert [(ident, msg["type"]) for ident, msg in first] == [
                ("t", "registration"), ("t", "submit")
            ]
            # The first reply may still be buffered by the kernel; a later
            # one fails once the peer's reset arrives.
            deadline = time.monotonic() + 5
            while server.send("t", {"type": "ack"}):
                assert time.monotonic() < deadline, "send to a closed peer kept succeeding"
                time.sleep(0.01)
            resume.set()
            rest = []
            while ("peer_lost", None) not in rest:
                received = server.recv(timeout=5)
                if received is None:
                    break
                rest.append((received[1]["type"], received[1].get("n")))
            assert rest == [("submit", 1), ("submit", 2), ("peer_lost", None)]

    def test_reader_threads_pruned_on_churn(self):
        """Churny clients must not leak one Thread object per connection."""
        with MessageServer() as server:
            for i in range(10):
                client = MessageClient(server.host, server.port, identity=f"churn{i}")
                server.recv(timeout=2)  # registration
                client.close()
                server.recv(timeout=2)  # peer_lost
            # One live connection triggers the prune on accept.
            survivor = MessageClient(server.host, server.port, identity="survivor")
            server.recv(timeout=2)
            deadline = time.time() + 5
            while time.time() < deadline and len(server._reader_threads) > 3:
                time.sleep(0.05)
                probe = MessageClient(server.host, server.port, identity="probe")
                server.recv(timeout=2)
                probe.close()
                server.recv(timeout=2)
            assert len(server._reader_threads) <= 3, (
                f"{len(server._reader_threads)} reader threads tracked after churn"
            )
            survivor.close()

    def test_close_reaps_reader_threads(self):
        server = MessageServer()
        clients = [MessageClient(server.host, server.port, identity=f"c{i}") for i in range(4)]
        for _ in range(4):
            server.recv(timeout=2)
        server.close()
        assert server._reader_threads == []
        for c in clients:
            c.close()

    def test_concurrent_clients_roundtrip(self):
        """Many clients sending concurrently all get their own replies."""
        with MessageServer() as server:
            n = 8
            clients = [MessageClient(server.host, server.port, identity=f"w{i}") for i in range(n)]
            for _ in range(n):
                server.recv(timeout=2)

            def echo_loop():
                handled = 0
                while handled < n:
                    got = server.recv(timeout=2)
                    assert got is not None
                    ident, msg = got
                    if msg.get("type") == "ping":
                        server.send(ident, {"type": "pong", "v": msg["v"]})
                        handled += 1

            t = threading.Thread(target=echo_loop, daemon=True)
            t.start()
            for i, c in enumerate(clients):
                c.send({"type": "ping", "v": i})
            for i, c in enumerate(clients):
                assert c.recv(timeout=2) == {"type": "pong", "v": i}
            t.join(timeout=5)
            for c in clients:
                c.close()


class TestInproc:
    def test_roundtrip(self):
        fabric = InprocFabric()
        router = InprocRouter("endpoint-a", fabric=fabric)
        dealer = InprocDealer("endpoint-a", identity="d1", fabric=fabric)
        ident, msg = router.recv(timeout=1)
        assert ident == "d1" and msg["type"] == "registration"
        dealer.send({"hello": 1})
        assert router.recv(timeout=1) == ("d1", {"hello": 1})
        router.send("d1", {"reply": 2})
        assert dealer.recv(timeout=1) == {"reply": 2}
        dealer.close()
        ident, msg = router.recv(timeout=1)
        assert msg["type"] == "peer_lost"
        router.close()

    def test_duplicate_endpoint_rejected(self):
        fabric = InprocFabric()
        InprocRouter("dup", fabric=fabric)
        with pytest.raises(ValueError):
            InprocRouter("dup", fabric=fabric)

    def test_lookup_unknown_endpoint(self):
        fabric = InprocFabric()
        with pytest.raises(ConnectionError):
            InprocDealer("missing", fabric=fabric)

    def test_broadcast(self):
        fabric = InprocFabric()
        router = InprocRouter("bc", fabric=fabric)
        dealers = [InprocDealer("bc", identity=f"d{i}", fabric=fabric) for i in range(4)]
        assert router.broadcast({"type": "stop"}) == 4
        for d in dealers:
            assert d.recv(timeout=1)["type"] == "stop"
        router.close()
