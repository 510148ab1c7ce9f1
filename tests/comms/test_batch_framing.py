"""Tests for multipart/batch framing: one write carrying N payloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.comms import (
    FrameProtocolError,
    InprocDealer,
    InprocFabric,
    InprocRouter,
    MessageClient,
    MessageServer,
    decode_batch,
    decode_message,
    encode_batch,
    encode_message,
)


class TestBatchEncoding:
    def test_encode_decode_roundtrip(self):
        messages = [{"type": "tasks", "items": [1, 2]}, "plain", 42, [None, True]]
        assert decode_batch(encode_batch(messages)) == messages

    def test_single_message_batch_is_one_plain_frame(self):
        # A 1-batch is byte-identical to a single frame: receivers need no
        # batch awareness at all.
        assert encode_batch([{"a": 1}]) == encode_message({"a": 1})
        assert decode_message(encode_batch([{"a": 1}])) == {"a": 1}

    def test_empty_batch_rejected_on_encode(self):
        with pytest.raises(FrameProtocolError):
            encode_batch([])

    def test_empty_buffer_rejected_on_decode(self):
        with pytest.raises(FrameProtocolError):
            decode_batch(b"")

    def test_truncated_batch_rejected(self):
        buffer = encode_batch([{"a": 1}, {"b": 2}])
        with pytest.raises(FrameProtocolError):
            decode_batch(buffer[:-3])

    def test_trailing_garbage_header_rejected(self):
        buffer = encode_batch([{"a": 1}]) + b"\x01"
        with pytest.raises(FrameProtocolError):
            decode_batch(buffer)

    @given(st.lists(st.dictionaries(st.text(max_size=6), st.integers(), max_size=4), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, messages):
        assert decode_batch(encode_batch(messages)) == messages


class TestSendManyTCP:
    def test_server_send_many_arrives_individually(self):
        with MessageServer() as server:
            client = MessageClient(server.host, server.port, identity="w0")
            server.recv(timeout=2)  # registration
            assert server.send_many("w0", [{"n": i} for i in range(5)])
            for i in range(5):
                assert client.recv(timeout=2) == {"n": i}
            client.close()

    def test_client_send_many_arrives_individually(self):
        with MessageServer() as server:
            client = MessageClient(server.host, server.port, identity="w0")
            server.recv(timeout=2)  # registration
            assert client.send_many([{"k": i} for i in range(4)])
            for i in range(4):
                ident, msg = server.recv(timeout=2)
                assert (ident, msg) == ("w0", {"k": i})
            client.close()

    def test_send_many_to_unknown_identity_returns_false(self):
        with MessageServer() as server:
            assert server.send_many("ghost", [{"x": 1}]) is False

    def test_send_many_empty_is_a_noop(self):
        with MessageServer() as server:
            client = MessageClient(server.host, server.port, identity="w0")
            server.recv(timeout=2)
            assert server.send_many("w0", []) is True
            assert client.send_many([]) is True
            client.close()


class TestSendManyInproc:
    def test_router_and_dealer_send_many(self):
        fabric = InprocFabric()
        router = InprocRouter("batch", fabric=fabric)
        dealer = InprocDealer("batch", identity="d1", fabric=fabric)
        router.recv(timeout=1)  # registration
        assert router.send_many("d1", [1, 2, 3])
        assert [dealer.recv(timeout=1) for _ in range(3)] == [1, 2, 3]
        assert dealer.send_many(["x", "y"])
        assert router.recv(timeout=1) == ("d1", "x")
        assert router.recv(timeout=1) == ("d1", "y")
        dealer.close()
        router.close()

    def test_send_many_unknown_peer_returns_false(self):
        fabric = InprocFabric()
        router = InprocRouter("nobody", fabric=fabric)
        assert router.send_many("ghost", [1]) is False
        router.close()
