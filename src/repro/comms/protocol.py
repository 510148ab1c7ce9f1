"""Wire protocol: length-prefixed pickled frames, singly or in batches.

A frame on the wire is::

    +----------------+----------------------+
    | 4-byte length  |  pickled payload     |
    +----------------+----------------------+

The length is an unsigned big-endian 32-bit integer covering only the
payload. A maximum frame size guards against corrupted headers causing
unbounded allocations.

A *batch* is simply the concatenation of frames. Because every frame is
self-delimiting, a receiver's frame loop consumes a batch one message at a
time with no extra protocol state — but the sender gets to move N messages
with a single ``sendall`` (one syscall, one TCP segment train), which is the
multipart trick the paper's interchange relies on for its >1k tasks/s
dispatch rate. :func:`encode_batch` / :func:`decode_batch` /
:func:`send_frames` implement that path. (The HTEX hot paths batch at the
message level — the manager greedily drains completed results and sends
them at once — so no latency is traded for density.)
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Iterable, List

#: Hard cap on a single frame (64 MiB). Tasks and results larger than this
#: indicate user data that should be passed as Files instead.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH_STRUCT = struct.Struct("!I")


class FrameProtocolError(Exception):
    """Raised when a frame violates the wire protocol."""


def encode_message(obj: Any) -> bytes:
    """Pickle ``obj`` and prepend the length header."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"message of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
        )
    return _LENGTH_STRUCT.pack(len(payload)) + payload


def decode_message(buffer: bytes) -> Any:
    """Inverse of :func:`encode_message` for a fully buffered frame."""
    if len(buffer) < _LENGTH_STRUCT.size:
        raise FrameProtocolError("buffer shorter than frame header")
    (length,) = _LENGTH_STRUCT.unpack_from(buffer)
    payload = buffer[_LENGTH_STRUCT.size:_LENGTH_STRUCT.size + length]
    if len(payload) != length:
        raise FrameProtocolError(f"truncated frame: expected {length} bytes, got {len(payload)}")
    return pickle.loads(payload)


def encode_batch(objs: Iterable[Any]) -> bytes:
    """Encode many messages as one contiguous byte string (a multipart batch).

    The result is the concatenation of :func:`encode_message` frames, so any
    frame-at-a-time receiver decodes it transparently. Empty batches are
    rejected: an empty write is indistinguishable from no write and almost
    always indicates a caller bug (e.g. flushing a drained coalescing buffer
    twice).
    """
    frames = [encode_message(obj) for obj in objs]
    if not frames:
        raise FrameProtocolError("refusing to encode an empty batch")
    return b"".join(frames)


def decode_batch(buffer: bytes) -> List[Any]:
    """Decode a buffer of concatenated frames back into a list of messages."""
    if not buffer:
        raise FrameProtocolError("refusing to decode an empty batch")
    messages = []
    offset = 0
    total = len(buffer)
    while offset < total:
        if total - offset < _LENGTH_STRUCT.size:
            raise FrameProtocolError("trailing bytes shorter than a frame header")
        (length,) = _LENGTH_STRUCT.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise FrameProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
        start = offset + _LENGTH_STRUCT.size
        end = start + length
        if end > total:
            raise FrameProtocolError(f"truncated frame: expected {length} bytes, got {total - start}")
        messages.append(pickle.loads(buffer[start:end]))
        offset = end
    return messages


def _recv_exactly(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` from a stream socket or raise on EOF."""
    chunks = []
    remaining = nbytes
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Serialize and send one frame on a connected stream socket."""
    sock.sendall(encode_message(obj))


def send_frames(sock: socket.socket, objs: Iterable[Any]) -> None:
    """Serialize and send many frames with a single socket write.

    The receiving side needs no batch awareness: its per-frame read loop
    consumes the concatenated frames one message at a time.
    """
    sock.sendall(encode_batch(objs))


def recv_frame(sock: socket.socket) -> Any:
    """Receive one complete frame from a connected stream socket."""
    header = _recv_exactly(sock, _LENGTH_STRUCT.size)
    (length,) = _LENGTH_STRUCT.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exactly(sock, length)
    return pickle.loads(payload)
