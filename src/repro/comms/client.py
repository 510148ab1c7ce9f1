"""DEALER-like TCP message client used by managers, workers, and executor clients."""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.comms.protocol import recv_frame, send_frame, send_frames
from repro.utils.ids import make_uid


class MessageClient:
    """Connect to a :class:`~repro.comms.server.MessageServer` and exchange messages.

    The client registers its identity on connect; after that, ``send`` and
    ``recv`` move whole picklable messages. Receives are buffered by a
    background reader thread so callers can poll with a timeout. That thread
    stamps :attr:`last_recv` (``time.monotonic()``) for every frame it reads,
    so the peer's liveness shows even while no caller takes messages.
    """

    def __init__(
        self,
        host: str,
        port: int,
        identity: Optional[str] = None,
        registration_info: Optional[Dict[str, Any]] = None,
        connect_timeout: float = 10.0,
        retry_interval: float = 0.05,
    ):
        self.identity = identity or make_uid("client")
        self.host = host
        self.port = port
        self._sock = self._connect_with_retry(host, port, connect_timeout, retry_interval)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._inbound: "queue.Queue[Any]" = queue.Queue()
        self._stop_event = threading.Event()
        self.connected = True
        #: Monotonic time of the last frame read from the server (or of connect).
        self.last_recv = time.monotonic()

        registration = {"identity": self.identity}
        registration.update(registration_info or {})
        send_frame(self._sock, registration)

        self._reader = threading.Thread(
            target=self._reader_loop, name=f"client-{self.identity}-reader", daemon=True
        )
        self._reader.start()

    @staticmethod
    def _connect_with_retry(host: str, port: int, timeout: float, interval: float) -> socket.socket:
        deadline = time.time() + timeout
        last_error: Optional[Exception] = None
        while time.time() < deadline:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.connect((host, port))
                return sock
            except OSError as exc:
                last_error = exc
                sock.close()
                time.sleep(interval)
        raise ConnectionError(f"could not connect to {host}:{port} within {timeout}s: {last_error}")

    def _reader_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                msg = recv_frame(self._sock)
            except Exception:
                break
            self.last_recv = time.monotonic()
            self._inbound.put(msg)
        self.connected = False
        # Wake any blocked recv() with an explicit disconnect marker.
        self._inbound.put({"type": "connection_lost"})

    def send(self, message: Any) -> bool:
        """Send a message; returns False if the connection is gone."""
        if not self.connected:
            return False
        try:
            with self._send_lock:
                send_frame(self._sock, message)
            return True
        except OSError:
            self.connected = False
            return False

    def send_many(self, messages: List[Any]) -> bool:
        """Send several messages with a single socket write (multipart batch)."""
        if not messages:
            return True
        if not self.connected:
            return False
        try:
            with self._send_lock:
                send_frames(self._sock, messages)
            return True
        except OSError:
            self.connected = False
            return False

    def recv(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Receive the next message, or None on timeout."""
        try:
            return self._inbound.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self._stop_event.set()
        self.connected = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "MessageClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
