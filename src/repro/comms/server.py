"""ROUTER-like TCP message server.

The interchange binds one or more :class:`MessageServer` instances. Each
connecting peer (an executor client, a manager, or a worker) is assigned or
announces an *identity*; the server exposes a single inbound queue of
``(identity, message)`` pairs and can address outbound messages to a specific
identity — exactly the ROUTER socket behaviour the paper's interchange relies
on for matching tasks to managers with advertised capacity.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.comms.protocol import recv_frame, send_frame, send_frames
from repro.utils.ids import make_uid


def _close_socket(sock: socket.socket) -> None:
    """Shut down then close: the shutdown sends FIN and wakes any thread
    blocked in ``recv`` on the peer side (a bare ``close`` does neither
    reliably while our own reader is still blocked on the fd)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _PeerConnection:
    """Book-keeping for one connected peer."""

    def __init__(self, identity: str, sock: socket.socket, address):
        self.identity = identity
        self.sock = sock
        self.address = address
        self.send_lock = threading.Lock()
        #: Cleared once the connection can no longer be written to (a failed
        #: send, an eviction, ``disconnect()``). Frames the peer sent before
        #: that are still read and delivered.
        self.alive = True
        #: Set when a newer connection registered the same identity (or the
        #: owner called ``disconnect()``): its reader must exit silently and
        #: must stop attributing frames to the identity.
        self.evicted = False
        self.connected_at = time.time()


class MessageServer:
    """Accept many peers on a TCP port and exchange picklable messages.

    The first frame a peer sends must be a registration dict containing at
    least ``{"identity": <str>}``; everything after that is application
    payload. Peers that disconnect are reported on the inbound queue as
    ``(identity, {"type": "peer_lost"})`` so callers (e.g. the interchange's
    heartbeat logic) can react.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, name: str = "message-server"):
        self.name = name
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1024)
        self.host, self.port = self._listener.getsockname()
        self._peers: Dict[str, _PeerConnection] = {}
        self._peers_lock = threading.Lock()
        self._inbound: "queue.Queue[Optional[Tuple[str, Any]]]" = queue.Queue()
        self._stop_event = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._reader_threads: List[threading.Thread] = []
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Accept / read loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # close() already shut the listener down
        while not self._stop_event.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=self._reader_loop, args=(conn, addr), name=f"{self.name}-reader", daemon=True
            )
            reader.start()
            # Prune finished readers before tracking the new one: a long-lived
            # server with churny clients would otherwise accumulate one dead
            # Thread object per connection ever accepted.
            self._reader_threads = [t for t in self._reader_threads if t.is_alive()]
            self._reader_threads.append(reader)

    def _reader_loop(self, conn: socket.socket, addr) -> None:
        # First frame must be registration.
        try:
            registration = recv_frame(conn)
        except Exception:
            conn.close()
            return
        if not isinstance(registration, dict) or "identity" not in registration:
            conn.close()
            return
        identity = registration["identity"] or make_uid("peer")
        peer = _PeerConnection(identity, conn, addr)
        with self._peers_lock:
            # A re-registration of a live identity evicts the old connection
            # *atomically* (close + peer_lost, then install) rather than
            # silently overwriting it: the stale socket's reader would
            # otherwise keep attributing its frames — and eventually its
            # disconnect — to an identity that now belongs to someone else.
            previous = self._peers.pop(identity, None)
            if previous is not None and previous is not peer:
                previous.alive = False
                previous.evicted = True
                _close_socket(previous.sock)
                self._inbound.put((identity, {"type": "peer_lost", "reason": "superseded"}))
            self._peers[identity] = peer
            self._inbound.put((identity, {"type": "registration", "info": registration}))
        while not self._stop_event.is_set():
            try:
                msg = recv_frame(conn)
            except Exception:
                break
            # The check and the enqueue share the peers lock with the
            # eviction path, so a frame read just before an eviction either
            # lands *before* the eviction's peer_lost/registration pair or
            # is dropped — never attributed to the identity's new owner.
            with self._peers_lock:
                if peer.evicted:
                    break  # evicted mid-read: never attribute this frame
                self._inbound.put((identity, msg))
        peer.alive = False
        with self._peers_lock:
            existing = self._peers.get(identity)
            if existing is peer:
                del self._peers[identity]
                if not peer.evicted:
                    # Enqueued under the lock: a same-identity reconnect
                    # racing this exit cannot slot its registration in
                    # first, which would make this loss read as the *new*
                    # connection dying. (An evicted connection's loss was
                    # already reported by the evictor.)
                    self._inbound.put((identity, {"type": "peer_lost"}))
        try:
            conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def recv(self, timeout: Optional[float] = None) -> Optional[Tuple[str, Any]]:
        """Receive the next ``(identity, message)`` pair, or None on timeout.

        ``close()`` wakes one blocked caller with None, so an owner may block
        here for as long as it has nothing else to do.
        """
        try:
            return self._inbound.get(timeout=timeout)
        except queue.Empty:
            return None

    def send(self, identity: str, message: Any) -> bool:
        """Send ``message`` to the peer with the given identity.

        Returns False (rather than raising) when the peer is unknown or its
        connection has already been torn down, mirroring ZeroMQ ROUTER's
        silently-drop behaviour which the interchange compensates for via
        heartbeats.
        """
        with self._peers_lock:
            peer = self._peers.get(identity)
        if peer is None or not peer.alive:
            return False
        try:
            with peer.send_lock:
                send_frame(peer.sock, message)
            return True
        except OSError:
            peer.alive = False
            return False

    def send_many(self, identity: str, messages: List[Any]) -> bool:
        """Send several messages to one peer with a single socket write.

        The messages arrive individually on the peer's ``recv`` — this is
        purely a transport optimization (one syscall instead of N), used by
        hot paths like the interchange's batched task dispatch.
        """
        if not messages:
            return True
        with self._peers_lock:
            peer = self._peers.get(identity)
        if peer is None or not peer.alive:
            return False
        try:
            with peer.send_lock:
                send_frames(peer.sock, messages)
            return True
        except OSError:
            peer.alive = False
            return False

    def broadcast(self, message: Any) -> int:
        """Send ``message`` to every connected peer; returns the send count."""
        with self._peers_lock:
            identities = list(self._peers.keys())
        return sum(1 for ident in identities if self.send(ident, message))

    def connected_peers(self) -> List[str]:
        """Identities of currently connected peers."""
        with self._peers_lock:
            return [ident for ident, peer in self._peers.items() if peer.alive]

    def disconnect(self, identity: str) -> None:
        """Forcefully drop a peer (used for blacklisting managers)."""
        with self._peers_lock:
            peer = self._peers.pop(identity, None)
        if peer is not None:
            peer.alive = False
            peer.evicted = True
            _close_socket(peer.sock)

    def close(self) -> None:
        """Shut the server down and drop all peers."""
        self._stop_event.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._peers_lock:
            peers = list(self._peers.values())
            self._peers.clear()
        for peer in peers:
            _close_socket(peer.sock)
        self._inbound.put(None)  # wake a recv() blocked past the close
        # Join the accept thread before declaring the port free: a thread
        # blocked inside accept(2) keeps the kernel LISTEN socket alive even
        # after the fd is closed (up to its 0.2 s poll timeout), so without
        # this join a caller that closes and immediately rebinds the same
        # port races EADDRINUSE.
        if self._accept_thread.is_alive() and self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=5.0)
        # Reap reader threads: sockets are closed, so each loop exits promptly.
        # One shared deadline rather than a fixed per-thread slice — under
        # heavy CPU contention a single thread can take longer than a second
        # to observe its dead socket, while the whole group still drains well
        # inside the budget.
        deadline = time.monotonic() + 5.0
        for thread in self._reader_threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._reader_threads = [t for t in self._reader_threads if t.is_alive()]

    def __enter__(self) -> "MessageServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
