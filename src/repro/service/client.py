"""ServiceClient: submit work to a remote workflow gateway.

``ServiceClient.submit()`` mirrors invoking an app against a local
DataFlowKernel: it returns a :class:`ServiceFuture` (a
``concurrent.futures.Future`` like :class:`~repro.core.futures.AppFuture`)
that resolves to the task's return value or raises its exception. Under the
hood the callable travels as a ``pack_apply_message`` buffer and results
stream back asynchronously from the gateway.

Fault tolerance is the point of the session layer: if the TCP connection
dies mid-run the client **reconnects and resumes** — it re-attaches to its
session with the session token, reports the last result sequence number it
saw (the gateway replays everything newer, covering tasks that completed
while the client was away), and resends any submissions the gateway never
acknowledged (the gateway deduplicates by client task id, so nothing runs
twice). ``busy`` backpressure replies are also handled here: the submission
is parked and retried as soon as a result frees a slot.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comms.client import MessageClient
from repro.errors import (
    AuthenticationError,
    ServiceError,
    SessionExpiredError,
    ShardUnavailableError,
)
from repro.scheduling.spec import ResourceSpec, ResourceSpecLike
from repro.serialize import deserialize, pack_apply_message
from repro.service import protocol
from repro.utils.ids import make_uid

logger = logging.getLogger(__name__)

#: Pause before a submission parked by a ``busy`` reply is sent again.
_BUSY_RESEND_S = 0.05


class ServiceFuture(Future):
    """The future returned by :meth:`ServiceClient.submit` (mirrors AppFuture)."""

    def __init__(self, client_task_id: int):
        super().__init__()
        self._client_task_id = client_task_id
        #: Server-assigned end-to-end trace id, filled in from the gateway's
        #: ``accepted`` (or ``result``) frame; ``None`` until acknowledged or
        #: when tracing is disabled server-side. Keys the span waterfall in
        #: the monitoring store (``tools/trace_report.py --trace <id>``).
        self.trace_id: Optional[str] = None

    @property
    def tid(self) -> int:
        """The client-side task id (the gateway's dedup key for this task)."""
        return self._client_task_id

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"<ServiceFuture task={self._client_task_id} {state}>"


class ServiceClient:
    """A remote tenant of a :class:`~repro.service.gateway.WorkflowGateway`."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        token: Optional[str] = None,
        weight: Optional[int] = None,
        connect_timeout: float = 10.0,
        handshake_timeout: float = 10.0,
        auto_reconnect: bool = True,
        max_reconnect_attempts: int = 5,
        reconnect_interval: float = 0.2,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.token = token
        self.weight = weight
        self.connect_timeout = connect_timeout
        self.handshake_timeout = handshake_timeout
        self.auto_reconnect = auto_reconnect
        self.max_reconnect_attempts = max_reconnect_attempts
        self.reconnect_interval = reconnect_interval

        self._lock = threading.RLock()
        self._slots = threading.Condition(self._lock)
        self._futures: Dict[int, ServiceFuture] = {}
        #: Submit frames the gateway has not yet acknowledged: resent verbatim
        #: after a reconnect (the gateway deduplicates by client_task_id).
        self._unacked: Dict[int, Dict[str, Any]] = {}
        #: Submissions parked by a ``busy`` backpressure reply.
        self._parked: Dict[int, Dict[str, Any]] = {}
        #: Admin requests (stats, metrics, alerts) awaiting their reply:
        #: req_id -> (future, decoder of the reply frame).
        self._requests: Dict[int, Tuple[Future, Callable[[Dict[str, Any]], Any]]] = {}
        self._task_counter = 0
        self._request_counter = 0
        self._closed = False
        #: Set by close(): wakes the reconnect loop out of its backoff sleep
        #: so shutdown never waits out reconnect_interval.
        self._closing = threading.Event()

        self.session: Optional[str] = None
        self._session_token: Optional[str] = None
        self._last_seq = 0
        self.max_inflight = 1 << 30  # replaced by the welcome frame
        #: Home-shard index the gateway reported in its welcome (None on a
        #: pre-shard gateway); refreshed on every resume.
        self.shard: Optional[int] = None
        #: Successful resume count (observability; asserted by the benchmark).
        self.reconnects = 0
        #: Result frames that arrived for an already-settled (or unknown)
        #: task. The replay protocol only re-sends frames the client never
        #: saw, so any nonzero count here is a delivered duplicate — the
        #: fault-harness acceptance tests assert it stays zero.
        self.duplicate_results = 0

        self._transport = self._connect(resume=False)
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"svc-{tenant}-recv", daemon=True
        )
        self._receiver.start()

    # ------------------------------------------------------------------
    # Connection / handshake
    # ------------------------------------------------------------------
    def _connect(self, resume: bool) -> MessageClient:
        transport = MessageClient(
            self.host,
            self.port,
            identity=make_uid(f"svc-{self.tenant}"),
            registration_info={"kind": "service-client", "tenant": self.tenant},
            connect_timeout=self.connect_timeout,
        )
        if resume:
            hello = protocol.hello(
                self.tenant,
                self.token,
                session=self.session,
                session_token=self._session_token,
                last_seq=self._last_seq,
                weight=self.weight,
            )
        else:
            hello = protocol.hello(self.tenant, self.token, weight=self.weight)
        if not transport.send(hello):
            transport.close()
            raise ServiceError("gateway connection dropped during handshake")
        deadline = time.time() + self.handshake_timeout
        stashed: List[Any] = []
        while True:
            remaining = deadline - time.time()
            if remaining <= 0:
                transport.close()
                raise ServiceError("gateway handshake timed out")
            message = transport.recv(timeout=remaining)
            if message is None or not isinstance(message, dict):
                continue
            mtype = message.get("type")
            if mtype == "welcome":
                with self._lock:
                    self.session = message["session"]
                    self._session_token = message["session_token"]
                    self.max_inflight = int(message.get("max_inflight") or self.max_inflight)
                    if message.get("shard") is not None:
                        self.shard = int(message["shard"])
                # Frames that raced ahead of the welcome go back to the
                # inbound queue for the receive loop (order preserved).
                for stray in stashed:
                    transport._inbound.put(stray)
                return transport
            if mtype == "auth_error":
                transport.close()
                reason = str(message.get("reason"))
                if resume and "session" in reason:
                    raise SessionExpiredError(reason)
                raise AuthenticationError(reason)
            if mtype == "connection_lost":
                transport.close()
                raise ServiceError("gateway connection dropped during handshake")
            stashed.append(message)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        func,
        *args,
        resource_spec: ResourceSpecLike = None,
        priority: Optional[int] = None,
        **kwargs,
    ) -> ServiceFuture:
        """Ship one task to the gateway; returns a future for its result.

        Blocks while the tenant is at its in-flight cap (the same cap the
        gateway enforces server-side with ``busy`` replies), so a tight
        submission loop self-paces instead of flooding the wire.
        """
        spec = ResourceSpec.from_user(resource_spec)
        if priority is not None:
            spec = spec.with_priority(priority)
        buffer = pack_apply_message(func, args, kwargs)
        with self._slots:
            if self._closed:
                raise ServiceError("client is closed")
            self._slots.wait_for(
                lambda: self._closed or len(self._futures) < self.max_inflight
            )
            if self._closed:
                raise ServiceError("client is closed")
            cid = self._task_counter
            self._task_counter += 1
            frame = protocol.submit(cid, buffer, spec.to_wire())
            future = ServiceFuture(cid)
            self._futures[cid] = future
            self._unacked[cid] = frame
            transport = self._transport
        transport.send(frame)
        return future

    def map(self, func, iterable, **submit_kwargs) -> List[ServiceFuture]:
        """Submit ``func`` over an iterable of single arguments."""
        return [self.submit(func, value, **submit_kwargs) for value in iterable]

    def stats(self, timeout: float = 10.0) -> Dict[str, Dict[str, int]]:
        """Fetch the gateway's per-tenant admission counters."""
        return self._request(protocol.stats, lambda reply: reply.get("tenants", {}), timeout)

    def metrics(self, timeout: float = 10.0) -> str:
        """Fetch the gateway's live metrics plane (Prometheus text format).

        The same document ``GET /metrics`` serves on the HTTP edge: fleet
        totals across the gateway and every shard kernel. Empty when the
        server runs with ``Config(metrics_enabled=False)``.
        """
        return self._request(protocol.metrics, lambda reply: str(reply.get("text", "")), timeout)

    def alerts(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Fetch the gateway's live ops plane: SLO burn alerts, per-tenant
        windowed latency state, stragglers, and the sick-worker report.

        The same document ``GET /v1/alerts`` serves on the HTTP edge
        (``alerts`` / ``slo`` / ``streams`` / ``stragglers`` / ``workers``).
        """
        return self._request(protocol.alerts, lambda reply: reply.get("payload") or {}, timeout)

    def _request(
        self,
        frame: Callable[[int], Dict[str, Any]],
        decode: Callable[[Dict[str, Any]], Any],
        timeout: float,
    ) -> Any:
        """Send one admin request and wait for its reply, decoded."""
        with self._lock:
            if self._closed:
                raise ServiceError("client is closed")
            req_id = self._request_counter
            self._request_counter += 1
            reply: Future = Future()
            self._requests[req_id] = (reply, decode)
            transport = self._transport
        transport.send(frame(req_id))
        return reply.result(timeout=timeout)

    def outstanding(self) -> int:
        """Number of submitted tasks whose results have not arrived yet."""
        with self._lock:
            return len(self._futures)

    # ------------------------------------------------------------------
    # Receive loop
    # ------------------------------------------------------------------
    def _recv_loop(self) -> None:
        while not self._closed:
            transport = self._transport
            message = transport.recv(timeout=self._next_resend_in())
            if message is None:
                self._retry_parked()
                continue
            if not isinstance(message, dict):
                continue
            mtype = message.get("type")
            if mtype == "result":
                self._handle_result(message)
            elif mtype == "accepted":
                with self._lock:
                    cid = message.get("client_task_id")
                    self._unacked.pop(cid, None)
                    if message.get("trace_id") is not None:
                        future = self._futures.get(cid)
                        if future is not None:
                            future.trace_id = message["trace_id"]
            elif mtype == "busy":
                self._handle_busy(message)
            elif mtype in ("stats_reply", "metrics_reply", "alerts_reply"):
                with self._lock:
                    reply, decode = self._requests.pop(message.get("req_id"), (None, None))
                if reply is not None and not reply.done():
                    reply.set_result(decode(message))
            elif mtype == "error":
                self._handle_error(message)
            elif mtype == "connection_lost":
                if self._closed:
                    break
                if not self.auto_reconnect or not self._reconnect():
                    self._fail_outstanding(
                        ServiceError("gateway connection lost and could not be re-established")
                    )
                    break

    def _handle_result(self, message: Dict[str, Any]) -> None:
        cid = message.get("client_task_id")
        with self._slots:
            future = self._futures.pop(cid, None)
            self._unacked.pop(cid, None)
            self._parked.pop(cid, None)
            self._last_seq = max(self._last_seq, int(message.get("seq") or 0))
            self._slots.notify_all()
        # A result frees a server-side slot: backpressured submissions get
        # their retry now rather than waiting for the connection to go idle
        # (a steady inbound stream would otherwise starve them).
        self._retry_parked()
        if future is None or future.done():
            self.duplicate_results += 1
            return  # delivered duplicate (should never happen; see counter)
        if message.get("trace_id") is not None:
            future.trace_id = message["trace_id"]
        try:
            payload = deserialize(message["buffer"])
        except Exception as exc:  # noqa: BLE001 - undecodable result
            future.set_exception(ServiceError(f"could not decode result: {exc!r}"))
            return
        if message.get("success"):
            future.set_result(payload)
        elif isinstance(payload, BaseException):
            future.set_exception(payload)
        else:
            future.set_exception(ServiceError(f"task failed remotely: {payload!r}"))

    def _handle_busy(self, message: Dict[str, Any]) -> None:
        cid = message.get("client_task_id")
        with self._lock:
            frame = self._unacked.get(cid)
            if frame is not None:
                parked = dict(frame)
                parked["_parked_at"] = time.monotonic()
                self._parked[cid] = parked

    def _next_resend_in(self) -> Optional[float]:
        """Seconds until the earliest parked submission is due; None if none is parked.

        The receive loop waits this long at most, so it blocks without a
        timeout while nothing is parked; a close or a dropped connection
        wakes it with ``connection_lost``.
        """
        with self._lock:
            if not self._parked:
                return None
            earliest = min(frame["_parked_at"] for frame in self._parked.values())
        return max(0.0, earliest + _BUSY_RESEND_S - time.monotonic())

    def _retry_parked(self) -> None:
        """Resend backpressured submissions after a short pause."""
        now = time.monotonic()
        with self._lock:
            due = [
                cid
                for cid, frame in self._parked.items()
                if now - frame["_parked_at"] >= _BUSY_RESEND_S
            ]
            frames = []
            for cid in due:
                frame = self._unacked.get(cid)
                if frame is not None:
                    frames.append(frame)
                    self._parked[cid]["_parked_at"] = now
                else:
                    self._parked.pop(cid, None)
            transport = self._transport
        for frame in frames:
            transport.send(frame)

    def _handle_error(self, message: Dict[str, Any]) -> None:
        cid = message.get("client_task_id")
        reason = str(message.get("reason"))
        if cid is None:
            logger.warning("gateway error: %s", reason)
            return
        with self._slots:
            future = self._futures.pop(cid, None)
            self._unacked.pop(cid, None)
            self._parked.pop(cid, None)
            self._slots.notify_all()
        if future is not None and not future.done():
            if message.get("code") == "shard_unavailable":
                # Typed so callers can branch retry-later (gateway is up,
                # its shards are not) from re-route (gateway unreachable,
                # which surfaces as a plain ServiceError instead).
                future.set_exception(
                    ShardUnavailableError(reason, shard=message.get("shard"))
                )
            else:
                future.set_exception(ServiceError(reason))

    # ------------------------------------------------------------------
    # Reconnect-and-resume
    # ------------------------------------------------------------------
    def _reconnect(self) -> bool:
        old = self._transport
        try:
            old.close()
        except Exception:  # noqa: BLE001 - already dead
            pass
        for attempt in range(1, self.max_reconnect_attempts + 1):
            if self._closed:
                return False
            try:
                transport = self._connect(resume=True)
            except SessionExpiredError:
                logger.warning("session %s expired; cannot resume", self.session)
                return False
            except Exception as exc:  # noqa: BLE001 - retry until budget runs out
                logger.info(
                    "reconnect attempt %d/%d failed: %r",
                    attempt, self.max_reconnect_attempts, exc,
                )
                # Interruptible backoff: close() sets _closing, so shutdown
                # doesn't hang for reconnect_interval (or the whole budget).
                if self._closing.wait(self.reconnect_interval):
                    return False
                continue
            with self._lock:
                self._transport = transport
                self.reconnects += 1
                resend = list(self._unacked.values())
            # The gateway replays finished results itself (keyed on last_seq);
            # our half of the resume is resending whatever it never acked.
            for frame in resend:
                transport.send(frame)
            logger.info(
                "session %s resumed (attempt %d, %d submits resent)",
                self.session, attempt, len(resend),
            )
            return True
        return False

    def _fail_outstanding(self, exc: Exception) -> None:
        with self._slots:
            futures = list(self._futures.values())
            self._futures.clear()
            self._unacked.clear()
            self._parked.clear()
            replies = [reply for reply, _decode in self._requests.values()]
            self._requests.clear()
            self._closed = True
            self._slots.notify_all()
        for future in futures:
            if not future.done():
                future.set_exception(exc)
        for reply in replies:
            if not reply.done():
                reply.set_exception(exc)

    # ------------------------------------------------------------------
    def drop_connection(self) -> None:
        """Abruptly sever the transport (test/benchmark hook).

        Simulates a network partition or client crash: no goodbye is sent, so
        the gateway keeps the session alive for its ``session_ttl_s`` and
        the receive loop's reconnect logic takes over.
        """
        self._transport.close()

    def close(self) -> None:
        """Deliberate shutdown: releases the gateway session immediately."""
        if self._closed:
            return
        self._closing.set()
        with self._slots:
            self._closed = True
            self._slots.notify_all()
        try:
            self._transport.send(protocol.goodbye())
        except Exception:  # noqa: BLE001 - connection may already be gone
            pass
        self._transport.close()
        self._receiver.join(timeout=2)
        for future in list(self._futures.values()):
            if not future.done():
                future.set_exception(ServiceError("client closed with the task outstanding"))
        self._futures.clear()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
