"""The HTTP/SSE edge: what production clients actually hit.

The PR-5 :class:`~repro.service.gateway.WorkflowGateway` speaks a bespoke
pickle-over-TCP protocol — fine for trusted Python peers, useless for the
"millions of users" tier of the paper's ecosystem, which arrives over HTTP
through load balancers and language-agnostic tooling. :class:`HttpEdge` is
an HTTP/1.1 front-end built on stdlib ``asyncio`` (no third-party server
dependency) that translates a JSON surface onto the gateway's existing
session machinery:

====== ============================ ==========================================
Verb   Path                         Meaning
====== ============================ ==========================================
POST   ``/v1/session``              open (or resume) a tenant session
DELETE ``/v1/session/{id}``         release a session immediately (goodbye)
POST   ``/v1/tasks``                submit one task (202, or 429 busy)
GET    ``/v1/tasks/{id}``           status / result of one task
POST   ``/v1/tasks/{id}/cancel``    cancel a still-queued task
GET    ``/v1/tenants/me/stats``     the calling tenant's admission counters
GET    ``/v1/stream``               SSE result stream (``Last-Event-ID``
                                    resume; ``result``/``error``/``done``)
GET    ``/v1/healthz``              liveness + per-shard readiness + session
                                    store writer lag (no auth; 503 when no
                                    shard can take work)
GET    ``/metrics``                 Prometheus text-format scrape (no auth)
GET    ``/v1/stats``                ops snapshot: all tenants, shards, store
                                    lag (no auth; feeds ``repro_top``)
GET    ``/v1/alerts``               live SLO burn alerts, per-tenant window
                                    state, stragglers, sick workers (no auth)
====== ============================ ==========================================

The edge holds no session logic of its own: every request calls the
gateway's session operations directly (:meth:`WorkflowGateway.open_session`,
:meth:`~WorkflowGateway.resume_session`, :meth:`~WorkflowGateway.submit`,
:meth:`~WorkflowGateway.cancel`, :meth:`~WorkflowGateway.release_session`),
the same methods the TCP service loop calls. Submissions therefore take
exactly the ``pack_apply_message`` path remote TCP clients take — fair-share
admission, per-tenant backpressure (surfaced as HTTP **429** with a
``Retry-After`` header), dedup, replay, and walltime enforcement all apply
unchanged, and a tenant's HTTP and TCP traffic share one set of admission
counters. Per session the edge keeps only its SSE queue and its
auto-assign ``client_task_id`` counter.

Auth mirrors the TCP handshake: ``Authorization: Bearer <token>`` checked
against the gateway's TokenStore scope ``gateway/<tenant>``, with the tenant
named by the ``X-Repro-Tenant`` header. Session-scoped requests additionally
carry ``X-Repro-Session`` / ``X-Repro-Session-Token`` (query parameters
``session`` / ``session_token`` work too, for SSE consumers that cannot set
headers). Session credentials are checked by the gateway on every request,
so any session the gateway holds — including one opened over TCP — can be
used over HTTP; a session the gateway no longer knows (released, TTL-expired,
or lost in a restart) answers **410 Gone**, the signal for SDKs to open a
fresh session and resubmit unfinished work. A session with no SSE stream
attached is detached at the gateway, which releases it once no request has
touched it for ``session_ttl_s``.

Submissions name their callable either as ``fn`` — a name registered via
:meth:`HttpEdge.register` (or, when ``allow_dotted_paths`` is enabled, an
importable ``"pkg.mod:func"`` path) invoked with JSON args — or as
``payload_b64``, a base64 ``pack_apply_message`` buffer (the SDK's
arbitrary-callable path; exactly what TCP clients send).

The SSE stream maps ``Last-Event-ID`` straight onto the session's
``last_seq`` replay machinery: attaching binds the stream's sink to the
session with that cursor, and the replayed suffix — exactly the unseen
results — enters the stream's queue before any live result can. One stream
per session is live at a time; a newer attach gracefully ends the older one
with a ``done`` event. A stream whose reader stalls past
its bounded buffer is dropped (the results stay in the replay buffer for the
next resume) so one slow consumer cannot pin edge memory.
"""

from __future__ import annotations

import asyncio
import base64
import importlib
import json
import logging
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import AuthenticationError, ConfigurationError, SessionExpiredError
from repro.service import protocol
from repro.service.api_types import (
    SessionInfo,
    TaskAccepted,
    TenantStats,
    make_task_id,
    result_frame_to_status,
    split_task_id,
)
from repro.service.gateway import WorkflowGateway
from repro.serialize import pack_apply_message

logger = logging.getLogger(__name__)

#: Reason phrases for the subset of statuses the edge answers with.
_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    410: "Gone", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Hint (seconds) clients should wait before retrying a 429; also sent as
#: ``retry_after_s`` in the body for sub-second-capable SDKs (the header is
#: integer-valued per RFC 9110).
RETRY_AFTER_S = 0.1

#: Per-stream buffered-event bound: a reader this far behind is disconnected
#: and must resume via Last-Event-ID (results stay in the replay buffer).
STREAM_QUEUE_LIMIT = 256

#: Largest client-supplied ``client_task_id`` the edge accepts (2**53 - 1,
#: the largest integer every JSON consumer can represent exactly).
MAX_CLIENT_TASK_ID = (1 << 53) - 1

_STREAM_CLOSE = object()  # sentinel: end the SSE stream gracefully


class _HttpError(Exception):
    """Internal control flow: unwind a handler into one JSON error reply."""

    def __init__(self, status: int, reason: str, headers: Optional[Dict[str, str]] = None):
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.headers = headers or {}


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: Dict[str, str],
                 headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Dict[str, Any]:
        if not self.body:
            return {}
        try:
            obj = json.loads(self.body)
        except ValueError as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return obj


class _EdgeSession:
    """Edge-side state for one gateway session: its SSE queue and cid counter."""

    __slots__ = ("stream", "next_cid")

    def __init__(self) -> None:
        #: The one live SSE stream queue (newer attach supersedes older).
        self.stream: Optional[asyncio.Queue] = None
        self.next_cid = 0

    def claim_cid(self, requested: Optional[int]) -> int:
        if requested is not None:
            if not 0 <= requested <= MAX_CLIENT_TASK_ID:
                raise _HttpError(
                    400,
                    f"client_task_id must be in [0, {MAX_CLIENT_TASK_ID}]",
                )
            # Keep the auto-assign counter ahead of explicit ids so the two
            # schemes can mix within a session without colliding.
            self.next_cid = max(self.next_cid, requested + 1)
            return requested
        cid = self.next_cid
        self.next_cid += 1
        return cid


class HttpEdge:
    """Serve a :class:`WorkflowGateway` over HTTP/1.1 + Server-Sent-Events.

    Runs its own asyncio event loop on a daemon thread; ``start()`` returns
    once the port is bound. The edge owns its HTTP settings, validated at
    construction; the token store is the gateway's. Use as a context manager
    or call ``stop()``.

    :param host: address the edge's asyncio server binds.
    :param port: TCP port to bind (0 = ephemeral).
    :param max_body: request-body ceiling in bytes (413 beyond it).
    :param sse_keepalive_s: interval between SSE keepalive comments.
    :raises repro.errors.ConfigurationError: when a knob is out of range.
    """

    def __init__(
        self,
        gateway: WorkflowGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[Dict[str, Callable]] = None,
        allow_dotted_paths: bool = False,
        max_body: int = 8 * 1024 * 1024,
        sse_keepalive_s: float = 15.0,
        request_timeout: float = 30.0,
    ):
        if max_body < 1024:
            raise ConfigurationError("max_body must be >= 1024 bytes")
        if sse_keepalive_s <= 0:
            raise ConfigurationError("sse_keepalive_s must be positive")
        self.gateway = gateway
        self._host = host
        self._port = port
        self.max_body = max_body
        self.sse_keepalive_s = sse_keepalive_s
        self.request_timeout = request_timeout
        self.registry: Dict[str, Callable] = dict(registry or {})
        self.allow_dotted_paths = allow_dotted_paths

        self.host: str = self._host
        self.port: int = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = False
        #: session id -> edge session; mutated only on the loop thread.
        self._sessions: Dict[str, _EdgeSession] = {}
        self._sweeper: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HttpEdge":
        """Start the edge's asyncio server on its own daemon thread and block until it is accepting connections (raises on bind failure)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run, name="http-edge", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise RuntimeError(f"HTTP edge failed to start: {self._startup_error!r}")
        if not self._started.is_set():
            raise RuntimeError("HTTP edge did not start within 10s")
        return self

    def stop(self) -> None:
        """Shut the server down: close listeners, end live SSE streams, release every HTTP session at the gateway. Idempotent."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        self._stopping = True
        try:
            loop.call_soon_threadsafe(lambda: asyncio.ensure_future(self._shutdown()))
        except RuntimeError:
            pass  # loop already closed
        thread.join(timeout=5)
        self._thread = None

    def __enter__(self) -> "HttpEdge":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def register(self, name: str, func: Callable) -> None:
        """Expose ``func`` to JSON submissions under ``fn: name``."""
        self.registry[name] = func

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_connection, self._host, self._port)
            )
            self.host, self.port = self._server.sockets[0].getsockname()[:2]
            self._sweeper = loop.create_task(self._sweep_idle_sessions())
            self._started.set()
            loop.run_forever()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            except Exception:  # noqa: BLE001
                pass
            loop.close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        for session_id, ses in list(self._sessions.items()):
            self._close_session(session_id, ses)
        if self._sweeper is not None:
            self._sweeper.cancel()
        loop = asyncio.get_running_loop()
        loop.stop()

    def _close_session(self, session_id: str, ses: _EdgeSession) -> None:
        if ses.stream is not None:
            self._stream_put(session_id, _STREAM_CLOSE)
            ses.stream = None
        self._sessions.pop(session_id, None)
        self.gateway.release_session(session_id)

    async def _sweep_idle_sessions(self) -> None:
        """Forget the edge state of sessions the gateway released.

        The gateway applies its session TTL to HTTP sessions with no stream
        attached; this sweep drops the edge's queue/counter for them so an
        abandoned curl session does not pin edge memory forever.
        """
        while True:
            await asyncio.sleep(min(self.gateway.session_ttl_s / 2, 5.0))
            for session_id in list(self._sessions):
                if not self.gateway.has_session(session_id):
                    del self._sessions[session_id]

    # ------------------------------------------------------------------
    # Crossing from gateway threads onto the loop
    # ------------------------------------------------------------------
    def _call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` on the edge loop; any thread, never blocks."""
        loop = self._loop
        try:
            if loop is not None:
                loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop closed: a result stays in the replay buffer

    def _stream_sink(self, session_id: str) -> Callable[[Dict[str, Any]], None]:
        """A delivery target for :meth:`WorkflowGateway.resume_session`: feeds
        the session's current SSE queue (called on the gateway's sender thread)."""
        def sink(frame: Dict[str, Any]) -> None:
            self._call_soon(self._stream_put, session_id, frame)
        return sink

    def _stream_put(self, session_id: str, item: Any) -> None:
        ses = self._sessions.get(session_id)
        queue = ses.stream if ses is not None else None
        if queue is None:
            return  # no stream attached: the replay buffer is the record
        try:
            queue.put_nowait(item)
        except asyncio.QueueFull:
            # A reader this far behind is presumed stalled: drop the stream
            # (it resumes with Last-Event-ID) instead of buffering unboundedly.
            # Make room for the close sentinel so the serving coroutine stops
            # draining into the stalled socket instead of sitting on ~256
            # buffered events; the dropped event stays in the replay buffer.
            logger.warning("http edge dropping stalled stream for %s", session_id)
            ses.stream = None
            try:
                queue.get_nowait()
                queue.put_nowait(_STREAM_CLOSE)
            except (asyncio.QueueEmpty, asyncio.QueueFull):
                pass

    # ------------------------------------------------------------------
    # Session management (all on the loop thread)
    # ------------------------------------------------------------------
    def _open_session(self, tenant: str, weight: Optional[int] = None) -> SessionInfo:
        info = SessionInfo.from_json(self.gateway.open_session(tenant, weight))
        self._sessions[info.session] = _EdgeSession()
        return info

    def _resume_session(
        self, tenant: str, session_id: str, session_token: Optional[str],
        last_seq: int = 0, sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Tuple[SessionInfo, List[Dict[str, Any]]]:
        """Check a session's credentials at the gateway (410 once it is
        gone, 403 on a mismatch) and, with a ``sink``, attach it; returns
        the session and the replay the sink's stream must start with."""
        if session_token is None and session_id not in self._sessions:
            raise _HttpError(403, "missing X-Repro-Session-Token header")
        try:
            welcome, replay = self.gateway.resume_session(
                tenant, session_id, session_token, last_seq, sink=sink
            )
        except SessionExpiredError as exc:
            self._sessions.pop(session_id, None)
            raise _HttpError(410, str(exc))
        except AuthenticationError as exc:
            raise _HttpError(403, str(exc))
        self._sessions.setdefault(session_id, _EdgeSession())
        return SessionInfo.from_json(welcome), replay

    # ------------------------------------------------------------------
    # Auth / request helpers
    # ------------------------------------------------------------------
    def _authenticate(self, request: _Request) -> str:
        """The request's tenant, once its bearer token checks out."""
        tenant = request.headers.get("x-repro-tenant") or request.query.get("tenant")
        if not tenant:
            raise _HttpError(400, "missing X-Repro-Tenant header")
        token: Optional[str] = None
        auth = request.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            token = auth[7:].strip()
        store = self.gateway.token_store
        if store is not None and not store.validate(protocol.token_scope(tenant), token):
            raise _HttpError(401, f"invalid or expired token for tenant {tenant!r}")
        return tenant

    def _session_credentials(self, request: _Request) -> Tuple[Optional[str], Optional[str]]:
        sid = request.headers.get("x-repro-session") or request.query.get("session")
        stoken = (request.headers.get("x-repro-session-token")
                  or request.query.get("session_token"))
        return sid, stoken

    @staticmethod
    def _as_int(value: Any, name: str) -> int:
        try:
            return int(value)
        except (TypeError, ValueError):
            raise _HttpError(400, f"{name} must be an integer, got {value!r}")

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError, ValueError):
            return None
        if not line or line.strip() == b"":
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _HttpError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length")
        try:
            length = int(raw_length) if raw_length else 0
        except ValueError:
            raise _HttpError(400, f"malformed Content-Length {raw_length!r}")
        if length < 0:
            raise _HttpError(400, f"negative Content-Length {length}")
        if length > self.max_body:
            raise _HttpError(413, f"body of {length} bytes exceeds limit {self.max_body}")
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {k: v[0] for k, v in parse_qs(parts.query).items()}
        return _Request(method.upper(), parts.path, query, headers, body)

    @staticmethod
    def _encode_response(status: int, body: bytes, content_type: str,
                         extra: Optional[Dict[str, str]] = None,
                         keep_alive: bool = True) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    async def _respond_json(self, writer: asyncio.StreamWriter, status: int, obj: Any,
                            extra: Optional[Dict[str, str]] = None,
                            keep_alive: bool = True) -> None:
        body = json.dumps(obj).encode("utf-8")
        writer.write(self._encode_response(status, body, "application/json",
                                           extra, keep_alive))
        await writer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while not self._stopping:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond_json(writer, exc.status, {"error": exc.reason},
                                             exc.headers, keep_alive=False)
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                try:
                    keep_alive = await self._dispatch_request(request, reader, writer)
                except _HttpError as exc:
                    await self._respond_json(writer, exc.status, {"error": exc.reason},
                                             exc.headers)
                    keep_alive = True
                except (ConnectionError, asyncio.CancelledError):
                    break
                except Exception:  # noqa: BLE001 - one request must not kill the server
                    logger.exception("http edge request failed")
                    await self._respond_json(writer, 500, {"error": "internal error"},
                                             keep_alive=False)
                    break
                if not keep_alive or request.headers.get("connection", "").lower() == "close":
                    break
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch_request(self, request: _Request, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> bool:
        method, path = request.method, request.path
        if path == "/v1/healthz":
            # Liveness + readiness in one probe: answering at all proves the
            # edge process is alive; the status code reflects whether any
            # shard can take work. 503 (zero live shards) tells a load
            # balancer to stop routing here; partial shard loss stays 200
            # ("degraded") because submissions still succeed on survivors.
            shards = self.gateway.shard_stats()
            alive = sum(1 for s in shards if s.get("alive"))
            store_lag_ms = self.gateway.store_lag_ms()
            if alive == len(shards):
                health = "ok"
            elif alive:
                health = "degraded"
            else:
                health = "unavailable"
            # A wedged SessionStore writer degrades readiness before anything
            # times out: accepted submits are not durable until it drains.
            if health == "ok" and store_lag_ms > self.gateway.store_degraded_ms:
                health = "degraded"
            await self._respond_json(writer, 200 if alive else 503, {
                "status": health,
                "sessions": len(self._sessions),
                "store_lag_ms": round(store_lag_ms, 3),
                "shards": shards,
            })
            return True
        if path == "/metrics" and method == "GET":
            # Prometheus scrape endpoint: unauthenticated (like healthz) and
            # rendered in the text exposition format scrapers expect.
            body = self.gateway.render_metrics().encode("utf-8")
            writer.write(self._encode_response(
                200, body, "text/plain; version=0.0.4; charset=utf-8"
            ))
            await writer.drain()
            return True
        if path == "/v1/alerts" and method == "GET":
            # Ops plane (unauthenticated, like /metrics): SLO burn alerts,
            # per-tenant windowed latency state, stragglers, sick workers.
            await self._respond_json(writer, 200, self.gateway.alerts_snapshot())
            return True
        if path == "/v1/stats" and method == "GET":
            # Cluster-wide ops counters for consoles (repro_top): every
            # tenant's admission state plus shard occupancy and store lag.
            await self._respond_json(writer, 200, self.gateway.ops_stats())
            return True
        if path == "/v1/session" and method == "POST":
            return await self._route_open_session(request, writer)
        if path.startswith("/v1/session/") and method == "DELETE":
            return await self._route_close_session(request, writer,
                                                   path[len("/v1/session/"):])
        if path == "/v1/tasks" and method == "POST":
            return await self._route_submit(request, writer)
        if path.startswith("/v1/tasks/") and path.endswith("/cancel") and method == "POST":
            task_id = path[len("/v1/tasks/"):-len("/cancel")]
            return await self._route_cancel(request, writer, task_id)
        if path.startswith("/v1/tasks/") and method == "GET":
            return await self._route_status(request, writer, path[len("/v1/tasks/"):])
        if path == "/v1/tenants/me/stats" and method == "GET":
            return await self._route_stats(request, writer)
        if path == "/v1/stream" and method == "GET":
            return await self._route_stream(request, writer)
        raise _HttpError(404 if path.startswith("/v1/") else 404,
                         f"no route for {method} {path}")

    async def _route_open_session(self, request: _Request,
                                  writer: asyncio.StreamWriter) -> bool:
        tenant = self._authenticate(request)
        body = request.json()
        session_id = body.get("session")
        if session_id:
            info, _replay = self._resume_session(
                tenant, str(session_id), str(body.get("session_token") or ""),
                last_seq=self._as_int(body.get("last_seq") or 0, "last_seq"),
            )
        else:
            weight = body.get("weight")
            info = self._open_session(
                tenant, weight=self._as_int(weight, "weight") if weight is not None else None
            )
        await self._respond_json(writer, 201, info.to_json())
        return True

    async def _route_close_session(self, request: _Request, writer: asyncio.StreamWriter,
                                   session_id: str) -> bool:
        tenant = self._authenticate(request)
        ses = self._sessions.get(session_id)
        if ses is None:
            raise _HttpError(410, "unknown or expired session")
        _sid, stoken = self._session_credentials(request)
        self._resume_session(tenant, session_id, stoken)
        self._close_session(session_id, ses)
        await self._respond_json(writer, 200, {"released": session_id})
        return True

    async def _route_submit(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        tenant = self._authenticate(request)
        sid, stoken = self._session_credentials(request)
        # A submit without a session opens one and hands its token back.
        new_token: Optional[str] = None
        if sid is None:
            info = self._open_session(tenant)
            sid, new_token = info.session, info.session_token
        else:
            self._resume_session(tenant, sid, stoken)
        ses = self._sessions[sid]
        body = request.json()
        buffer = self._build_buffer(body)
        raw_spec = body.get("resource_spec") or {}
        if not isinstance(raw_spec, dict):
            raise _HttpError(400, "'resource_spec' must be an object")
        spec = dict(raw_spec)
        if body.get("priority") is not None:
            spec["priority"] = self._as_int(body["priority"], "priority")
        requested = body.get("client_task_id")
        if requested is not None and not isinstance(requested, int):
            raise _HttpError(400, "client_task_id must be an integer")
        cid = ses.claim_cid(requested)
        # The reply may come later, from the store's commit callback.
        future = asyncio.get_running_loop().create_future()

        def settle(frame: Dict[str, Any]) -> None:
            if not future.done():
                future.set_result(frame)

        self.gateway.submit(sid, cid, buffer, spec or None,
                            lambda frame: self._call_soon(settle, frame))
        try:
            frame = await asyncio.wait_for(future, timeout=self.request_timeout)
        except asyncio.TimeoutError:
            raise _HttpError(503, "gateway did not acknowledge the submission")
        mtype = frame.get("type")
        if mtype in ("accepted", "result"):
            # A resend of a finished task is answered with its result frame:
            # that counts as acceptance (the stream/replay carries the result).
            accepted = TaskAccepted(
                task_id=make_task_id(sid, cid),
                client_task_id=cid,
                session=sid,
                session_token=new_token,
                trace_id=frame.get("trace_id") if mtype == "accepted" else None,
            )
            await self._respond_json(writer, 202, accepted.to_json())
        elif mtype == "busy" or frame.get("code") == "shard_unavailable":
            # The task was never admitted: a clean retry-later for the
            # client — 429 at the tenant's cap, 503 with no live shard —
            # not a session problem (410) or a request problem (400).
            if mtype == "busy":
                status = 429
                payload = {"error": "busy", "in_flight": frame.get("in_flight"),
                           "cap": frame.get("cap")}
            else:
                status = 503
                payload = {"error": "shard_unavailable", "shard": frame.get("shard")}
            payload.update(retry_after_s=RETRY_AFTER_S, client_task_id=cid, session=sid)
            if new_token is not None:
                payload["session_token"] = new_token
            await self._respond_json(writer, status, payload,
                                     extra={"Retry-After": str(max(1, int(RETRY_AFTER_S)))})
        else:
            raise _HttpError(400, str(frame.get("reason", "submission rejected")))
        return True

    def _build_buffer(self, body: Dict[str, Any]) -> bytes:
        payload_b64 = body.get("payload_b64")
        fn = body.get("fn")
        if (payload_b64 is None) == (fn is None):
            raise _HttpError(400, "exactly one of 'fn' or 'payload_b64' is required")
        if payload_b64 is not None:
            try:
                return base64.b64decode(payload_b64, validate=True)
            except Exception as exc:  # noqa: BLE001
                raise _HttpError(400, f"payload_b64 is not valid base64: {exc}")
        func = self._resolve_callable(str(fn))
        args = body.get("args") or []
        kwargs = body.get("kwargs") or {}
        if not isinstance(args, list) or not isinstance(kwargs, dict):
            raise _HttpError(400, "'args' must be a list and 'kwargs' an object")
        return pack_apply_message(func, tuple(args), kwargs)

    def _resolve_callable(self, name: str) -> Callable:
        func = self.registry.get(name)
        if func is not None:
            return func
        if not self.allow_dotted_paths:
            raise _HttpError(404, f"unknown function {name!r} (not registered)")
        modname, sep, qual = name.partition(":")
        if not sep:
            modname, _, qual = name.rpartition(".")
        if not modname or not qual:
            raise _HttpError(400, f"cannot parse callable path {name!r}")
        try:
            obj: Any = importlib.import_module(modname)
            for part in qual.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            raise _HttpError(404, f"cannot import {name!r}: {exc}")
        if not callable(obj):
            raise _HttpError(400, f"{name!r} is not callable")
        return obj

    def _task_session(self, request: _Request, task_id: str) -> Tuple[str, int]:
        """Authenticate a per-task request; returns ``(session id, cid)``."""
        tenant = self._authenticate(request)
        try:
            session_id, cid = split_task_id(task_id)
        except ValueError as exc:
            raise _HttpError(400, str(exc))
        _sid, stoken = self._session_credentials(request)
        self._resume_session(tenant, session_id, stoken)
        return session_id, cid

    async def _route_status(self, request: _Request, writer: asyncio.StreamWriter,
                            task_id: str) -> bool:
        session_id, cid = self._task_session(request, task_id)
        state = self.gateway.task_state(session_id, cid)
        if state is None:
            raise _HttpError(404, f"unknown task {task_id!r}")
        status, frame = state
        if status != "done":
            await self._respond_json(writer, 200, {"task_id": task_id, "status": status})
        elif frame is None:
            await self._respond_json(
                writer, 200,
                {"task_id": task_id, "status": "done", "result_expired": True},
            )
        else:
            await self._respond_json(
                writer, 200, result_frame_to_status(session_id, frame).to_json()
            )
        return True

    async def _route_cancel(self, request: _Request, writer: asyncio.StreamWriter,
                            task_id: str) -> bool:
        session_id, cid = self._task_session(request, task_id)
        status = self.gateway.cancel(session_id, cid)
        http_status = 404 if status == "unknown" else 200
        await self._respond_json(writer, http_status,
                                 {"task_id": task_id, "status": status})
        return True

    async def _route_stats(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        tenant = self._authenticate(request)
        counts = self.gateway.stats().get(tenant, {})
        stats = TenantStats.from_json({"tenant": tenant, **counts})
        await self._respond_json(writer, 200, stats.to_json())
        return True

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    async def _drain_bounded(self, writer: asyncio.StreamWriter) -> None:
        """``drain()`` with a deadline: a reader that stops consuming must
        not pin the serving coroutine in a flow-control wait forever."""
        try:
            await asyncio.wait_for(writer.drain(), timeout=self.request_timeout)
        except asyncio.TimeoutError:
            raise ConnectionError("SSE client stopped reading; dropping stream")

    async def _route_stream(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        tenant = self._authenticate(request)
        sid, stoken = self._session_credentials(request)
        if sid is None:
            raise _HttpError(400, "streaming requires a session (X-Repro-Session)")
        raw_cursor = (request.headers.get("last-event-id")
                      or request.query.get("last_event_id") or "0")
        try:
            last_seq = int(raw_cursor)
        except ValueError:
            raise _HttpError(400, f"Last-Event-ID must be an integer, got {raw_cursor!r}")
        # Bind this stream's sink, supersede any previous stream, and queue
        # the replay of (last_seq, durable_seq] — all before the loop runs
        # again, so every live frame (delivered via call_soon_threadsafe)
        # lands behind the replay and the seq filter below never skips any.
        sink = self._stream_sink(sid)
        _info, replay = self._resume_session(tenant, sid, stoken, last_seq, sink=sink)
        ses = self._sessions[sid]
        if ses.stream is not None:
            self._stream_put(sid, _STREAM_CLOSE)
        queue: asyncio.Queue = asyncio.Queue(maxsize=STREAM_QUEUE_LIMIT)
        ses.stream = queue
        for frame in replay:
            self._stream_put(sid, frame)

        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "X-Accel-Buffering: no\r\n\r\n"
        )
        written_seq = last_seq
        try:
            writer.write(headers.encode("latin-1"))
            await self._drain_bounded(writer)
            while True:
                try:
                    item = await asyncio.wait_for(queue.get(), timeout=self.sse_keepalive_s)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await self._drain_bounded(writer)
                    continue
                if item is _STREAM_CLOSE:
                    writer.write(b"event: done\ndata: {\"reason\": \"superseded\"}\n\n")
                    await self._drain_bounded(writer)
                    break
                seq = int(item.get("seq") or 0)
                if seq <= written_seq:
                    continue  # replay overlap: the client already saw this
                written_seq = seq
                status = result_frame_to_status(sid, item)
                event = "result" if status.success else "error"
                data = json.dumps(status.to_json())
                writer.write(f"id: {seq}\nevent: {event}\ndata: {data}\n\n".encode("utf-8"))
                await self._drain_bounded(writer)
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            if ses.stream is queue:
                ses.stream = None
            self.gateway.detach_session(sid, sink)
        return False  # the SSE response consumed the connection
