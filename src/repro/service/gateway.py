"""The workflow gateway: many remote tenants sharing a fleet of DFK shards.

The paper's ecosystem hosts the execution fabric behind services (science
gateways, hosted endpoints) rather than handing every user their own kernel.
This module composes the pieces built in earlier layers into exactly that:

* a :class:`~repro.comms.server.MessageServer` accepts remote
  :class:`~repro.service.client.ServiceClient` connections
  (:mod:`repro.service.protocol` defines the frames),
* every registration is authenticated against
  :class:`~repro.auth.tokens.TokenStore`-scoped tokens
  (scope ``gateway/<tenant>``),
* each tenant gets a *session namespace*: a session id + secret, its own
  result sequence, and a bounded replay buffer so a client that reconnects
  recovers results that completed while it was away,
* execution is spread over one or more **DFK shards**
  (:class:`~repro.service.shard.GatewayShard`): each shard wraps one
  DataFlowKernel with its own weighted fair-share queue, bounded dispatch
  window and completion hook, while a
  :class:`~repro.service.shard.ShardRouter` (consistent hashing on the
  tenant, load-aware spillover) decides placement — so fair-share ordering
  and the window cap apply *per shard* and admission/backpressure/dedup
  stay global,
* per-tenant in-flight caps answer overload with explicit ``busy``
  backpressure frames instead of unbounded queueing,
* results and exceptions stream back as tasks complete, via each DFK's
  completion fan-out hooks (no polling), and TASK_STATE monitoring rows
  carry the tenant in their ``tag`` column,
* with a :class:`~repro.service.store.SessionStore` attached, sessions,
  replay buffers, and accepted-but-unfinished tasks are **durable**: a
  submit is acknowledged only after its write-ahead record committed, a
  result is delivered only after it committed, and a restarted gateway
  reloads every session and re-executes every unfinished task — so no
  acknowledged frame is ever lost to a crash,
* ``stats`` admin commands report per-tenant counters plus per-shard
  queue/window occupancy.

Sessions are driven through plain session-keyed methods (``open_session``,
``resume_session``, ``submit``, ``cancel``, ``release_session``), called by
the TCP service loop once it has decoded a frame and checked its token, and
directly by :class:`~repro.service.http_edge.HttpEdge`. A session's results
go to one *delivery target*: the TCP ``server.send`` of the connection bound
to it, an edge stream's non-blocking sink, or nobody (detached: its TTL
clock runs and results wait in the replay buffer).

Threading model: session state is written by the **service thread** (TCP
frames, session sweeps, the 1 Hz SLO tick), the HTTP edge's event loop, the
DFKs' completing threads (the hooks) and the store's writer thread (commit
callbacks). One re-entrant lock, ``_lock``, guards all of it — sessions,
tenant counters, the identity → session map, the task map, every shard's
queue and window. No thread waits on a queue: a task enters its shard's
DFK on the thread that queued it or freed a slot in that shard's window
(``_dispatch``). Nothing else does I/O under the lock: store calls only
enqueue, and frames go through ``_outbound`` to one **sender thread**.
"""

from __future__ import annotations

import logging
import queue
import secrets
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.auth.tokens import TokenStore
from repro.comms.server import MessageServer
from repro.core.dflow import DataFlowKernel
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    SessionExpiredError,
    ShardUnavailableError,
    TaskCancelledError,
)
from repro.core.states import States
from repro.core.taskrecord import TaskRecord
from repro.observability.anomaly import StragglerDetector
from repro.observability.metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.observability.slo import SloAlert, SloEngine, parse_tenant_slos
from repro.observability.trace import flush_spans, new_trace, stamp
from repro.scheduling.spec import ResourceSpec
from repro.serialize import deserialize, serialize, unpack_apply_message
from repro.service import protocol
from repro.service.shard import GatewayShard, ShardRouter
from repro.service.store import SessionStore
from repro.utils.ids import make_uid

logger = logging.getLogger(__name__)

#: Session-store writer lag (ms) beyond which ``GET /v1/healthz`` reports
#: ``degraded``.
STORE_DEGRADED_MS = 1000.0


class _TenantState:
    """Admission accounting for one tenant (shared across its sessions)."""

    __slots__ = ("name", "weight", "queued", "running", "completed", "failed",
                 "cancelled", "m_admission_wait", "m_e2e")

    def __init__(self, name: str, weight: int):
        self.name = name
        self.weight = weight
        self.queued = 0     # held in a fair-share queue
        self.running = 0    # inside a DFK, not yet final
        self.completed = 0
        self.failed = 0
        self.cancelled = 0  # cancelled while still queued
        #: Per-tenant latency histograms, bound once by _tenant_state so the
        #: hot paths observe without a registry lookup per task.
        self.m_admission_wait: Optional[Histogram] = None
        self.m_e2e: Optional[Histogram] = None

    @property
    def inflight(self) -> int:
        return self.queued + self.running

    def counts(self) -> Dict[str, int]:
        return {
            "queued": self.queued,
            "running": self.running,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "weight": self.weight,
        }


class _Session:
    """One tenant session: delivery binding, dedup table, replay buffer."""

    def __init__(self, session_id: str, session_token: str, tenant: str):
        self.session_id = session_id
        self.session_token = session_token
        self.tenant = tenant
        #: The TCP connection bound to the session, if any.
        self.identity: Optional[str] = None
        #: Where result frames go (called on the sender thread); ``None``
        #: while detached, when the TTL clock runs from ``disconnected_at``.
        self.target: Optional[Callable[[Dict[str, Any]], Any]] = None
        self.disconnected_at: Optional[float] = time.time()
        self.seq = 0
        #: Highest seq whose result frame has durably committed. Without a
        #: store this tracks ``seq`` exactly; with one, frames above it are
        #: committing and must not be sent yet (a client may never see a
        #: seq the store could forget — that is the crash-safety invariant).
        self.durable_seq = 0
        #: client_task_id -> "queued" | "running" | "done" (duplicate guard;
        #: resent submits after a reconnect must not run twice).
        self.seen: Dict[int, str] = {}
        #: Completed-result frames kept for replay, oldest first.
        self.replay: Deque[Dict[str, Any]] = deque()
        #: client_task_id -> its replay frame (for duplicate-submit replies).
        self.done_results: Dict[int, Dict[str, Any]] = {}
        #: client_task_ids cancelled while still queued: dispatch skips them
        #: instead of submitting, delivering a TaskCancelledError result.
        self.cancelled: Set[int] = set()


class WorkflowGateway:
    """Serve one or more DataFlowKernel shards to many remote tenants.

    ``dfk`` may be a single kernel (the classic single-shard topology —
    behaviour is identical to earlier revisions) or a sequence of kernels,
    each becoming one shard. The gateway owns its service settings: every
    knob below is a constructor argument, validated here before the port is
    bound (the kernels' ``Config`` only says how tasks run). ``start()``
    recovers durable sessions when a store is configured and registers the
    completion hooks; use as a context manager or call ``stop()``.

    Thread-safety: all public methods may be called from any thread.

    :param dfk: the kernel (or kernels) to execute on. The first one is
        exposed as ``self.dfk``; its ``Config`` decides whether the gateway
        records metrics and mints traces.
    :param host: address the ``MessageServer`` binds.
    :param port: TCP port to bind (0 = ephemeral).
    :param max_inflight_per_tenant: per-tenant admission cap (queued +
        running); beyond it submits get ``busy`` replies.
    :param window: gateway tasks allowed inside each shard's DFK at once;
        ordering beyond it belongs to the fair-share queue.
    :param session_ttl_s: how long a detached session (and its replay
        buffer) survives.
    :param replay_limit: completed results kept per session for replay.
    :param default_weight: fair-share weight for tenants not pinned.
    :param tenant_weights: pinned fair-share weights; a pinned tenant's
        hello-proposed weight is ignored.
    :param store: a :class:`~repro.service.store.SessionStore` to make
        sessions durable, or ``None`` to build one from ``store_path``
        (in-memory-only when both are unset).
    :param shard_vnodes: virtual nodes per shard on the hash ring.
    :param shard_spillover: how overloaded a tenant's home shard may be,
        relative to the least-loaded live shard, before work spills over.
    :param tenant_slos: per-tenant latency objectives, e.g.
        ``{"interactive": {"p99_ms": 250, "window_s": 60}}`` (see
        :func:`~repro.observability.slo.parse_tenant_slos`).
    :param anomaly: the straggler detector (default
        ``StragglerDetector()``), which validates its own thresholds.
    :raises repro.errors.ConfigurationError: when a knob is out of range.
    """

    def __init__(
        self,
        dfk: Union[DataFlowKernel, Sequence[DataFlowKernel]],
        host: str = "127.0.0.1",
        port: int = 0,
        token_store: Optional[TokenStore] = None,
        max_inflight_per_tenant: int = 64,
        window: int = 128,
        session_ttl_s: float = 60.0,
        replay_limit: int = 1024,
        default_weight: int = 1,
        tenant_weights: Optional[Dict[str, int]] = None,
        max_client_weight: int = 16,
        store: Optional[SessionStore] = None,
        store_path: Optional[str] = None,
        shard_vnodes: int = 64,
        shard_spillover: float = 2.0,
        tenant_slos: Optional[Dict[str, Dict[str, Any]]] = None,
        on_alert: Optional[Callable[[SloAlert], None]] = None,
        anomaly: Optional[StragglerDetector] = None,
    ):
        dfks: List[DataFlowKernel] = (
            list(dfk) if isinstance(dfk, (list, tuple)) else [dfk]
        )
        if not dfks:
            raise ValueError("WorkflowGateway needs at least one DataFlowKernel")
        for name, value in (("max_inflight_per_tenant", max_inflight_per_tenant),
                            ("window", window), ("replay_limit", replay_limit),
                            ("default_weight", default_weight),
                            ("shard_vnodes", shard_vnodes)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
        if session_ttl_s <= 0:
            raise ConfigurationError("session_ttl_s must be positive")
        if shard_spillover < 1.0:
            raise ConfigurationError("shard_spillover must be >= 1.0")
        for tenant, weight in (tenant_weights or {}).items():
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ConfigurationError(
                    f"tenant weight for {tenant!r} must be a positive integer, got {weight!r}"
                )
        try:
            parse_tenant_slos(tenant_slos)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(f"tenant_slos invalid: {exc}")
        cfg = dfks[0].config
        #: The first shard's kernel (kept for single-shard callers; prefer
        #: ``shards[i].dfk`` in shard-aware code).
        self.dfk = dfks[0]
        self.token_store = token_store
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.window = window
        self.session_ttl_s = session_ttl_s
        self.replay_limit = replay_limit
        self.default_weight = default_weight
        #: Weights pinned by configuration; a tenant listed here ignores any
        #: weight its hello proposes (clients cannot promote themselves).
        self.pinned_weights = dict(tenant_weights or {})
        #: Ceiling on hello-proposed weights for unpinned tenants. Without
        #: one, any authenticated tenant could claim weight 10**9 and
        #: monopolize the fair-share queue — the exact starvation this
        #: subsystem exists to prevent. Operator-pinned weights are exempt.
        self.max_client_weight = max_client_weight

        self.server = MessageServer(host=host, port=port, name="gateway")

        self._lock = threading.RLock()
        #: The execution fabric: one shard per kernel, each with its own
        #: fair-share queue and dispatch window (``self.window`` each).
        self.shards: List[GatewayShard] = []
        for index, kernel in enumerate(dfks):
            shard = GatewayShard(index, kernel, self.window, self.default_weight)
            for tenant, weight in self.pinned_weights.items():
                shard.queue.set_weight(tenant, weight)
            self.shards.append(shard)
        self._router = ShardRouter(self.shards, vnodes=shard_vnodes, spillover=shard_spillover)

        #: Durable session store (None = in-memory sessions, the classic
        #: behaviour: a restart forgets everything).
        if store is not None:
            self._store: Optional[SessionStore] = store
        elif store_path:
            self._store = SessionStore(store_path)
        else:
            self._store = None

        #: Gateway-side metrics plane. Separate registry from the shard
        #: kernels' (each DFK owns its own); :meth:`render_metrics` merges
        #: them into one Prometheus document at scrape time.
        if cfg.metrics_enabled:
            self.metrics: MetricsRegistry = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY
        self._m_delivered = self.metrics.counter(
            "repro_gateway_tasks_delivered_total",
            "Result frames committed to sessions for delivery",
        )
        self.metrics.gauge(
            "repro_gateway_sessions",
            "Live (connected or within-TTL) tenant sessions",
            callback=lambda: len(self._sessions),
        )
        #: The live ops plane: per-tenant rolling-window latency + burn-rate
        #: SLO alerting, fed by :meth:`_on_task_final` and evaluated on the
        #: service loop (lazily on every alerts surface too). ``on_alert``
        #: is the pluggable rising-edge hook future schedulers can use for
        #: priority boosts on burn.
        self.slo = SloEngine(tenant_slos=tenant_slos, registry=self.metrics, on_alert=on_alert)
        #: Streaming straggler detection over live task spans, trained by
        #: every completion's hop timeline.
        self.anomaly = anomaly if anomaly is not None else StragglerDetector()
        #: Session-store writer lag (ms) beyond which healthz degrades.
        self.store_degraded_ms = STORE_DEGRADED_MS
        self._last_slo_eval = 0.0
        #: Trace minting at the gateway edge: the gateway is the first hop a
        #: remote task crosses, so the trace context is created (and
        #: "submitted" stamped) here and rides the queued item into the DFK.
        self._trace_enabled = cfg.trace_enabled

        self._tenants: Dict[str, _TenantState] = {}
        self._sessions: Dict[str, _Session] = {}
        #: TCP identity -> the session bound to it (present only while bound).
        self._identity_sessions: Dict[str, str] = {}
        #: (shard index, DFK task id) -> the queued item dict (kept whole so
        #: a dying shard's in-flight work can be re-routed to survivors).
        self._tasks: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: (delivery target, frame) pairs awaiting transmission. Completion
        #: hooks run on the DFKs' completing threads, and a TCP send can
        #: block on a client that stopped reading — so hooks enqueue here
        #: and a dedicated sender thread does the socket work, keeping one
        #: stalled tenant from blocking every other tenant's completions.
        #: ``None`` tells the sender to exit once the frames ahead of it are sent.
        self._outbound: "queue.Queue[Optional[Tuple[Callable, Dict[str, Any]]]]" = queue.Queue()
        self._stop_event = threading.Event()
        self._threads: list = []
        self._last_sweep = time.time()
        self._started = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Bound listen address (stable across the gateway's lifetime)."""
        return self.server.host

    @property
    def port(self) -> int:
        """Bound TCP port (resolved from 0 at construction)."""
        return self.server.port

    def start(self) -> "WorkflowGateway":
        """Recover durable sessions, hook the shards, launch the threads."""
        if self._started:
            return self
        self._started = True
        if self._store is not None:
            self._recover()
            self._store.start()
        for shard in self.shards:
            # One closure per shard so the hook knows which window/counter
            # to credit (and so kill_shard can detach exactly one hook).
            shard.hook = (
                lambda task, state, _shard=shard: self._on_task_final(_shard, task, state)
            )
            shard.dfk.add_completion_hook(shard.hook)
            # Feed worker-side execution latency into the ops plane: the
            # interchange observes exec time when a result's timing merges;
            # hanging a callback there gives the SLO engine a per-executor
            # rolling window without touching the result hot path twice.
            for label, executor in shard.dfk.executors.items():
                interchange = getattr(executor, "interchange", None)
                if interchange is not None and hasattr(interchange, "latency_observer"):
                    interchange.latency_observer = (
                        lambda seconds, _name=f"exec:{label}":
                        self.slo.record_stream(_name, seconds)
                    )
        with self._lock:
            for shard in self.shards:
                self._dispatch(shard)
        for name, target in (("gateway-service", self._service_loop),
                             ("gateway-sender", self._sender_loop)):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)
        logger.info(
            "gateway serving %d shard(s) on %s:%s (durable=%s)",
            len(self.shards), self.host, self.port, self._store is not None,
        )
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop threads, flush the store, close the port."""
        self._shutdown(flush=True)

    def kill(self) -> None:
        """Crash-style shutdown (test hook): queued store writes are LOST.

        Approximates ``kill -9`` for durability tests — only group-committed
        state survives into the next incarnation, exactly the guarantee the
        write-ahead protocol makes to clients.
        """
        self._shutdown(flush=False)

    def _shutdown(self, flush: bool) -> None:
        if not self._started:
            return
        self._started = False
        self._stop_event.set()
        self._outbound.put(None)  # behind the frames already queued
        self.server.close()  # also wakes the service loop out of recv()
        for t in self._threads:
            t.join(timeout=2)
        for shard in self.shards:
            if shard.hook is not None:
                try:
                    shard.dfk.remove_completion_hook(shard.hook)
                except Exception:  # noqa: BLE001 - kernel may already be closed
                    pass
                shard.hook = None
        if self._store is not None:
            if flush:
                self._store.close()
            else:
                self._store.abandon()

    def __enter__(self) -> "WorkflowGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Durable recovery (runs in start(), before any thread exists)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        assert self._store is not None
        records = self._store.load()
        if not records:
            return
        requeued = 0
        with self._lock:
            for rec in records.values():
                session = _Session(rec.session_id, rec.session_token, rec.tenant)
                session.seq = rec.seq
                session.durable_seq = rec.seq
                for seq, cid, success, buffer in rec.results:
                    frame = protocol.result(seq, cid, success, buffer)
                    session.replay.append(frame)
                    session.done_results[cid] = frame
                    session.seen[cid] = "done"
                self._sessions[session.session_id] = session
                tenant = self._tenant_state(rec.tenant)
                # Accepted-but-unfinished tasks are re-executed from their
                # write-ahead records: the client was promised a result.
                for cid, (buffer, spec_blob) in sorted(rec.tasks.items()):
                    try:
                        func, args, kwargs = unpack_apply_message(buffer)
                        spec = ResourceSpec.from_user(
                            deserialize(spec_blob) if spec_blob else None
                        )
                    except Exception as exc:  # noqa: BLE001 - poison row
                        session.seen[cid] = "done"
                        tenant.failed += 1
                        self._deliver(rec.session_id, cid, False, exc)
                        continue
                    item = self._make_item(session, cid, func, args, kwargs, spec)
                    self._admit_item(item)  # recovered attempt gets a fresh trace
                    session.seen[cid] = "queued"
                    tenant.queued += 1
                    shard = self._router.route(rec.tenant)
                    assert shard is not None  # all shards alive at boot
                    shard.queue.put(rec.tenant, item)
                    requeued += 1
        logger.info(
            "gateway recovered %d session(s), requeued %d task(s) from %s",
            len(records), requeued, self._store.path,
        )

    # ------------------------------------------------------------------
    # Session operations: the one session core both transports call
    # ------------------------------------------------------------------
    def open_session(self, tenant: str, weight: Any = None,
                     identity: Optional[str] = None) -> Dict[str, Any]:
        """Open a fresh session for an authenticated ``tenant``; returns its welcome frame.

        ``weight`` is the client's proposed fair-share weight: ignored for
        pinned tenants, capped at ``max_client_weight`` otherwise. A TCP
        caller passes its connection ``identity`` to bind the session's
        deliveries (and detaches whatever session that connection served
        before); without one the session starts detached. Any thread.
        """
        with self._lock:
            state = self._tenant_state(tenant)
            if (
                tenant not in self.pinned_weights
                and isinstance(weight, int)
                and not isinstance(weight, bool)
                and weight >= 1
            ):
                state.weight = min(weight, self.max_client_weight)
                for shard in self.shards:
                    shard.queue.set_weight(tenant, state.weight)
            session = _Session(make_uid("sess"), secrets.token_hex(16), tenant)
            self._sessions[session.session_id] = session
            if identity is not None:
                self._bind(session, identity=identity)
            if self._store is not None:
                # Enqueued before any of the session's results can be, so the
                # writer commits the row first: a durable result never orphans.
                self._store.save_session(session.session_id, tenant, session.session_token)
            return self._welcome(session, resumed=False)

    def resume_session(
        self,
        tenant: str,
        session_id: str,
        session_token: Optional[str],
        last_seq: int = 0,
        identity: Optional[str] = None,
        sink: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Check a session's credentials and (re)bind its deliveries.

        Returns ``(welcome, replay)``. With a TCP ``identity`` or a
        non-blocking ``sink``, results from now on go there, and ``replay``
        holds the durable result frames with ``seq > last_seq`` that the
        caller must deliver ahead of them. Without either, the binding is
        left alone, a detached session's TTL clock restarts, and ``replay``
        is empty. Any thread.

        :raises repro.errors.SessionExpiredError: the session is unknown or
            was evicted.
        :raises repro.errors.AuthenticationError: the tenant or session
            token does not match.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionExpiredError("unknown or expired session")
            if session.tenant != tenant or session.session_token != session_token:
                raise AuthenticationError("session credentials mismatch")
            welcome = self._welcome(session, resumed=True)
            if identity is None and sink is None:
                if session.target is None:
                    session.disconnected_at = time.time()
                return welcome, []
            self._bind(session, identity=identity, sink=sink)
            # Replay stops at durable_seq: frames still committing are
            # delivered by their own store callbacks, which run after this
            # and read the new target — the client never sees a seq the
            # store could forget in a crash.
            return welcome, [
                frame for frame in session.replay
                if last_seq < frame["seq"] <= session.durable_seq
            ]

    def detach_session(self, session_id: str, sink: Callable[[Dict[str, Any]], Any]) -> None:
        """Unbind ``sink`` (attached by :meth:`resume_session`) if it is
        still the session's target; the session's TTL clock starts. Any thread."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None and session.target is sink:
                self._bind(session)

    def release_session(self, session_id: str) -> None:
        """Evict a session now (goodbye): no TTL, its results are dropped. Any thread."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                return
            self._bind(session)
            if self._store is not None:
                self._store.delete_session(session_id)

    def has_session(self, session_id: str) -> bool:
        """Whether the gateway still holds ``session_id`` (not evicted)."""
        return session_id in self._sessions

    def _bind(self, session: _Session, identity: Optional[str] = None,
              sink: Optional[Callable[[Dict[str, Any]], Any]] = None) -> None:
        """Deliver ``session``'s results to TCP peer ``identity``, to ``sink``,
        or (neither) nowhere, starting its TTL clock. Caller holds the lock."""
        if identity is not None:
            stale = self._sessions.get(self._identity_sessions.get(identity) or "")
            if stale is not None and stale is not session:
                # A connection serves one session: the one it served before
                # is detached so the TTL sweep can evict it.
                self._bind(stale)
            sink = self._tcp_target(identity)
        if session.identity is not None:
            self._identity_sessions.pop(session.identity, None)
        if identity is not None:
            self._identity_sessions[identity] = session.session_id
        session.identity = identity
        session.target = sink
        session.disconnected_at = None if sink is not None else time.time()

    def _tcp_target(self, identity: str) -> Callable[[Dict[str, Any]], bool]:
        """The delivery target for TCP peer ``identity``."""
        return lambda frame: self.server.send(identity, frame)

    def _welcome(self, session: _Session, resumed: bool) -> Dict[str, Any]:
        """Caller holds the lock."""
        return protocol.welcome(
            session.session_id,
            session.session_token,
            resumed=resumed,
            max_inflight=self.max_inflight_per_tenant,
            weight=self._tenant_state(session.tenant).weight,
            shard=self._router.home(session.tenant).index,
        )

    def submit(self, session_id: str, cid: Any, buffer: Any,
               resource_spec: Optional[Dict[str, Any]],
               reply: Callable[[Dict[str, Any]], Any]) -> None:
        """Admit one ``pack_apply_message`` task into a session. Any thread.

        ``reply`` receives exactly one frame: ``accepted`` (with a durable
        store only once the task's write-ahead row committed, and then on
        the sender thread), ``busy``, ``error``, or — for a resend of a
        finished task — its ``result``. A resend of a queued or running
        ``cid`` is acknowledged again and never runs twice.
        """
        session = self._sessions.get(session_id) if session_id else None
        if session is None:
            reply(protocol.error("no session; send hello first"))
            return
        if not isinstance(cid, int):
            reply(protocol.error("submit carries no client_task_id"))
            return
        try:
            func, args, kwargs = unpack_apply_message(buffer)
            spec = ResourceSpec.from_user(resource_spec)
        except Exception as exc:  # noqa: BLE001 - a bad task must not kill the caller
            reply(protocol.error(f"undecodable task: {exc!r}", cid))
            return
        # Everything that needs no gateway state is done before taking the
        # lock: routing alone reads every lane of every shard's queue, and
        # every other submit and completion hook waits on this lock.
        item = self._make_item(session, cid, func, args, kwargs, spec)
        trace_id = self._admit_item(item)
        spec_blob = serialize(resource_spec) if resource_spec and self._store is not None else None
        shard = self._router.route(session.tenant)
        # One lock hold from the duplicate check to the "queued" mark: the
        # same cid may arrive on two transports at once.
        with self._lock:
            status = session.seen.get(cid)
            tenant = self._tenant_state(session.tenant)
            if shard is not None and not shard.alive:
                shard = self._router.route(session.tenant)  # died since routing
            if self._sessions.get(session_id) is not session:
                frame = protocol.error("no session; send hello first")  # evicted meanwhile
            elif status == "done":
                # Duplicate of a finished task (client resent after a
                # reconnect race): replay its result instead of re-running —
                # unless the frame is still committing, in which case its
                # store callback will deliver it and an ack suffices here.
                frame = session.done_results.get(cid)
                if frame is None or frame["seq"] > session.durable_seq:
                    frame = protocol.accepted(cid)
            elif status is not None:
                frame = protocol.accepted(cid)  # idempotent resend
            elif tenant.inflight >= self.max_inflight_per_tenant:
                frame = protocol.busy(cid, tenant.inflight, self.max_inflight_per_tenant)
            elif shard is None:
                frame = protocol.error(
                    "no live shard available; retry later", cid,
                    code="shard_unavailable", shard=self._router.home(session.tenant).index,
                )
            else:
                frame = protocol.accepted(cid, trace_id=trace_id)
                session.seen[cid] = "queued"
                tenant.queued += 1
                shard.queue.put(session.tenant, item)
                if self._store is not None:
                    # Write-ahead: the ack waits for the commit (execution
                    # may overlap it — results are themselves gated on
                    # durability). Enqueued before dispatch, so a task that
                    # finishes inside dfk.submit cannot commit its result row
                    # ahead of this row (a restart would run it again).
                    self._store.append_task(
                        session.session_id, cid, buffer, spec_blob,
                        on_durable=lambda: self._outbound.put((reply, frame)),
                    )
                self._dispatch(shard)
                if self._store is not None:
                    return
        reply(frame)

    def cancel(self, session_id: str, cid: int) -> str:
        """Cancel a task still in the fair-share queue. Any thread.

        Returns ``cancelled`` (a failure result carrying
        :class:`~repro.errors.TaskCancelledError` follows), ``running``,
        ``done``, or ``unknown``.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            status = session.seen.get(cid) if session is not None else None
            if status == "queued":
                # The item stays in the fair-share queue; dispatch discards
                # it at pop time and delivers the cancellation result.
                session.cancelled.add(cid)
                return "cancelled"
            return status or "unknown"

    # ------------------------------------------------------------------
    # TCP transport: the service loop decodes frames and calls the above
    # ------------------------------------------------------------------
    def _service_loop(self) -> None:
        sweep_period = min(1.0, self.session_ttl_s / 2)
        while not self._stop_event.is_set():
            try:
                # Block until a frame arrives or the next sweep / SLO tick
                # is due, whichever is first; close() wakes it at shutdown.
                wake = min(self._last_sweep + sweep_period, self._last_slo_eval + 1.0)
                received = self.server.recv(timeout=max(0.0, wake - time.time()))
                while received is not None:
                    identity, message = received
                    self._handle(identity, message)
                    received = self.server.recv(timeout=0.0)
                self._sweep_sessions(sweep_period)
                # Keep burn gauges and the active-alert set fresh (and fire
                # on_alert promptly) even when nobody polls an alerts
                # surface; throttled to ~1 Hz.
                now = time.time()
                if now - self._last_slo_eval >= 1.0:
                    self._last_slo_eval = now
                    self.slo.evaluate()
                    self.anomaly.drain()
            except Exception:  # noqa: BLE001 - the gateway must not die
                logger.exception("gateway service loop error")

    def _handle(self, identity: str, message: Any) -> None:
        send = self.server.send
        if not isinstance(message, dict):
            send(identity, protocol.error("messages must be dicts"))
            return
        mtype = message.get("type")
        session_id = self._identity_sessions.get(identity)
        if mtype == "registration":
            return  # comms-level; the session starts at hello
        if mtype == "hello":
            self._handle_hello(identity, message)
        elif mtype == "submit":
            self.submit(
                session_id, message.get("client_task_id"), message.get("buffer"),
                message.get("resource_spec"), self._tcp_target(identity),
            )
        elif mtype == "cancel":
            cid = message.get("client_task_id")
            if not isinstance(cid, int):
                send(identity, protocol.error("cancel carries no client_task_id"))
            elif session_id is None:
                send(identity, protocol.error("no session; send hello first"))
            else:
                send(identity, protocol.cancel_reply(cid, self.cancel(session_id, cid)))
        elif mtype in ("stats", "metrics", "alerts"):
            try:
                req_id = int(message.get("req_id") or 0)
            except (TypeError, ValueError):
                send(identity, protocol.error(f"{mtype} req_id must be an integer"))
                return
            if mtype == "stats":
                reply = protocol.stats_reply(req_id, self.stats(), shards=self.shard_stats())
            elif mtype == "metrics":
                reply = protocol.metrics_reply(req_id, self.render_metrics())
            else:
                reply = protocol.alerts_reply(req_id, self.alerts_snapshot())
            send(identity, reply)
        elif mtype in ("goodbye", "peer_lost"):
            with self._lock:
                # The map holds the identity only while it is still bound, so
                # a connection superseded by a resume elsewhere finds nothing.
                session = self._sessions.get(self._identity_sessions.get(identity) or "")
                if session is None:
                    return
                if mtype == "goodbye":
                    self.release_session(session.session_id)
                else:
                    self._bind(session)
        else:
            send(identity, protocol.error(f"unknown message type {mtype!r}"))

    def _handle_hello(self, identity: str, message: Dict[str, Any]) -> None:
        tenant = message.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            self.server.send(identity, protocol.auth_error("hello carries no tenant name"))
            return
        if self.token_store is not None and not self.token_store.validate(
            protocol.token_scope(tenant), message.get("token")
        ):
            self.server.send(
                identity,
                protocol.auth_error(f"invalid or expired token for tenant {tenant!r}"),
            )
            return
        if "session" not in message:
            welcome = self.open_session(tenant, message.get("weight"), identity=identity)
            self.server.send(identity, welcome)
            return
        try:
            last_seq = int(message.get("last_seq") or 0)
        except (TypeError, ValueError):
            self.server.send(identity, protocol.auth_error("hello last_seq must be an integer"))
            return
        send = self._tcp_target(identity)
        with self._lock:
            try:
                welcome, replay = self.resume_session(
                    tenant, message.get("session"), message.get("session_token"),
                    last_seq, identity=identity,
                )
            except (SessionExpiredError, AuthenticationError) as exc:
                welcome, replay = protocol.auth_error(str(exc)), []
            # Enqueue the welcome + replay train while still holding the
            # lock. _deliver enqueues under the same lock, so the sender
            # thread — the single writer per peer — observes result frames
            # in seq order: a task completing during the resume cannot
            # overtake its own replay and trick the client's duplicate
            # filter into discarding the rest of the train.
            for frame in [welcome] + replay:
                self._outbound.put((send, frame))

    # ------------------------------------------------------------------
    @staticmethod
    def _make_item(session: _Session, cid: int, func: Any, args: Any,
                   kwargs: Any, spec: ResourceSpec) -> Dict[str, Any]:
        return {
            "priority": spec.priority,
            "cores": spec.cores,
            "session": session.session_id,
            "tenant": session.tenant,
            "client_task_id": cid,
            "func": func,
            "args": args,
            "kwargs": kwargs,
            "spec": spec.to_wire(),
        }

    def _admit_item(self, item: Dict[str, Any]) -> Optional[str]:
        """Stamp admission clocks on ``item`` and mint its trace.

        Returns the trace id when tracing is on, else ``None``.
        ``_t0`` anchors the tenant's end-to-end latency histogram; ``_enq_t``
        anchors the admission-wait histogram (reset by re-routing, so a task
        adopted by a surviving shard measures its *second* wait).
        """
        now = time.time()
        item["_t0"] = now
        item["_enq_t"] = now
        if self._trace_enabled:
            trace = new_trace()
            stamp(trace, "submitted", now)
            item["trace"] = trace
            return trace["id"]
        return None

    def task_state(self, session_id: str, cid: int) -> Optional[Tuple[str, Optional[Dict[str, Any]]]]:
        """In-process status probe: ``(status, result_frame)`` or ``None``.

        ``status`` is the session's dedup-table view (``queued`` / ``running``
        / ``done``); the frame is present only once the task finished and its
        result is still within the replay buffer. Used by the HTTP edge's
        ``GET /v1/tasks/{id}``, which must answer without perturbing the
        stream protocol.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return None
            status = session.seen.get(cid)
            if status is None:
                return None
            return status, session.done_results.get(cid)

    # ------------------------------------------------------------------
    # Dispatch: per-shard fair-share queue -> that shard's DFK
    # ------------------------------------------------------------------
    def _dispatch(self, shard: GatewayShard) -> None:
        """Move ``shard``'s queued tasks into its DFK while its window has room.

        Caller holds ``_lock``. Does nothing until the shard's completion
        hook, which frees window slots, is registered. A task finishing in
        ``dfk.submit`` re-enters here on this thread via ``_on_task_final``;
        that call returns at once and this loop takes the freed slot.
        """
        if shard.dispatching or shard.hook is None:
            return
        shard.dispatching = True
        try:
            while (not self._stop_event.is_set() and shard.alive
                   and shard.inflight < shard.window):
                popped = shard.queue.pop()
                if popped is None:
                    return
                tenant_name, item = popped
                tenant = self._tenant_state(tenant_name)
                tenant.queued -= 1
                session = self._sessions.get(item["session"])
                if session is None:
                    # The session was evicted while the task queued; there is
                    # nobody to deliver to, so do not spend executor time.
                    tenant.failed += 1
                    continue
                if item["client_task_id"] in session.cancelled:
                    # Cancelled while queued: never reaches the kernel. The
                    # client sees an ordinary failure result carrying
                    # TaskCancelledError (so futures resolve and SSE streams
                    # emit an error event through the one delivery path).
                    cid = item["client_task_id"]
                    session.cancelled.discard(cid)
                    session.seen[cid] = "done"
                    tenant.cancelled += 1
                    self._deliver(
                        item["session"], cid, False,
                        TaskCancelledError(f"task {cid} cancelled before dispatch"),
                        trace_id=(item.get("trace") or {}).get("id"),
                    )
                    continue
                enq_t = item.pop("_enq_t", None)
                if enq_t is not None and tenant.m_admission_wait is not None:
                    tenant.m_admission_wait.observe(time.time() - enq_t)
                try:
                    # Submit while holding the lock so a completion hook
                    # firing on another thread always finds the task-id
                    # mapping already recorded (the RLock re-enters for the
                    # same-thread synchronous case handled below).
                    future = shard.dfk.submit(
                        item["func"],
                        app_args=item["args"],
                        app_kwargs=item["kwargs"],
                        cache=False,
                        resource_spec=item["spec"] or None,
                        tag=tenant_name,
                        trace=item.get("trace"),
                    )
                except Exception as exc:  # noqa: BLE001 - per-task submit failure
                    tenant.failed += 1
                    session.seen[item["client_task_id"]] = "done"
                    self._deliver(
                        item["session"], item["client_task_id"], False, exc,
                        trace_id=(item.get("trace") or {}).get("id"),
                    )
                    continue
                session.seen[item["client_task_id"]] = "running"
                tenant.running += 1
                shard.inflight += 1
                shard.dispatched_total += 1
                self._tasks[(shard.index, future.tid)] = item
                if future.done():
                    # The task completed *inside* submit on this very thread
                    # (e.g. a kernel shutting down fail-fasts synchronously;
                    # the re-entrant lock let the hook run and find no
                    # mapping). Settle it now — _on_task_final pops the
                    # mapping exactly once, so a hook that already ran on
                    # another thread makes this a no-op.
                    task = future.task_record
                    if task is not None:
                        self._on_task_final(shard, task, task.status)
        finally:
            shard.dispatching = False

    # ------------------------------------------------------------------
    # Completion fan-out (runs on the DFKs' completing threads)
    # ------------------------------------------------------------------
    def _on_task_final(self, shard: GatewayShard, task: TaskRecord, state: States) -> None:
        with self._lock:
            item = self._tasks.pop((shard.index, task.id), None)
            if item is None:
                return  # not a gateway task (or re-routed off this shard)
            session_id, cid = item["session"], item["client_task_id"]
            tenant = self._tenant_state(task.tag or "")
            tenant.running -= 1
            shard.inflight -= 1
            shard.completed_total += 1
            self._dispatch(shard)  # the freed slot takes the next queued task
        app_fu = task.app_fu
        exc = app_fu.exception() if app_fu is not None else None
        if exc is None:
            success, payload = True, (app_fu.result() if app_fu is not None else None)
        else:
            success, payload = False, exc
        trace = task.trace if task.trace is not None else item.get("trace")
        if trace is not None:
            # Final hop: the result reached the gateway's delivery path. The
            # tail flush picks up result_committed + delivered (the DFK's own
            # flush already wrote everything earlier — the high-water mark in
            # the trace keeps the rows disjoint).
            stamp(trace, "delivered")
            flush_spans(trace, shard.dfk.monitoring, shard.dfk.run_id, task.id)
        t0 = item.get("_t0")
        if t0 is not None and tenant.m_e2e is not None:
            elapsed = time.time() - t0
            tenant.m_e2e.observe(elapsed)
            # Same sample feeds the rolling-window SLO engine (the forever
            # histogram answers "since boot"; this answers "right now").
            self.slo.record(tenant.name, elapsed)
        if trace is not None:
            # Teach the straggler detector what a healthy hop-to-completion
            # timeline looks like, from this finished task's stamps.
            self.anomaly.complete(trace)
        with self._lock:
            if success:
                tenant.completed += 1
            else:
                tenant.failed += 1
        self._deliver(
            session_id, cid, success, payload,
            trace_id=trace["id"] if trace is not None else None,
        )

    def _deliver(self, session_id: str, cid: int, success: bool, payload: Any,
                 trace_id: Optional[str] = None) -> None:
        try:
            buffer = serialize(payload)
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            success = False
            buffer = serialize(
                TypeError(f"task result could not be serialized for transport: {exc!r}")
            )
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return  # session evicted; the result has no audience
            session.seq += 1
            self._m_delivered.inc()
            frame = protocol.result(session.seq, cid, success, buffer, trace_id=trace_id)
            session.seen[cid] = "done"
            session.replay.append(frame)
            session.done_results[cid] = frame
            while len(session.replay) > self.replay_limit:
                evicted = session.replay.popleft()
                # Drop the dedup entry with the replay frame: memory per
                # session stays O(replay_limit) over an unbounded task
                # stream, at the cost of no longer deduplicating a resend
                # of a task so old its result already aged out of replay.
                session.done_results.pop(evicted["client_task_id"], None)
                session.seen.pop(evicted["client_task_id"], None)
            if self._store is None:
                session.durable_seq = session.seq
                if session.target is not None:
                    # Enqueued under the lock so the sender thread sees
                    # frames in seq order even when a resume is replaying
                    # concurrently (see resume_session).
                    self._outbound.put((session.target, frame))
            else:
                # Durable delivery: the frame leaves the building only after
                # its commit. Callbacks fire in enqueue order on the store's
                # writer thread (and _deliver runs under the lock), so per-
                # session seq order is preserved end to end; reading the
                # target at callback time routes to wherever the session
                # lives by then.
                self._store.append_result(
                    session_id, frame["seq"], cid, success, buffer, self.replay_limit,
                    on_durable=lambda: self._finish_durable(session_id, frame),
                )

    def _finish_durable(self, session_id: str, frame: Dict[str, Any]) -> None:
        """Store callback: mark the frame durable and release it for sending."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return
            session.durable_seq = max(session.durable_seq, frame["seq"])
            if session.target is not None:
                self._outbound.put((session.target, frame))

    def _sender_loop(self) -> None:
        """Drain result frames to clients off the DFKs' completing threads."""
        for target, frame in iter(self._outbound.get, None):  # None: _shutdown's sentinel
            try:
                # A send to a vanished peer fails quietly — the frame stays
                # in the session's replay buffer for the eventual resume.
                target(frame)
            except Exception:  # noqa: BLE001 - one bad peer must not stop the drain
                logger.exception("gateway failed sending a %s frame", frame.get("type"))

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def kill_shard(self, index: int) -> int:
        """Simulate the abrupt death of one shard; returns tasks re-routed.

        Mirrors what a production gateway does when a kernel process dies
        under it: the shard's completion hook is detached *first* (any
        result the doomed kernel still produces is discarded — the dedup
        table must never see double deliveries), then every queued and
        in-flight task of that shard is re-routed through the
        :class:`~repro.service.shard.ShardRouter` onto the surviving
        shards. With no survivor, affected tasks fail with
        :class:`~repro.errors.ShardUnavailableError` results instead of
        hanging. Callable from any thread.
        """
        with self._lock:
            shard = self.shards[index]
            if not shard.alive:
                return 0
            shard.alive = False
            hook = shard.hook
        if hook is not None:
            try:
                shard.dfk.remove_completion_hook(hook)
            except Exception:  # noqa: BLE001 - kernel may already be gone
                pass
        moved: List[Dict[str, Any]] = []
        with self._lock:
            popped = shard.queue.pop()
            while popped is not None:
                moved.append(popped[1])
                popped = shard.queue.pop()
            for key in [k for k in self._tasks if k[0] == index]:
                item = self._tasks.pop(key)
                tenant = self._tenant_state(item["tenant"])
                tenant.running -= 1
                tenant.queued += 1
                session = self._sessions.get(item["session"])
                if session is not None:
                    session.seen[item["client_task_id"]] = "queued"
                moved.append(item)
            shard.inflight = 0
            rerouted = 0
            for item in moved:
                target = self._router.route(item["tenant"])
                tenant = self._tenant_state(item["tenant"])
                session = self._sessions.get(item["session"])
                if target is None or session is None:
                    tenant.queued -= 1
                    tenant.failed += 1
                    if session is not None:
                        session.seen[item["client_task_id"]] = "done"
                        self._deliver(
                            item["session"], item["client_task_id"], False,
                            ShardUnavailableError(
                                f"shard {index} died with no live shard to adopt its work",
                                shard=index,
                            ),
                        )
                    continue
                item["_enq_t"] = time.time()  # admission-wait clock restarts
                target.queue.put(item["tenant"], item)
                self._dispatch(target)
                rerouted += 1
        logger.warning(
            "gateway shard %d killed: %d task(s) re-routed to survivors",
            index, rerouted,
        )
        return rerouted

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _sweep_sessions(self, period: float) -> None:
        now = time.time()
        if now - self._last_sweep < period:
            return
        self._last_sweep = now
        with self._lock:
            expired = [
                s
                for s in self._sessions.values()
                if s.target is None
                and s.disconnected_at is not None
                and now - s.disconnected_at > self.session_ttl_s
            ]
            for session in expired:
                del self._sessions[session.session_id]
                if self._store is not None:
                    self._store.delete_session(session.session_id)
        for session in expired:
            logger.info(
                "gateway evicted session %s (tenant %s) after %.1fs disconnected",
                session.session_id, session.tenant, self.session_ttl_s,
            )

    # ------------------------------------------------------------------
    def _tenant_state(self, tenant: str) -> _TenantState:
        """Caller must hold the lock."""
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(tenant, self.pinned_weights.get(tenant, self.default_weight))
            state.m_admission_wait = self.metrics.histogram(
                "repro_gateway_admission_wait_seconds",
                "Time a task spent in the fair-share queue before dispatch",
                labels={"tenant": tenant},
            )
            state.m_e2e = self.metrics.histogram(
                "repro_gateway_e2e_latency_seconds",
                "Gateway admission to result delivery, per task",
                labels={"tenant": tenant},
            )
            self._tenants[tenant] = state
        return state

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant queued/running/completed/failed counts, aggregated
        across every shard (admin view; safe from any thread)."""
        with self._lock:
            return {name: state.counts() for name, state in self._tenants.items()}

    def render_metrics(self) -> str:
        """The whole fleet's live metrics, as one Prometheus text document.

        Merges the gateway's own registry (per-tenant admission-wait and
        end-to-end latency histograms, delivery counter, session gauge) with
        every shard kernel's registry (DFK submit/completion counters and
        queue depths, interchange dispatch/in-flight/fault counters, worker
        execution latency). Families sharing a name are merged and samples
        with identical labels are summed, so the document reports fleet
        totals; per-shard breakdowns live in :meth:`shard_stats`. Safe from
        any thread; with ``Config(metrics_enabled=False)`` everywhere the
        result is an empty document.
        """
        registries = [self.metrics]
        for shard in self.shards:
            reg = getattr(shard.dfk, "metrics", None)
            if reg is not None and reg not in registries:
                registries.append(reg)
        return render_prometheus(registries)

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard occupancy: alive flag, window, in-flight, queue depth,
        lifetime dispatch/completion counters, plus a ``faults`` row with the
        execution-layer fault counters aggregated across the shard's
        interchange-backed executors. Safe from any thread."""
        with self._lock:
            return [shard.stats() for shard in self.shards]

    def session_count(self) -> int:
        """Number of live (connected or within-TTL) sessions."""
        with self._lock:
            return len(self._sessions)

    def store_lag_ms(self) -> float:
        """Age (ms) of the oldest uncommitted session-store write (0 = none).

        The readiness signal for a wedged store writer: healthz reports
        ``degraded`` once this exceeds ``store_degraded_ms``.
        Always 0.0 without a durable store.
        """
        return self._store.lag_ms() if self._store is not None else 0.0

    def live_stragglers(self) -> List[Dict[str, Any]]:
        """Scan the in-flight population for stragglers (JSON-ready rows).

        Each flagged task carries its trace id, tenant, current hop, age,
        the hop's rolling p99, and the worker/manager it was dispatched to
        (stamped into the trace by the interchange). Safe from any thread.
        """
        with self._lock:
            live = [
                (item.get("trace"), {"tenant": item.get("tenant")})
                for item in self._tasks.values()
                if item.get("trace") is not None
            ]
        return self.anomaly.scan(live)

    def alerts_snapshot(self) -> Dict[str, Any]:
        """The full ops-plane document every alerts surface serves.

        Evaluates the SLO engine first (so one-shot pollers and tests see
        current burn state, not the service loop's last tick), then bundles
        active alerts, per-tenant windowed latency/objective state,
        auxiliary latency streams, the straggler list, and the per-worker
        sick-host report. Safe from any thread.
        """
        alerts = self.slo.active_alerts()
        stragglers = self.live_stragglers()
        return {
            "alerts": alerts,
            "slo": self.slo.tenant_snapshot(),
            "streams": self.slo.stream_snapshot(),
            "stragglers": stragglers,
            "workers": self.anomaly.worker_report(stragglers),
        }

    def ops_stats(self) -> Dict[str, Any]:
        """One-call operator overview (what ``GET /v1/stats`` serves):
        per-tenant admission counters, per-shard occupancy, session count,
        and the store writer lag. Safe from any thread."""
        return {
            "tenants": self.stats(),
            "shards": self.shard_stats(),
            "sessions": self.session_count(),
            "store_lag_ms": round(self.store_lag_ms(), 3),
        }
