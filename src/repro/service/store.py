"""Write-ahead SQLite persistence for gateway sessions.

The gateway's crash-survival contract is delivery-centric: **a result a
client has seen is durable, and a submit the gateway has accepted is
re-executed if its result was lost**. This module supplies the persistence
half of that contract as a single-file SQLite database in WAL mode:

* ``sessions`` — one row per live session (id, tenant, secret, last durable
  result sequence number). Loaded wholesale at gateway start so a restart
  *resumes* every session instead of answering resumes with auth errors.
* ``tasks`` — the write-ahead log of accepted submissions: the raw
  ``pack_apply_message`` buffer plus its resource spec. A row exists from
  the moment a submit is admitted until its result commits; whatever rows
  survive a crash are exactly the tasks that must run (again).
* ``results`` — the durable replay buffer: completed-result frames keyed by
  ``(session, seq)``, trimmed to the gateway's ``replay_limit`` as new
  results land. Recovery feeds these straight back through the same
  session-replay machinery the SSE ``Last-Event-ID`` path uses.

Threading model — **one writer thread**, group commit:

Every mutator enqueues an operation and returns immediately. The writer
thread drains the queue, applies the batch inside one transaction, commits
(one fsync for the whole batch — the ``flush_ms`` linger
bounds how long a batch may accumulate), and only then fires the
operations' ``on_durable`` callbacks, in enqueue order. The gateway hangs
client-visible acknowledgements (``accepted`` frames, result delivery) off
those callbacks, which is what makes the log *write-ahead*: nothing is
promised to a client before it is on disk.

``sqlite3`` serializes access per connection anyway; funnelling all writes
through one thread additionally gives deterministic op ordering (a delete
enqueued after an append always lands after it) and lets unrelated
sessions share one fsync.
"""

from __future__ import annotations

import logging
import os
import queue
import sqlite3
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id    TEXT PRIMARY KEY,
    tenant        TEXT NOT NULL,
    session_token TEXT NOT NULL,
    seq           INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS tasks (
    session_id     TEXT NOT NULL,
    client_task_id INTEGER NOT NULL,
    buffer         BLOB NOT NULL,
    spec           BLOB,
    PRIMARY KEY (session_id, client_task_id)
);
CREATE TABLE IF NOT EXISTS results (
    session_id     TEXT NOT NULL,
    seq            INTEGER NOT NULL,
    client_task_id INTEGER NOT NULL,
    success        INTEGER NOT NULL,
    buffer         BLOB NOT NULL,
    PRIMARY KEY (session_id, seq)
);
"""

#: One queued mutation: (sql statements as (stmt, params) pairs, callback).
_Op = Tuple[List[Tuple[str, Tuple[Any, ...]]], Optional[Callable[[], None]]]


class SessionRecord:
    """Everything :meth:`SessionStore.load` recovers for one session."""

    __slots__ = ("session_id", "tenant", "session_token", "seq", "results", "tasks")

    def __init__(self, session_id: str, tenant: str, session_token: str, seq: int):
        self.session_id = session_id
        self.tenant = tenant
        self.session_token = session_token
        #: Highest durably committed result sequence number.
        self.seq = seq
        #: ``(seq, client_task_id, success, buffer)`` rows, seq-ascending —
        #: the surviving replay buffer.
        self.results: List[Tuple[int, int, bool, bytes]] = []
        #: ``client_task_id -> (buffer, spec)`` — accepted submits whose
        #: results never committed; they must be re-executed.
        self.tasks: Dict[int, Tuple[bytes, Optional[bytes]]] = {}


class SessionStore:
    """Durable session/replay/task log under a gateway (see module docs).

    Thread-safe: every mutator may be called from any thread; work is
    enqueued to the single writer thread. Callbacks fire on the writer
    thread after the batch containing their op has committed — keep them
    short and non-blocking (the gateway enqueues frames, nothing more).
    """

    def __init__(self, path: str, flush_ms: float = 2.0):
        if flush_ms < 0:
            raise ConfigurationError("flush_ms must be >= 0")
        self.path = path
        self.flush_ms = flush_ms
        self._ops: "queue.Queue[Optional[_Op]]" = queue.Queue()
        #: Enqueue times (monotonic) of ops not yet committed, oldest first:
        #: appended by :meth:`_enqueue`, popped by the writer as it consumes
        #: ops. The head's age is the writer lag healthz reports — a wedged
        #: or fsync-bound writer shows up here before anything times out.
        self._pending_t: Deque[float] = deque()
        self._stop = threading.Event()
        self._abandoned = False
        self._thread: Optional[threading.Thread] = None
        self._started = False
        directory = os.path.dirname(os.path.abspath(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Create the schema (and run SQLite's WAL crash recovery, which
        # discards any torn tail left by a previous kill -9) before the
        # gateway calls load().
        with self._open() as conn:
            conn.executescript(_SCHEMA)
            conn.commit()

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        # NORMAL + WAL: fsync on checkpoint, not on every commit — the
        # group-commit batching above this already bounds loss to the last
        # unflushed batch, which is exactly the un-acknowledged window.
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SessionStore":
        """Launch the writer thread (idempotent)."""
        if self._started:
            return self
        self._started = True
        self._thread = threading.Thread(
            target=self._writer_loop, name="session-store", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Flush every queued op, then stop the writer."""
        if not self._started:
            return
        self._stop.set()
        self._ops.put(None)  # wake the writer
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._started = False

    def abandon(self) -> None:
        """Stop *without* flushing queued ops — the kill -9 test double.

        Whatever the writer already committed survives; everything still in
        the queue is lost, exactly like power loss between group commits.
        """
        self._abandoned = True
        self._stop.set()
        self._ops.put(None)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._started = False

    # ------------------------------------------------------------------
    # Mutators (any thread; applied by the writer in enqueue order)
    # ------------------------------------------------------------------
    def _enqueue(self, op: _Op) -> None:
        """Queue one op, stamping its enqueue time for lag accounting."""
        self._pending_t.append(time.monotonic())
        self._ops.put(op)

    def lag_ms(self) -> float:
        """Age (ms) of the oldest op not yet committed; 0.0 when caught up.

        The writer-health readiness signal: group commit keeps this near
        ``flush_ms`` under load, so sustained growth means the writer is
        wedged or the disk cannot keep up. Safe from any thread.
        """
        try:
            oldest = self._pending_t[0]
        except IndexError:
            return 0.0
        return max(0.0, (time.monotonic() - oldest) * 1000.0)

    def save_session(self, session_id: str, tenant: str, session_token: str,
                     on_durable: Optional[Callable[[], None]] = None) -> None:
        """Persist a (new or resumed) session's identity and secret."""
        self._enqueue(([
            ("INSERT OR REPLACE INTO sessions (session_id, tenant, session_token, seq) "
             "VALUES (?, ?, ?, COALESCE((SELECT seq FROM sessions WHERE session_id = ?), 0))",
             (session_id, tenant, session_token, session_id)),
        ], on_durable))

    def delete_session(self, session_id: str) -> None:
        """Forget a session and everything it owns (eviction/goodbye)."""
        self._enqueue(([
            ("DELETE FROM sessions WHERE session_id = ?", (session_id,)),
            ("DELETE FROM tasks WHERE session_id = ?", (session_id,)),
            ("DELETE FROM results WHERE session_id = ?", (session_id,)),
        ], None))

    def append_task(self, session_id: str, client_task_id: int, buffer: bytes,
                    spec: Optional[bytes],
                    on_durable: Optional[Callable[[], None]] = None) -> None:
        """Write-ahead one accepted submit; ack the client from the callback."""
        self._enqueue(([
            ("INSERT OR REPLACE INTO tasks (session_id, client_task_id, buffer, spec) "
             "VALUES (?, ?, ?, ?)", (session_id, client_task_id, buffer, spec)),
        ], on_durable))

    def append_result(self, session_id: str, seq: int, client_task_id: int,
                      success: bool, buffer: bytes, replay_limit: int,
                      on_durable: Optional[Callable[[], None]] = None) -> None:
        """Commit one result frame; deliver to the client from the callback.

        Atomically retires the task's write-ahead row (it no longer needs
        re-execution), advances the session's durable seq, and trims replay
        rows older than ``replay_limit`` — so the on-disk state is always a
        consistent snapshot of the in-memory session.
        """
        self._enqueue(([
            ("INSERT OR REPLACE INTO results (session_id, seq, client_task_id, success, buffer) "
             "VALUES (?, ?, ?, ?, ?)", (session_id, seq, client_task_id, int(success), buffer)),
            ("DELETE FROM tasks WHERE session_id = ? AND client_task_id = ?",
             (session_id, client_task_id)),
            ("UPDATE sessions SET seq = ? WHERE session_id = ?", (seq, session_id)),
            ("DELETE FROM results WHERE session_id = ? AND seq <= ?",
             (session_id, seq - replay_limit)),
        ], on_durable))

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until every op enqueued before this call has committed."""
        fence = threading.Event()
        self._enqueue(([], fence.set))
        return fence.wait(timeout)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, SessionRecord]:
        """Read every surviving session (call before :meth:`start`)."""
        with self._open() as conn:
            records: Dict[str, SessionRecord] = {}
            for sid, tenant, token, seq in conn.execute(
                "SELECT session_id, tenant, session_token, seq FROM sessions"
            ):
                records[sid] = SessionRecord(sid, tenant, token, int(seq))
            for sid, seq, cid, success, buffer in conn.execute(
                "SELECT session_id, seq, client_task_id, success, buffer "
                "FROM results ORDER BY session_id, seq"
            ):
                record = records.get(sid)
                if record is not None:
                    record.results.append((int(seq), int(cid), bool(success), buffer))
            for sid, cid, buffer, spec in conn.execute(
                "SELECT session_id, client_task_id, buffer, spec FROM tasks"
            ):
                record = records.get(sid)
                if record is not None:
                    record.tasks[int(cid)] = (buffer, spec)
            return records

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        conn = self._open()
        try:
            while True:
                # No timeout: close() and abandon() enqueue None to wake us.
                first = self._ops.get()
                if self._abandoned:
                    return  # queued work dies with us (kill -9 semantics)
                batch: List[_Op] = []
                if first is not None:
                    batch.append(first)
                # Group commit: linger briefly so concurrent mutators share
                # one transaction/fsync, then drain whatever else arrived.
                deadline = (self.flush_ms / 1000.0) if not self._stop.is_set() else 0.0
                while len(batch) < 512:
                    try:
                        nxt = self._ops.get(timeout=deadline)
                    except queue.Empty:
                        break
                    deadline = 0.0
                    if nxt is None:
                        continue
                    if self._abandoned:
                        return
                    batch.append(nxt)
                if batch:
                    self._commit(conn, batch)
                if self._stop.is_set() and self._ops.empty():
                    return
        finally:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def _consume_pending(self, n: int) -> None:
        """Advance the lag clock for ``n`` consumed ops (commit or drop)."""
        for _ in range(n):
            try:
                self._pending_t.popleft()
            except IndexError:
                break

    def _commit(self, conn: sqlite3.Connection, batch: List[_Op]) -> None:
        try:
            for statements, _cb in batch:
                for stmt, params in statements:
                    conn.execute(stmt, params)
            conn.commit()
        except sqlite3.Error:
            logger.exception("session store commit failed (%d ops dropped)", len(batch))
            try:
                conn.rollback()
            except sqlite3.Error:
                pass
            self._consume_pending(len(batch))
            return
        # Retire the batch's lag entries before the durable callbacks run,
        # so anyone woken by flush() observes lag_ms() already caught up.
        self._consume_pending(len(batch))
        for _statements, callback in batch:
            if callback is not None:
                try:
                    callback()
                except Exception:  # noqa: BLE001 - one bad callback must not stop the drain
                    logger.exception("session store durable callback failed")
