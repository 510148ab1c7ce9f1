"""HTEX manager (pilot agent).

One manager runs per node of a block (§4.3.1). It is a multi-threaded agent
that:

* registers with the interchange, announcing its worker count and prefetch
  capacity,
* receives batches of tasks and feeds them to a pool of worker processes (or
  threads, for lightweight deployments),
* aggregates results and returns them to the interchange in batches: a
  result-pusher thread blocks on the local result queue and sends whatever
  has accumulated as one ``results`` frame,
* exchanges heartbeats with the interchange and **exits immediately** if the
  interchange goes silent, to avoid wasting allocation time — the behaviour
  described in the paper,
* supervises its workers: each worker publishes the task it is executing in
  a shared claims array, and a supervisor thread polls worker liveness. A
  worker that dies mid-task (segfault, OOM kill, ``os._exit`` in user code)
  gets a :class:`~repro.errors.WorkerLost` result synthesized for its
  claimed task — the interchange releases the cores it held — and is
  respawned, up to ``worker_respawn_limit`` respawns per manager. Past the
  budget the manager exits cleanly so the interchange's ``ManagerLost``
  path requeues whatever it still held.

The manager keeps no count of its own capacity. The interchange's ledger
alone decides how many tasks a manager holds (workers + prefetch, in
core-slots); the manager only remembers which task ids are still unsettled,
so that the first settle of a task wins. Every service loop ends through
:meth:`Manager._stop`, which sets the stop event and queues a ``None``
sentinel behind the results already queued, so those still go out.

Tasks travel to process workers over **per-worker duplex pipes**, not a
shared ``multiprocessing.Queue``: the shared queue's cross-process read
lock is held by whichever idle worker is currently inside
``get(timeout=...)``, so a SIGKILL landing on that worker would wedge the
entire pool (and all future respawns) behind a lock nobody will ever
release — a frozen pool that still heartbeats. With private pipes the
manager routes each task to the least-loaded live worker, a per-slot
reader thread funnels results into a manager-local (single-process, and
therefore unpoisonable) queue, and when a worker dies the supervisor
drains whatever the victim managed to send, synthesizes the loss for its
claimed task, and re-routes the tasks it never started.

The manager can be embedded (``Manager(...).start()`` from Python, used by
tests and by the thread-mode executor) or run as a process via
``python -m repro.executors.htex.process_worker_pool``.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_module
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Set

from repro.comms.client import MessageClient
from repro.executors.htex import messages as msg
from repro.executors.htex.worker import (
    NO_CLAIM,
    STOP,
    ThreadChannel,
    worker_loop,
    worker_process_main,
)
from repro.utils.ids import make_manager_id

logger = logging.getLogger(__name__)


class Manager:
    """A pilot agent managing the workers of one node."""

    def __init__(
        self,
        interchange_host: str,
        interchange_port: int,
        worker_count: int = 2,
        prefetch_capacity: int = 0,
        block_id: Optional[str] = None,
        heartbeat_period: float = 1.0,
        heartbeat_threshold: float = 10.0,
        worker_mode: str = "process",
        sandbox_root: Optional[str] = None,
        worker_respawn_limit: int = 8,
        supervision_period: float = 0.1,
    ):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if worker_mode not in ("process", "thread"):
            raise ValueError("worker_mode must be 'process' or 'thread'")
        if worker_respawn_limit < 0:
            raise ValueError("worker_respawn_limit must be >= 0")
        self.interchange_host = interchange_host
        self.interchange_port = interchange_port
        self.worker_count = worker_count
        self.prefetch_capacity = prefetch_capacity
        self.block_id = block_id
        self.heartbeat_period = heartbeat_period
        self.heartbeat_threshold = heartbeat_threshold
        self.worker_mode = worker_mode
        self.sandbox_root = sandbox_root
        self.manager_id = make_manager_id()
        self.worker_respawn_limit = worker_respawn_limit
        self.supervision_period = supervision_period

        self._client: Optional[MessageClient] = None
        self._workers: List[Any] = []
        if worker_mode == "process":
            ctx = multiprocessing.get_context("fork")
            self._ctx = ctx
            # One slot per worker in shared memory: the task id the worker is
            # executing, NO_CLAIM when idle. Survives the worker's death (the
            # whole point), unlike anything in flight on the worker's pipe.
            self._claims: Any = ctx.Array("q", [NO_CLAIM] * worker_count, lock=False)
        else:
            self._ctx = None
            self._claims = [NO_CLAIM] * worker_count
        # Results funnel into a manager-local queue — plain queue.Queue, no
        # cross-process locks a dying worker could poison. Process workers
        # reach it via per-slot reader threads; thread workers deliver
        # directly.
        self._result_queue: Any = queue_module.Queue()
        #: Per-slot manager-side channel to the worker: a duplex Connection
        #: (process mode) or a ThreadChannel (thread mode).
        self._channels: List[Any] = [None] * worker_count
        #: Per-slot send lock: the task router, the supervisor's re-route and
        #: shutdown's STOP pills may write the same pipe concurrently, and
        #: Connection.send is not atomic across writers.
        self._channel_locks: List[threading.Lock] = [
            threading.Lock() for _ in range(worker_count)
        ]
        #: Per-slot (reader thread, stop event); None for thread workers.
        self._readers: List[Any] = [None] * worker_count
        #: Per-slot task_id -> item for tasks routed to that worker and not
        #: yet settled; guarded by ``_tasks_lock``. On worker death this
        #: is exactly the set to recover: the claimed entry becomes a
        #: synthesized loss, the rest never started and are re-routed.
        self._assigned: List[Dict[int, Dict[str, Any]]] = [
            {} for _ in range(worker_count)
        ]
        self._stop_event = threading.Event()
        self._threads: Dict[str, threading.Thread] = {}
        self._last_interchange_contact = time.time()
        #: Ids of tasks received and not yet settled. The first result or
        #: synthesized loss for an id removes it; a later one is dropped.
        self._unsettled: Set[int] = set()
        self._tasks_lock = threading.Lock()
        self.tasks_received = 0
        self.results_sent = 0
        #: Workers that died unexpectedly / were respawned by the supervisor.
        self.workers_lost = 0
        self.workers_respawned = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Connect to the interchange, start workers and service threads."""
        registration = msg.manager_registration_info(
            block_id=self.block_id,
            hostname=socket.gethostname(),
            worker_count=self.worker_count,
            prefetch_capacity=self.prefetch_capacity,
        )
        self._client = MessageClient(
            self.interchange_host,
            self.interchange_port,
            identity=self.manager_id,
            registration_info=registration,
        )
        self._start_workers()
        for name, target in [
            ("task-puller", self._task_pull_loop),
            ("result-pusher", self._result_push_loop),
            ("heartbeat", self._heartbeat_loop),
            ("supervisor", self._supervise_loop),
        ]:
            t = threading.Thread(target=target, name=f"{self.manager_id}-{name}", daemon=True)
            t.start()
            self._threads[name] = t

    def _start_workers(self) -> None:
        for worker_id in range(self.worker_count):
            self._workers.append(self._spawn_worker(worker_id))

    def _spawn_worker(self, worker_id: int) -> Any:
        """Start (or restart) the worker for one slot and return its handle."""
        self._claims[worker_id] = NO_CLAIM
        if self.worker_mode == "process":
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=worker_process_main,
                args=(worker_id, child_conn, self.sandbox_root, self._claims),
                name=f"{self.manager_id}-worker-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()  # the worker holds its own copy now
            self._channels[worker_id] = parent_conn
            stop_evt = threading.Event()
            reader = threading.Thread(
                target=self._reader_loop,
                args=(worker_id, parent_conn, stop_evt),
                name=f"{self.manager_id}-reader-{worker_id}",
                daemon=True,
            )
            reader.start()
            self._readers[worker_id] = (reader, stop_evt)
            return proc
        channel = ThreadChannel(
            lambda item, wid=worker_id: self._deliver_result(wid, item)
        )
        self._channels[worker_id] = channel
        t = threading.Thread(
            target=worker_loop,
            args=(worker_id, channel, self.sandbox_root, self._claims),
            name=f"{self.manager_id}-worker-{worker_id}",
            daemon=True,
        )
        t.start()
        return t

    # ------------------------------------------------------------------
    # Per-worker channel plumbing
    # ------------------------------------------------------------------
    def _deliver_result(self, worker_id: int, item: Dict[str, Any]) -> None:
        """Move one worker result into the local result queue.

        Pops the task from the slot's assigned set first, so that when the
        supervisor later sweeps a dead worker's slot, whatever is left there
        is exactly the work that never produced a result.
        """
        with self._tasks_lock:
            self._assigned[worker_id].pop(item.get("task_id"), None)
        self._result_queue.put(item)

    def _reader_loop(self, worker_id: int, conn: Any, stop_evt: threading.Event) -> None:
        """Funnel one process worker's pipe into the local result queue."""
        while not (stop_evt.is_set() or self._stop_event.is_set()):
            try:
                if conn.poll(0.1):
                    item = conn.recv()
                    if item is not None:
                        self._deliver_result(worker_id, item)
            except (EOFError, OSError):
                return

    def _send_to_worker(self, worker_id: int, payload: Any) -> None:
        with self._channel_locks[worker_id]:
            self._channels[worker_id].send(payload)

    def _route_item(self, item: Dict[str, Any]) -> None:
        """Send one task to the least-loaded live worker.

        Blocks (politely) while every slot is mid-respawn; if the manager
        stops before a live worker appears, the item stays unsettled and the
        interchange's ManagerLost path requeues it.
        """
        task_id = item["task_id"]
        while not self._stop_event.is_set():
            with self._tasks_lock:
                live = [
                    wid
                    for wid in range(self.worker_count)
                    if not self._worker_is_dead(self._workers[wid])
                ]
                if live:
                    target = min(live, key=lambda wid: len(self._assigned[wid]))
                    self._assigned[target][task_id] = item
                else:
                    target = None
            if target is None:
                time.sleep(0.02)
                continue
            try:
                self._send_to_worker(target, item)
                return
            except (OSError, ValueError, BrokenPipeError):
                # The worker died between the liveness check and the send;
                # un-assign and pick again (the supervisor will respawn it).
                with self._tasks_lock:
                    self._assigned[target].pop(task_id, None)
                time.sleep(0.01)

    # ------------------------------------------------------------------
    # Service loops
    # ------------------------------------------------------------------
    def _task_pull_loop(self) -> None:
        assert self._client is not None
        while not self._stop_event.is_set():
            message = self._client.recv(timeout=0.1)
            if message is None:
                continue
            mtype = message.get("type")
            if mtype == "tasks":
                items = message.get("items", [])
                self.tasks_received += len(items)
                with self._tasks_lock:
                    self._unsettled.update(item["task_id"] for item in items)
                for item in items:
                    self._route_item(item)
                self._last_interchange_contact = time.time()
            elif mtype == "heartbeat_reply":
                self._last_interchange_contact = time.time()
            elif mtype == "drain":
                logger.info("manager %s draining (block scale-in)", self.manager_id)
                self._last_interchange_contact = time.time()
                self._client.send(msg.drain_ack_message())
            elif mtype == "shutdown":
                logger.info("manager %s received shutdown", self.manager_id)
                self._stop()
            elif mtype == "connection_lost":
                if not self._stop_event.is_set():
                    logger.warning("manager %s lost its interchange connection; exiting", self.manager_id)
                self._stop()

    def _result_push_loop(self) -> None:
        """Return results to the interchange, one ``results`` frame per wake-up.

        Blocks for the next item, then takes everything else already queued
        and sends it as one frame: bursts travel as dense batches while a
        lone result is never delayed by a flush timer. A batch needs no size
        cap, since only the tasks the interchange placed here (at most
        workers + prefetch) produce items.

        Items are either genuine results (``buffer``) or supervisor-synthesized
        losses (``worker_lost``); either way the first settle of a task id wins
        — later items for an already-settled task are dropped, which is what
        makes the claim-clearing race in the worker benign. A ``None`` is the
        sentinel :meth:`_stop` queues: the loop sends what it took alongside
        it, then exits.
        """
        assert self._client is not None
        while True:
            raw: List[Optional[Dict[str, Any]]] = [self._result_queue.get()]
            while True:
                try:
                    raw.append(self._result_queue.get_nowait())
                except queue_module.Empty:
                    break
            batch: List[Dict[str, Any]] = []
            with self._tasks_lock:
                for result in raw:
                    if result is None or result["task_id"] not in self._unsettled:
                        continue  # the sentinel, or already settled (a result raced a synthesized loss)
                    self._unsettled.remove(result["task_id"])
                    entry: Dict[str, Any] = {"task_id": result["task_id"]}
                    if "buffer" in result:
                        entry["buffer"] = result["buffer"]
                        # Worker-side execution endpoints plus the moment this
                        # manager shipped the result: the interchange merges
                        # them into the task's trace span events and the
                        # execution-latency histogram.
                        for key in ("exec_start", "exec_end"):
                            if key in result:
                                entry[key] = result[key]
                        entry["sent_at"] = time.time()
                    else:
                        entry["worker_lost"] = result["worker_lost"]
                    batch.append(entry)
            if batch:
                self.results_sent += len(batch)
                self._client.send(msg.results_message(batch))
            if None in raw:
                return

    # ------------------------------------------------------------------
    # Worker supervision
    # ------------------------------------------------------------------
    def _worker_is_dead(self, worker: Any) -> bool:
        if hasattr(worker, "exitcode"):
            return worker.exitcode is not None
        return not worker.is_alive()

    def _supervise_loop(self) -> None:
        """Contain worker crashes: synthesize losses, release cores, respawn.

        Polls every worker slot each ``supervision_period``. A worker that
        died without a shutdown being requested has its claimed task (read
        from the shared claims array) settled with a synthesized
        ``worker_lost`` item pushed through the normal result path — so the
        interchange learns about the kill and releases the task's cores — and
        the slot is respawned, until ``worker_respawn_limit`` respawns have
        been spent. Past the budget the manager stops cleanly: the loss is
        already queued ahead of :meth:`_stop`'s sentinel, so it reaches the
        interchange (else a poison task would reset its kill tally on every
        manager it chews through), and the interchange's ManagerLost
        machinery requeues everything else the manager held — strictly
        better than a zombie manager heartbeating over a shrinking
        (eventually empty) worker pool.
        """
        hostname = socket.gethostname()
        respawns_left = self.worker_respawn_limit
        while not self._stop_event.is_set():
            self._stop_event.wait(self.supervision_period)
            if self._stop_event.is_set():
                return
            for worker_id, worker in enumerate(self._workers):
                if not self._worker_is_dead(worker):
                    continue
                if self._stop_event.is_set():
                    return  # shutdown raced the poll: STOP-pill exits are not crashes
                self.workers_lost += 1
                exitcode = getattr(worker, "exitcode", None)
                claimed = self._claims[worker_id]
                logger.warning(
                    "manager %s: worker %d died (exitcode %s) holding task %s",
                    self.manager_id, worker_id, exitcode,
                    claimed if claimed != NO_CLAIM else "none",
                )
                # Salvage first: results the victim sent before dying are
                # still readable from its pipe, and delivering them pops the
                # slot's assigned set — so the loss/re-route sweep below sees
                # only work that genuinely never finished. FIFO through the
                # local result queue then guarantees a salvaged genuine
                # result settles before the synthesized loss reaches dedup.
                self._retire_channel(worker_id)
                if claimed != NO_CLAIM:
                    self._claims[worker_id] = NO_CLAIM
                    self._result_queue.put(
                        msg.worker_lost_item(int(claimed), worker_id, hostname, exitcode)
                    )
                if respawns_left > 0:
                    respawns_left -= 1
                    self.workers_respawned += 1
                    self._workers[worker_id] = self._spawn_worker(worker_id)
                    self._reroute_orphans(worker_id, int(claimed))
                else:
                    logger.error(
                        "manager %s: worker respawn budget (%d) exhausted; exiting so "
                        "the interchange takes over",
                        self.manager_id, self.worker_respawn_limit,
                    )
                    self._stop()
                    return

    def _retire_channel(self, worker_id: int) -> None:
        """Stop a dead worker's reader and salvage what its pipe still holds.

        A SIGKILLed worker may have sent results the reader had not pulled
        yet; pipe contents survive the writer's death, so drain them before
        closing. Thread workers have no reader (they cannot die by signal),
        so this is a no-op for them.
        """
        entry = self._readers[worker_id]
        if entry is None:
            return
        reader, stop_evt = entry
        stop_evt.set()
        reader.join(timeout=1.0)
        conn = self._channels[worker_id]
        try:
            while conn.poll(0):
                item = conn.recv()
                if item is not None:
                    self._deliver_result(worker_id, item)
        except (EOFError, OSError):
            pass
        try:
            conn.close()
        except OSError:
            pass
        self._readers[worker_id] = None

    def _reroute_orphans(self, worker_id: int, claimed: int) -> None:
        """Re-route tasks the dead worker never started to live workers.

        After the salvage in :meth:`_retire_channel`, the slot's assigned set
        holds only unsettled work: the claimed task (mid-execution when the
        worker died — it becomes a synthesized loss, charged as a kill) and
        tasks still sitting unread in the dead pipe. The latter never
        started, so they move to another worker silently: no kill is charged
        and the interchange never knows.
        """
        with self._tasks_lock:
            orphans = [
                item
                for task_id, item in self._assigned[worker_id].items()
                if task_id != claimed and task_id in self._unsettled
            ]
            self._assigned[worker_id] = {}
        for item in orphans:
            self._route_item(item)

    def _heartbeat_loop(self) -> None:
        assert self._client is not None
        while not self._stop_event.is_set():
            self._client.send(msg.heartbeat_message())
            if time.time() - self._last_interchange_contact > self.heartbeat_threshold:
                logger.warning(
                    "manager %s: no interchange contact for %.1fs; exiting to avoid waste",
                    self.manager_id,
                    self.heartbeat_threshold,
                )
                self._stop()
                break
            self._stop_event.wait(self.heartbeat_period)

    # ------------------------------------------------------------------
    def _stop(self) -> None:
        """End every service loop; results already queued are still sent."""
        self._stop_event.set()
        self._result_queue.put(None)

    def wait(self) -> None:
        """Block until the manager shuts down (used by the CLI entry point)."""
        self._stop_event.wait()
        self.shutdown()

    def shutdown(self) -> None:
        self._stop()
        for worker_id in range(len(self._workers)):
            try:
                self._send_to_worker(worker_id, STOP)
            except (OSError, ValueError, BrokenPipeError, AttributeError):
                continue  # already-dead worker / retired channel: nothing to stop
        for worker in self._workers:
            if hasattr(worker, "terminate"):
                worker.join(timeout=1)
                if worker.is_alive():
                    worker.terminate()
            else:
                worker.join(timeout=1)
        for worker_id, entry in enumerate(self._readers):
            if entry is None:
                continue
            reader, stop_evt = entry
            stop_evt.set()
            reader.join(timeout=1)
            try:
                self._channels[worker_id].close()
            except (OSError, AttributeError):
                pass
        pusher = self._threads.get("result-pusher")
        if pusher is not None:
            pusher.join(timeout=2)
        if self._client is not None:
            self._client.close()

    # ------------------------------------------------------------------
    def run_forever(self) -> None:
        """Start and block; the CLI wrapper calls this."""
        self.start()
        try:
            self.wait()
        except KeyboardInterrupt:
            self.shutdown()
