"""HTEX manager (pilot agent).

One manager runs per node of a block (§4.3.1). It registers with the
interchange, announcing its worker count and prefetch capacity, passes the
tasks it receives to a pool of worker processes (or threads, for lightweight
deployments) and returns their results. Besides the comms client's reader it
runs three threads, whatever its worker count:

* ``<id>-tasks`` blocks in ``recv()`` on the interchange connection and
  sends each task to the least-loaded live worker. It is the only thread
  that blocks on a worker pipe, so a large task sent to a busy worker stalls
  only this thread.
* ``<id>-workers`` blocks, with no timeout, on every process worker's pipe
  and pidfd and on a wake connection that :meth:`Manager._stop` and thread
  workers write to. On each wake-up it reads every readable pipe until empty,
  takes the thread workers' results, and sends whatever settled as one
  ``results`` frame, so bursts travel as dense batches while a lone result
  is never delayed.
* ``<id>-heartbeat`` exchanges heartbeats with the interchange on a timer of
  its own, so a pipe write can never delay one, and **exits immediately** if
  the interchange goes silent, to avoid wasting allocation time — the
  behaviour described in the paper. Silence is judged by the comms client's
  reader, which stamps every frame it reads, so a tasks thread blocked on a
  full pipe cannot make a live interchange look lost.

Each worker publishes the task it is executing in a shared claims array. A
process worker that dies mid-task (segfault, OOM kill, ``os._exit`` in user
code) makes its pidfd readable, whatever descendants it leaves holding its
pipe: the worker loop salvages the results still in its pipe, synthesizes a
:class:`~repro.errors.WorkerLost` result for its claimed task — the
interchange releases the cores it held — respawns the slot and hands the
dead worker's never-started tasks to the replacement, up to
``worker_respawn_limit`` respawns per manager. Past the budget the manager
sends the loss and stops, so the interchange's ``ManagerLost`` path requeues
whatever it still held.

The manager keeps no count of its own capacity. The interchange's ledger
alone decides how many tasks a manager holds (workers + prefetch, in
core-slots); the manager only remembers which task ids are still unsettled,
so that the first settle of a task wins. Every service loop ends through
:meth:`Manager._stop`; results read before it are still sent.

Tasks travel to workers over **per-worker duplex pipes**, not a shared
``multiprocessing.Queue``: the shared queue's cross-process read lock is held
by whichever idle worker is waiting in ``get()``, so a SIGKILL landing on
that worker would wedge the entire pool (and all future respawns) behind a
lock nobody will ever release — a frozen pool that still heartbeats. A
private pipe can only be severed for its own worker. Thread workers, which
cannot be killed alone, take tasks from an in-process queue and hand results
to the worker loop directly: a pipe would cost them two writes per task, each
handing the interpreter lock to another thread.

The manager can be embedded (``Manager(...).start()`` from Python, used by
tests and by the thread-mode executor) or run as a process via
``python -m repro.executors.htex.process_worker_pool``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import selectors
import socket
import threading
import time
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.comms.client import MessageClient
from repro.executors.htex import messages as msg
from repro.executors.htex.worker import NO_CLAIM, STOP, worker_loop, worker_process_main
from repro.utils.ids import make_manager_id

logger = logging.getLogger(__name__)

#: The fields of a task item a worker reads; the interchange's bookkeeping
#: (``trace``, ``_vtime``, ``priority``, ...) stays on this side of the pipe.
_WORKER_FIELDS = ("task_id", "buffer", "walltime_s")


def _sever(conn: Any) -> None:
    """Shut down a worker pipe (a socketpair) without closing its descriptor.

    Reads of what is already buffered still succeed, then end in EOF; a send
    blocked on the full pipe fails at once. Both would otherwise wait for good
    on a dead worker whose descendants still hold its end.
    """
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        sock.shutdown(socket.SHUT_RDWR)


class _Inbox(queue.SimpleQueue):
    """A thread worker's task queue, sent to and closed like a worker pipe."""

    send = queue.SimpleQueue.put

    def close(self) -> None:
        pass


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

        self._client: Optional[MessageClient] = None
        self._ctx = multiprocessing.get_context("fork")
        if worker_mode == "process":
            # One slot per worker in shared memory: the task id the worker is
            # executing, NO_CLAIM when idle. Survives the worker's death (the
            # whole point), unlike anything in flight on the worker's pipe.
            self._claims: Any = self._ctx.Array("q", [NO_CLAIM] * worker_count, lock=False)
        else:
            self._claims = [NO_CLAIM] * worker_count
        #: Per-slot worker handle (Process or Thread) and task channel: the
        #: manager's end of a process worker's duplex pipe, or a thread
        #: worker's in-process queue. The worker loop alone replaces them,
        #: on respawn.
        self._workers: List[Any] = [None] * worker_count
        self._conns: List[Any] = [None] * worker_count
        #: Per-slot send lock: a pipe write is not atomic across writers, and
        #: the worker loop must not close a pipe another thread is writing.
        self._send_locks = [threading.Lock() for _ in range(worker_count)]
        #: Guards the three fields below; notified when a slot becomes
        #: routable again or the manager stops.
        self._tasks_lock = threading.Condition()
        #: Slots the tasks loop may send to: live, and not mid-respawn.
        self._routable: Set[int] = set()
        #: Per-slot task_id -> worker payload for tasks sent to that worker
        #: and not yet settled. On worker death this is exactly the set to
        #: recover: the claimed entry becomes a synthesized loss, the rest
        #: never started and go to the replacement.
        self._assigned: List[Dict[int, Dict[str, Any]]] = [{} for _ in range(worker_count)]
        #: Ids of tasks received and not yet settled. The first result or
        #: synthesized loss for an id removes it; a later one is dropped.
        self._unsettled: Set[int] = set()
        #: Written by _stop(), and by thread workers that find the worker
        #: loop idle, to wake the worker loop.
        self._wake_recv, self._wake_send = socket.socketpair()
        #: Thread workers' results, taken by the worker loop; guarded by
        #: _delivered_lock together with _loop_idle (the loop is blocked, or
        #: about to block, with nothing delivered: the next result wakes it).
        self._delivered: List[Tuple[int, Dict[str, Any]]] = []
        self._delivered_lock = threading.Lock()
        self._loop_idle = False
        self._stop_event = threading.Event()
        self._threads: Dict[str, threading.Thread] = {}
        self.tasks_received = 0
        self.results_sent = 0
        #: Workers that died unexpectedly / were respawned by the worker loop.
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
        for worker_id in range(self.worker_count):
            self._workers[worker_id], self._conns[worker_id] = self._spawn_worker(worker_id)
            self._routable.add(worker_id)
        for name, target in [
            ("tasks", self._task_loop),
            ("workers", self._worker_loop),
            ("heartbeat", self._heartbeat_loop),
        ]:
            t = threading.Thread(target=target, name=f"{self.manager_id}-{name}", daemon=True)
            t.start()
            self._threads[name] = t

    def _spawn_worker(self, worker_id: int) -> Tuple[Any, Any]:
        """Start (or restart) one slot's worker; returns it and its task channel.

        A process worker's channel is the manager's end of its pipe; a thread
        worker's is an in-process queue, and its results go straight into
        the worker loop's list (see :meth:`_deliver`).
        """
        self._claims[worker_id] = NO_CLAIM
        name = f"{self.manager_id}-worker-{worker_id}"
        if self.worker_mode == "thread":
            inbox = _Inbox()
            worker: Any = threading.Thread(
                target=worker_loop,
                args=(worker_id, inbox.get, partial(self._deliver, worker_id), self.sandbox_root, self._claims),
                name=name,
                daemon=True,
            )
            worker.start()
            return worker, inbox
        conn, child_conn = self._ctx.Pipe(duplex=True)
        worker = self._ctx.Process(
            target=worker_process_main,
            args=(worker_id, child_conn, self.sandbox_root, self._claims),
            name=name,
            daemon=True,
        )
        worker.start()
        child_conn.close()  # the worker holds its own copy now
        return worker, conn

    def _send(self, worker_id: int, conn: Any, payload: Any) -> None:
        with self._send_locks[worker_id]:
            conn.send(payload)

    def _deliver(self, worker_id: int, result: Dict[str, Any]) -> None:
        """Hand a thread worker's result to the worker loop.

        Only a result that finds the loop idle writes to the wake
        connection; the rest join the list the loop takes on its way round.
        """
        with self._delivered_lock:
            self._delivered.append((worker_id, result))
            wake, self._loop_idle = self._loop_idle, False
        if wake:
            self._wake_send.send(b"\0")

    # ------------------------------------------------------------------
    # Tasks: interchange -> workers
    # ------------------------------------------------------------------
    def _task_loop(self) -> None:
        assert self._client is not None
        while not self._stop_event.is_set():
            message = self._client.recv()
            mtype = message.get("type")
            if mtype == "connection_lost":
                if not self._stop_event.is_set():
                    logger.warning("manager %s lost its interchange connection; exiting", self.manager_id)
                self._stop()
                return
            if mtype == "tasks":
                items = message.get("items", [])
                self.tasks_received += len(items)
                with self._tasks_lock:
                    self._unsettled.update(item["task_id"] for item in items)
                for item in items:
                    self._route({key: item[key] for key in _WORKER_FIELDS if key in item})
            elif mtype == "drain":
                logger.info("manager %s draining (block scale-in)", self.manager_id)
                self._client.send(msg.drain_ack_message())
            elif mtype == "shutdown":
                logger.info("manager %s received shutdown", self.manager_id)
                self._stop()

    def _route(self, payload: Dict[str, Any]) -> None:
        """Send one task to the least-loaded routable worker.

        Waits while every slot is mid-respawn; if the manager stops first,
        the task stays unsettled and the interchange's ManagerLost path
        requeues it.
        """
        task_id = payload["task_id"]
        while True:
            with self._tasks_lock:
                self._tasks_lock.wait_for(lambda: self._routable or self._stop_event.is_set())
                if self._stop_event.is_set():
                    return
                target = min(self._routable, key=lambda wid: len(self._assigned[wid]))
                conn = self._conns[target]
                self._assigned[target][task_id] = payload
            try:
                self._send(target, conn, payload)
                return
            except OSError:
                with self._tasks_lock:
                    if self._conns[target] is not conn or task_id not in self._assigned[target]:
                        return  # the worker loop already took it over as an orphan
                    # The worker died before the worker loop saw it exit:
                    # take the task back and wait for a live slot.
                    del self._assigned[target][task_id]
                    self._routable.discard(target)

    # ------------------------------------------------------------------
    # Workers: results, deaths and respawns
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        """Return results and contain worker crashes, one wake-up at a time.

        Results come first: every readable pipe is read until empty and the
        thread workers' results are taken from their list. Then each process
        worker whose pidfd fired is retired: results it sent before dying
        were salvaged with the rest and settle ahead of the synthesized
        ``worker_lost`` item for its claimed task. Everything settled goes
        out as one ``results`` frame, and only then are dead slots respawned
        — or, once ``worker_respawn_limit`` respawns have been spent, the
        manager stops, its loss already sent (else a poison task would reset
        its kill tally on every manager it chews through).
        """
        hostname = socket.gethostname()
        respawns_left = self.worker_respawn_limit
        selector = selectors.DefaultSelector()
        selector.register(self._wake_recv, selectors.EVENT_READ)
        for worker_id in range(self.worker_count):
            self._watch(selector, worker_id)
        try:
            while True:
                dead: List[int] = []
                with self._delivered_lock:
                    received, self._delivered = self._delivered, []
                    self._loop_idle = not received
                ready = selector.select(None if self._loop_idle else 0)
                while ready:
                    # Deaths before reads: a descendant of the dead worker
                    # may still hold its end of the pipe, so sever the pipe
                    # first. Whole results already in it are still read; a
                    # result cut off mid-write reads as end-of-file instead
                    # of waiting for bytes that never come.
                    for key, _events in ready:
                        if key.data is None:
                            # The wake connection: a stop (the stop event says
                            # so) or thread workers' results.
                            self._wake_recv.recv(4096)
                            with self._delivered_lock:
                                received += self._delivered
                                self._delivered = []
                            continue
                        if key.data[1]:
                            continue  # a pipe: read below
                        worker_id = key.data[0]
                        selector.unregister(key.fd)
                        os.close(key.fd)
                        dead.append(worker_id)
                        with self._tasks_lock:
                            self._routable.discard(worker_id)
                        _sever(self._conns[worker_id])
                    for key, _events in ready:
                        if key.data is None or not key.data[1]:
                            continue
                        try:
                            received.append((key.data[0], key.fileobj.recv()))
                        except (EOFError, OSError):
                            selector.unregister(key.fileobj)  # a dying worker: its exit follows
                    ready = selector.select(0)
                stopping = self._stop_event.is_set()
                for worker_id in [] if stopping else dead:  # STOP-pill exits are not crashes
                    worker = self._workers[worker_id]
                    worker.join()  # already exited: reaps it and sets its exitcode
                    claimed = int(self._claims[worker_id])
                    self.workers_lost += 1
                    logger.warning(
                        "manager %s: worker %d died (exitcode %s) holding task %s",
                        self.manager_id, worker_id, worker.exitcode,
                        claimed if claimed != NO_CLAIM else "none",
                    )
                    if claimed != NO_CLAIM:
                        received.append(
                            (worker_id, msg.worker_lost_item(claimed, worker_id, hostname, worker.exitcode))
                        )
                self._send_results(received)
                if stopping:
                    return
                for worker_id in dead:
                    if respawns_left == 0:
                        logger.error(
                            "manager %s: worker respawn budget (%d) exhausted; exiting so "
                            "the interchange takes over",
                            self.manager_id, self.worker_respawn_limit,
                        )
                        self._stop()
                        return
                    respawns_left -= 1
                    if self._conns[worker_id] in selector.get_map():
                        selector.unregister(self._conns[worker_id])
                    self._respawn(worker_id)
                    self._watch(selector, worker_id)
        finally:
            for key in list(selector.get_map().values()):
                if key.data is not None and not key.data[1]:
                    os.close(key.fd)
            selector.close()

    def _watch(self, selector: selectors.BaseSelector, worker_id: int) -> None:
        """Wake the worker loop on a process worker's results and on its exit.

        The exit is watched through a pidfd, which becomes readable when the
        process ends whoever holds its file descriptors: a worker's
        ``Process.sentinel`` stays silent while any descendant it forked
        without exec lives on.
        """
        if self.worker_mode == "process":
            selector.register(self._conns[worker_id], selectors.EVENT_READ, (worker_id, True))
            worker = self._workers[worker_id]
            try:
                exit_fd = os.pidfd_open(worker.pid)
            except ProcessLookupError:  # already reaped by another Process.start()
                exit_fd = os.dup(worker.sentinel)
            selector.register(exit_fd, selectors.EVENT_READ, (worker_id, False))

    def _send_results(self, received: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Settle what the workers sent and return it as one ``results`` frame.

        Items are either genuine results (``buffer``) or synthesized losses
        (``worker_lost``); either way the first settle of a task id wins —
        later items for an already-settled task are dropped, which is what
        makes the claim-clearing race in the worker benign.
        """
        batch: List[Dict[str, Any]] = []
        with self._tasks_lock:
            for worker_id, result in received:
                task_id = result["task_id"]
                self._assigned[worker_id].pop(task_id, None)
                if task_id not in self._unsettled:
                    continue  # a result raced a synthesized loss
                self._unsettled.remove(task_id)
                entry: Dict[str, Any] = {"task_id": task_id}
                if "buffer" in result:
                    entry["buffer"] = result["buffer"]
                    # Worker-side execution endpoints plus the moment this
                    # manager shipped the result: the interchange merges them
                    # into the task's trace span events and the
                    # execution-latency histogram.
                    entry["exec_start"] = result["exec_start"]
                    entry["exec_end"] = result["exec_end"]
                    entry["sent_at"] = time.time()
                else:
                    entry["worker_lost"] = result["worker_lost"]
                batch.append(entry)
        if batch:
            self.results_sent += len(batch)
            self._client.send(msg.results_message(batch))

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead worker and hand it the tasks its predecessor never started.

        The slot left the routable set when its worker's exit was seen, so
        the tasks loop cannot write to the replacement while its
        predecessor's orphans go in; the replacement's pipe is empty, so
        those writes never wait behind a busy worker. No kill is charged
        for an orphan and the interchange never learns it moved.
        """
        with self._tasks_lock:
            orphans = [
                payload
                for task_id, payload in self._assigned[worker_id].items()
                if task_id in self._unsettled
            ]
            self._assigned[worker_id] = {}
        worker, conn = self._spawn_worker(worker_id)
        try:
            for payload in orphans:
                self._send(worker_id, conn, payload)
        except OSError:
            pass  # the replacement died too: its exit comes next, orphans and all
        with self._send_locks[worker_id]:
            self._conns[worker_id].close()  # a send to the dead worker may be failing on it
        with self._tasks_lock:
            self._workers[worker_id], self._conns[worker_id] = worker, conn
            self._assigned[worker_id] = {payload["task_id"]: payload for payload in orphans}
            self._routable.add(worker_id)
            self._tasks_lock.notify_all()
        self.workers_respawned += 1

    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        assert self._client is not None
        while not self._stop_event.is_set():
            self._client.send(msg.heartbeat_message())
            if time.monotonic() - self._client.last_recv > self.heartbeat_threshold:
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
        """End every service loop; results read before the stop are still sent.

        Each call writes one wake-up; once the worker loop has stopped
        draining the wake connection, only the few places that stop a
        manager write to it, once each, so it cannot fill.
        """
        with self._tasks_lock:
            self._stop_event.set()
            self._tasks_lock.notify_all()
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass  # after shutdown(): the wake connection is closed, the loop long gone

    def wait(self) -> None:
        """Block until the manager shuts down (used by the CLI entry point)."""
        self._stop_event.wait()
        self.shutdown()

    def shutdown(self) -> None:
        self._stop()
        # The worker loop sends its last results before the client closes;
        # closing the client then wakes the tasks loop out of recv().
        for name in ("workers", "heartbeat"):
            if name in self._threads:
                self._threads[name].join(timeout=2)
        if self._client is not None:
            self._client.close()
        if "tasks" in self._threads:
            self._threads["tasks"].join(timeout=2)
        for worker_id, conn in enumerate(self._conns):
            if conn is None:
                continue  # never started
            try:
                self._send(worker_id, conn, STOP)
            except OSError:
                pass  # a dead worker: nothing to stop
        for worker in self._workers:
            if worker is None:
                continue
            worker.join(timeout=1)
            if self.worker_mode == "process" and worker.is_alive():
                worker.terminate()
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._wake_recv.close()
        self._wake_send.close()

    # ------------------------------------------------------------------
    def run_forever(self) -> None:
        """Start and block; the CLI wrapper calls this."""
        self.start()
        try:
            self.wait()
        except KeyboardInterrupt:
            self.shutdown()
