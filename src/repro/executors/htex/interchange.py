"""The interchange: the broker between the executor client and its managers (§4.3.1).

The interchange owns a :class:`~repro.comms.server.MessageServer` to which
managers connect over TCP. The executor client in the same process hands it
tasks through an in-memory queue (the equivalent of Parsl's client-side
ZeroMQ pipe) and receives results through a callback.

Responsibilities reproduced from the paper (plus the resource-aware
scheduling subsystem layered on top):

* order queued tasks by priority: the pending queue is a
  :class:`~repro.scheduling.queues.PriorityTaskQueue` (heap keyed on
  priority then submit order, starvation-safe via aging), so a high-priority
  task submitted behind a bulk backlog overtakes it, and a requeued task
  re-enters at its *original* position,
* match queued tasks to managers through a pluggable placement policy
  (:mod:`repro.scheduling.placement`): ``least_loaded`` (default),
  ``bin_pack``, ``spread``, ``random``, ``round_robin``. Capacity is
  accounted in worker *core-slots*: a task whose resource spec asks for
  ``cores`` consumes that many slots on the one manager it is placed on. The
  interchange's ledger (:class:`ManagerRecord`) is the only record of
  capacity: managers announce ``worker_count`` and ``prefetch_capacity``
  once, at registration, and keep no count of their own, so no manager is
  ever handed more in-flight cores than it registered,
* coalesce task dispatch: each round snapshots manager capacity once, places
  a whole window of tasks through the policy's index (O(batch · log
  managers)), and ships each manager's share in messages of up to
  ``batch_size`` tasks so one socket write carries a whole batch,
* exchange heartbeats with managers and declare a manager lost when it misses
  ``heartbeat_threshold`` seconds of heartbeats, settling that manager's
  in-flight tasks *individually* — each is requeued onto a surviving manager
  while it has redispatch budget (``max_task_redispatches``), else fails with
  its own :class:`~repro.errors.ManagerLost`,
* quarantine poison tasks: managers report workers that die mid-task
  (``worker_lost`` result items); the kill count rides in the dispatched
  task record, and a task that has killed workers ``poison_threshold``
  times fails with a typed :class:`~repro.errors.WorkerPoisonError` instead
  of being redispatched yet again,
* answer the executor's in-process queries and requests as plain methods:
  :meth:`Interchange.outstanding`, :meth:`Interchange.connected_managers`,
  :meth:`Interchange.blacklist`, :meth:`Interchange.drain_block`,
  :meth:`Interchange.block_report`, :meth:`Interchange.scheduling_stats`
  (whose ``faults`` are the campaign fault counters) and
  :meth:`Interchange.stop`.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.comms.server import MessageServer
from repro.errors import ManagerLost, WorkerLost, WorkerPoisonError
from repro.executors.htex import messages as msg
from repro.observability.metrics import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import stamp
from repro.scheduling.placement import ManagerSlot, make_placement_view
from repro.scheduling.queues import DEFAULT_AGING_S, PriorityTaskQueue

logger = logging.getLogger(__name__)


@dataclass
class ManagerRecord:
    """Interchange-side view of one connected manager."""

    identity: str
    block_id: Optional[str]
    hostname: str
    worker_count: int
    prefetch_capacity: int = 0
    #: task_id -> the dispatched task item, kept so a lost manager's
    #: in-flight tasks can be requeued individually.
    outstanding: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: Core-slots currently consumed by the outstanding tasks, charged at
    #: dispatch and released when a result or loss settles. This is the only
    #: record of a manager's capacity, and what the no-oversubscription
    #: guarantee is asserted from.
    in_flight_cores: int = 0
    peak_in_flight_cores: int = 0
    last_heartbeat: float = field(default_factory=time.time)
    active: bool = True
    blacklisted: bool = False
    #: Draining managers receive no new dispatches; once their in-flight
    #: tasks settle the interchange shuts them down (block scale-in).
    draining: bool = False

    @property
    def max_queue_depth(self) -> int:
        return self.worker_count + self.prefetch_capacity

    @property
    def capacity_remaining(self) -> int:
        """Queue slots still dispatchable, by the interchange's own accounting."""
        return max(self.max_queue_depth - self.in_flight_cores, 0)

    @property
    def exec_slots_remaining(self) -> int:
        """Execution slots (actual workers) not yet reserved by in-flight cores.

        Multi-core placement is constrained by this, not by
        :attr:`capacity_remaining`: prefetch slots are buffer space, and
        reserving N cores against buffer would let two multi-core tasks
        co-schedule on the same workers.
        """
        return max(self.worker_count - self.in_flight_cores, 0)


class Interchange:
    """Broker tasks between one executor client and many managers."""

    def __init__(
        self,
        result_callback: Callable[[Dict[str, Any]], None],
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_period: float = 1.0,
        heartbeat_threshold: float = 5.0,
        batch_size: int = 8,
        poll_period: float = 0.01,
        selection_seed: Optional[int] = None,
        scheduling_policy: str = "least_loaded",
        max_task_redispatches: int = 1,
        poison_threshold: int = 2,
        block_drained_callback: Optional[Callable[[str], None]] = None,
        drain_timeout: float = 60.0,
        priority_aging_s: float = DEFAULT_AGING_S,
        placement_lookahead: int = 32,
        label: str = "interchange",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.result_callback = result_callback
        self.heartbeat_period = heartbeat_period
        self.heartbeat_threshold = heartbeat_threshold
        self.batch_size = batch_size
        self.poll_period = poll_period
        self.max_task_redispatches = max_task_redispatches
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        #: Worker kills a single task may cause before it is quarantined:
        #: at the threshold the task fails with WorkerPoisonError instead of
        #: being redispatched, so one bad task cannot serially murder every
        #: worker in a block.
        self.poison_threshold = poison_threshold
        self.scheduling_policy = scheduling_policy
        self.placement_lookahead = placement_lookahead
        self.block_drained_callback = block_drained_callback
        self.drain_timeout = drain_timeout
        #: block_id -> time the drain was requested.
        self._draining_blocks: Dict[str, float] = {}
        self.label = label
        self.server = MessageServer(host=host, port=port, name=f"{label}-server")
        self.pending_tasks = PriorityTaskQueue(aging_s=priority_aging_s)
        self._managers: Dict[str, ManagerRecord] = {}
        self._managers_lock = threading.RLock()
        self._rng = random.Random(selection_seed)
        self._rr_cursor = [0]
        self._stop_event = threading.Event()
        self._threads: List[threading.Thread] = []
        self._last_heartbeat_sweep = time.time()
        self.tasks_dispatched = 0
        self.results_received = 0
        #: Times a dispatch pushed a manager past its registered slots; the
        #: placement accounting makes this impossible, so the fig7 bench
        #: asserts it stays zero.
        self.oversubscription_events = 0
        #: Fault counters for the whole campaign (surfaced by
        #: ``scheduling_stats`` and the gateway's per-shard stats rows).
        self.managers_lost = 0
        self.workers_lost = 0
        self.tasks_redispatched = 0
        self.tasks_poisoned = 0
        #: Final per-manager accounting for managers that have disconnected,
        #: so post-run stats still cover the whole campaign.
        self._retired_manager_stats: Dict[str, Dict[str, int]] = {}
        #: (manager identity, cores) held in reserve for the highest-priority
        #: deferred multi-core task (see _dispatch_tasks): the manager gets no
        #: new work, so it drains until the task's execution slots free up.
        #: Rebuilt every round; cleared the moment nothing multi-core defers.
        self._exec_reservation: Optional[tuple] = None
        self._started = False

        # Live metrics: the existing plain-int counters above stay the source
        # of truth; the registry reads them through callbacks at scrape time,
        # so the dispatch/result hot paths pay nothing. Only the execution
        # latency histogram records inline (one observe per result).
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        mlabels = {"executor": label}
        self.metrics.counter(
            "repro_htex_tasks_dispatched_total", "Tasks shipped to managers",
            labels=mlabels, callback=lambda: self.tasks_dispatched,
        )
        self.metrics.counter(
            "repro_htex_results_received_total", "Task results returned by managers",
            labels=mlabels, callback=lambda: self.results_received,
        )
        self.metrics.gauge(
            "repro_htex_pending_tasks", "Tasks waiting in the interchange priority queue",
            labels=mlabels, callback=lambda: self.pending_tasks.qsize(),
        )
        self.metrics.gauge(
            "repro_htex_in_flight_cores", "Core-slots reserved by dispatched tasks",
            labels=mlabels, callback=lambda: self.fault_stats()["in_flight_cores"],
        )
        self.metrics.counter(
            "repro_htex_managers_lost_total", "Managers declared lost",
            labels=mlabels, callback=lambda: self.managers_lost,
        )
        self.metrics.counter(
            "repro_htex_workers_lost_total", "Workers that died mid-task",
            labels=mlabels, callback=lambda: self.workers_lost,
        )
        self.metrics.counter(
            "repro_htex_tasks_redispatched_total", "Task requeues after a fault",
            labels=mlabels, callback=lambda: self.tasks_redispatched,
        )
        self.metrics.counter(
            "repro_htex_tasks_poisoned_total", "Tasks quarantined as poison",
            labels=mlabels, callback=lambda: self.tasks_poisoned,
        )
        self._m_exec_seconds = self.metrics.histogram(
            "repro_htex_execution_seconds", "Worker-side task execution latency",
            labels=mlabels,
        )
        #: Optional ``fn(seconds)`` invoked with every worker-side execution
        #: latency (the same samples ``repro_htex_execution_seconds`` sees).
        #: The gateway points this at its SLO engine's per-executor rolling
        #: windows; exceptions are swallowed so observers can't stall results.
        self.latency_observer: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        main = threading.Thread(target=self._main_loop, name=f"{self.label}-main", daemon=True)
        main.start()
        self._threads.append(main)

    def stop(self) -> None:
        self._stop_event.set()
        self.server.broadcast(msg.shutdown_message())
        time.sleep(0.05)
        for t in self._threads:
            t.join(timeout=2)
        self.server.close()

    # ------------------------------------------------------------------
    # Client-facing API (called from the executor in the same process)
    # ------------------------------------------------------------------
    def submit_task(
        self,
        task_id: int,
        buffer: bytes,
        priority: int = 0,
        cores: int = 1,
        walltime_s: Optional[float] = None,
    ) -> None:
        self.pending_tasks.put(
            msg.task_item(task_id, buffer, priority=priority, cores=cores, walltime_s=walltime_s)
        )

    def submit_tasks(self, items: List[Dict[str, Any]]) -> None:
        """Enqueue a pre-packed batch of tasks (each item: ``task_id``,
        ``buffer``, and optionally ``priority`` / ``cores``).

        This is the executor's batched submission entry point: the whole batch
        lands on the outbound priority queue in one call and the dispatch loop
        coalesces it into as few manager messages as capacity allows.
        """
        self.pending_tasks.put_many(items)

    def outstanding(self) -> int:
        """Tasks not yet settled: dispatched to a manager or still pending."""
        with self._managers_lock:
            dispatched = sum(len(m.outstanding) for m in self._managers.values())
        return dispatched + self.pending_tasks.qsize()

    def connected_managers(self) -> List[Dict[str, Any]]:
        """One row per connected manager, from the interchange's ledger."""
        with self._managers_lock:
            return [
                {
                    "identity": m.identity,
                    "block_id": m.block_id,
                    "hostname": m.hostname,
                    "worker_count": m.worker_count,
                    "free_capacity": m.capacity_remaining,
                    "outstanding": len(m.outstanding),
                    "in_flight_cores": m.in_flight_cores,
                    "blacklisted": m.blacklisted,
                    "draining": m.draining,
                }
                for m in self._managers.values()
                if m.active
            ]

    def blacklist(self, identity: str) -> bool:
        """Dispatch nothing more to ``identity``; False if it is not connected."""
        with self._managers_lock:
            record = self._managers.get(identity)
            if record is None:
                return False
            record.blacklisted = True
        return True

    def scheduling_stats(self) -> Dict[str, Any]:
        """Placement accounting for the whole campaign (fig7's assertion feed).

        Covers every manager ever seen — live records plus the frozen stats
        of managers that have since disconnected — so "no manager ever held
        more in-flight cores than it registered" can be asserted post-run.
        """
        with self._managers_lock:
            managers = {
                m.identity: {
                    "capacity": m.max_queue_depth,
                    "in_flight_cores": m.in_flight_cores,
                    "peak_in_flight_cores": m.peak_in_flight_cores,
                }
                for m in self._managers.values()
            }
            retired = dict(self._retired_manager_stats)
        retired.update(managers)
        return {
            "policy": self.scheduling_policy,
            "queue_depth": self.pending_tasks.qsize(),
            "oversubscription_events": self.oversubscription_events,
            "managers": retired,
            "faults": self.fault_stats(),
        }

    def fault_stats(self) -> Dict[str, int]:
        """Campaign fault counters: what died, and what happened to its work.

        ``tasks_redispatched`` counts every requeue, whether the trigger was
        a lost worker, a lost manager, or a drain timeout; ``in_flight_cores``
        is the live sum across connected managers, which must return to zero
        once a campaign settles (the chaos acceptance asserts exactly that).
        """
        with self._managers_lock:
            in_flight = sum(m.in_flight_cores for m in self._managers.values() if m.active)
        return {
            "managers_lost": self.managers_lost,
            "workers_lost": self.workers_lost,
            "tasks_redispatched": self.tasks_redispatched,
            "tasks_poisoned": self.tasks_poisoned,
            "in_flight_cores": in_flight,
        }

    def _retire_manager_stats(self, record: ManagerRecord) -> None:
        """Freeze a disconnecting manager's accounting (caller holds the lock)."""
        self._retired_manager_stats[record.identity] = {
            "capacity": record.max_queue_depth,
            "in_flight_cores": 0,
            "peak_in_flight_cores": record.peak_in_flight_cores,
        }

    def block_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-block aggregate of manager activity, for the block registry."""
        report: Dict[str, Dict[str, Any]] = {}
        with self._managers_lock:
            for m in self._managers.values():
                if not m.active or m.block_id is None:
                    continue
                entry = report.setdefault(
                    m.block_id,
                    {"managers": 0, "outstanding": 0, "free_capacity": 0, "draining": False},
                )
                entry["managers"] += 1
                entry["outstanding"] += len(m.outstanding)
                entry["free_capacity"] += m.capacity_remaining
                entry["draining"] = entry["draining"] or m.draining
        return report

    def drain_block(self, block_id: str) -> int:
        """Stop dispatching to ``block_id``'s managers; shut them down once idle.

        Returns the number of managers marked draining. ``0`` means no manager
        of that block is connected — the caller should cancel the provider job
        directly instead of waiting for a drain that can never complete.
        """
        drained: List[str] = []
        with self._managers_lock:
            for m in self._managers.values():
                if m.active and m.block_id == block_id and not m.draining:
                    m.draining = True
                    drained.append(m.identity)
            if drained:
                self._draining_blocks.setdefault(block_id, time.time())
        for identity in drained:
            # The ledger already excludes the manager from dispatch; the
            # notice only lets it log the scale-in, and it acks.
            self.server.send(identity, msg.drain_message())
        return len(drained)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _main_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                self._process_incoming()
                self._dispatch_tasks()
                self._drain_sweep()
                self._heartbeat_sweep()
            except Exception:  # noqa: BLE001 - the broker must not die
                logger.exception("interchange loop error")

    def _process_incoming(self) -> None:
        """Drain messages from managers."""
        received = self.server.recv(timeout=self.poll_period)
        while received is not None:
            identity, message = received
            self._handle_message(identity, message)
            # Drain without blocking once we are in a burst.
            received = self.server.recv(timeout=0.0)

    def _handle_message(self, identity: str, message: Dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype == "registration":
            info = message.get("info", {})
            record = ManagerRecord(
                identity=identity,
                block_id=info.get("block_id"),
                hostname=info.get("hostname", "unknown"),
                worker_count=int(info.get("worker_count", 1)),
                prefetch_capacity=int(info.get("prefetch_capacity", 0)),
            )
            with self._managers_lock:
                # A manager booting into a block that is already being
                # drained (scale-in raced its registration) must never
                # become dispatch-eligible — mark it draining on arrival so
                # the drain can settle instead of stalling to drain_timeout.
                if record.block_id in self._draining_blocks:
                    record.draining = True
                self._managers[identity] = record
            if record.draining:
                self.server.send(identity, msg.drain_message())
            logger.info(
                "manager %s registered (%s workers)%s",
                identity, record.worker_count, " [draining block]" if record.draining else "",
            )
        elif mtype == "heartbeat":
            self._touch(identity)
            self.server.send(identity, msg.heartbeat_reply_message())
        elif mtype == "results":
            self._touch(identity)
            items = message.get("items", [])
            genuine = []
            with self._managers_lock:
                record = self._managers.get(identity)
                for item in items:
                    if "worker_lost" in item:
                        continue  # settled (and counted) in _handle_worker_lost
                    settled = None
                    if record is not None:
                        settled = record.outstanding.pop(item["task_id"], None)
                        if settled is not None:
                            freed = msg.task_cores(settled)
                            record.in_flight_cores = max(record.in_flight_cores - freed, 0)
                    genuine.append((item, settled))
            for item in items:
                if "worker_lost" in item:
                    self._handle_worker_lost(identity, item)
            for item, settled in genuine:
                self.results_received += 1
                item.setdefault("manager", identity)
                self._merge_result_timing(item, settled)
                self.result_callback(item)
        elif mtype == "drain_ack":
            self._touch(identity)
        elif mtype == "peer_lost":
            self._manager_lost(identity, reason="connection lost")
        # Unknown message types are ignored (forward compatibility).

    def _merge_result_timing(self, item: Dict[str, Any],
                             settled: Optional[Dict[str, Any]]) -> None:
        """Fold worker/manager-side timestamps into metrics and the trace.

        Workers stamp ``exec_start``/``exec_end`` and managers ``sent_at``
        unconditionally (plain floats on the result item), so the execution
        histogram records whether or not the task carries a trace. The span
        events merge only when the dispatched item held a trace context —
        that merge mutates the same dict the DFK's TaskRecord references, so
        the DFK's ``result_committed`` flush picks these hops up for free.
        """
        t_start = item.get("exec_start")
        t_end = item.get("exec_end")
        if t_start is not None and t_end is not None:
            self._m_exec_seconds.observe(t_end - t_start)
            observer = self.latency_observer
            if observer is not None:
                try:
                    observer(t_end - t_start)
                except Exception:  # noqa: BLE001 - observers must not stall results
                    logger.exception("latency observer failed")
        trace = settled.get("trace") if settled is not None else None
        if trace is None:
            return
        if t_start is not None:
            stamp(trace, "executing", t_start)
        if t_end is not None:
            stamp(trace, "exec_done", t_end)
        sent_at = item.get("sent_at")
        if sent_at is not None:
            stamp(trace, "result_sent", sent_at)
        item["trace"] = trace

    def _touch(self, identity: str) -> None:
        with self._managers_lock:
            record = self._managers.get(identity)
            if record is not None:
                record.last_heartbeat = time.time()

    def _handle_worker_lost(self, identity: str, item: Dict[str, Any]) -> None:
        """Settle a task whose worker died mid-execution (poison quarantine).

        The kill is charged against the *task* (the count rides in the
        dispatched item, so it survives requeues and manager failover):

        * below ``poison_threshold`` the task is redispatched — it re-enters
          the pending queue at its original priority stamp, and may well land
          back on the reporting manager, whose worker was respawned;
        * at the threshold it is failed with a typed
          :class:`~repro.errors.WorkerPoisonError` instead, so one bad task
          cannot keep killing freshly respawned workers forever;
        * with no eligible manager left it fails with
          :class:`~repro.errors.WorkerLost` rather than stranding in the
          pending queue (mirroring the no-survivor ManagerLost rule).
        """
        info = item.get("worker_lost") or {}
        task_id = item["task_id"]
        hostname = str(info.get("hostname", "unknown"))
        with self._managers_lock:
            self.workers_lost += 1
            record = self._managers.get(identity)
            settled = record.outstanding.pop(task_id, None) if record is not None else None
            if settled is not None and record is not None:
                freed = msg.task_cores(settled)
                record.in_flight_cores = max(record.in_flight_cores - freed, 0)
            if settled is None:
                # Already settled (e.g. the manager was declared lost and the
                # task requeued before this straggler arrived): the kill was
                # real, but there is nothing left to charge it against.
                return
            kills = settled["worker_kills"] = settled.get("worker_kills", 0) + 1
            survivors = any(
                m.active and not m.blacklisted and not m.draining
                for m in self._managers.values()
            )
        if kills >= self.poison_threshold:
            self.tasks_poisoned += 1
            logger.warning(
                "task %s quarantined as poison after killing %d workers (last: worker %s on %s)",
                task_id, kills, info.get("worker_id"), hostname,
            )
            self.result_callback(
                {
                    "task_id": task_id,
                    "exception": WorkerPoisonError(task_id, kills, hostname),
                    "manager": identity,
                }
            )
        elif survivors:
            self.tasks_redispatched += 1
            logger.info(
                "task %s redispatched after losing worker %s on %s (kill %d/%d)",
                task_id, info.get("worker_id"), hostname, kills, self.poison_threshold,
            )
            self.pending_tasks.put(settled)
        else:
            self.result_callback(
                {
                    "task_id": task_id,
                    "exception": WorkerLost(
                        info.get("worker_id"), hostname, info.get("exitcode")
                    ),
                    "manager": identity,
                }
            )

    # ------------------------------------------------------------------
    def _dispatch_tasks(self) -> None:
        """One placement round: snapshot capacity once, place a whole window.

        The eligible managers are snapshotted into
        :class:`~repro.scheduling.placement.ManagerSlot` views under the lock
        *once per round* (not once per task, as the old ``_select_manager``
        re-scan did), and the policy's index answers each placement in
        O(log managers) — a batch dispatches in O(batch · log managers).

        Tasks are popped in priority order. A task no manager can currently
        fit (e.g. a 4-core task while only single slots are free) is held
        aside and restored to its exact queue position afterwards — up to
        ``placement_lookahead`` such tasks per round, so smaller tasks behind
        it keep flowing without the scan degenerating to O(queue).

        Deferred *multi-core* tasks additionally place a **reservation**:
        under sustained 1-core traffic every manager stays saturated, so
        without one a cores-N task would starve — its execution-slot window
        never opens. The round that defers one picks a capable manager and
        holds it out of the next round's snapshot; receiving no new work, it
        drains until the task fits (the reservation is re-evaluated every
        round and vanishes as soon as nothing multi-core is deferred).
        """
        if self.pending_tasks.empty():
            return
        with self._managers_lock:
            reservation = self._exec_reservation
            slots = []
            for m in self._managers.values():
                if not (m.active and not m.blacklisted and not m.draining):
                    continue
                if (
                    reservation is not None
                    and m.identity == reservation[0]
                    and m.exec_slots_remaining < reservation[1]
                ):
                    continue  # held in reserve: drains toward the blocked multi-core task
                if m.capacity_remaining > 0:
                    slots.append(
                        ManagerSlot(
                            m.identity,
                            m.capacity_remaining,
                            len(m.outstanding),
                            exec_free=m.exec_slots_remaining,
                        )
                    )
        if not slots:
            return
        view = make_placement_view(self.scheduling_policy, slots, self._rng, rr_cursor=self._rr_cursor)
        budget = sum(slot.free for slot in slots)
        assignments: Dict[str, List[Dict[str, Any]]] = {}
        deferred: List[Dict[str, Any]] = []
        while budget > 0:
            item = self.pending_tasks.pop()
            if item is None:
                break
            cores = msg.task_cores(item)
            identity = view.place(cores)
            if identity is None:
                deferred.append(item)
                if len(deferred) >= self.placement_lookahead:
                    break
                continue
            assignments.setdefault(identity, []).append(item)
            budget -= cores
        self.pending_tasks.put_many(deferred)  # stamped keys restore their positions
        self._update_exec_reservation(deferred)
        for identity, items in assignments.items():
            self._send_assignment(identity, items)

    def _update_exec_reservation(self, deferred: List[Dict[str, Any]]) -> None:
        """Hold one manager back for the best deferred multi-core task.

        ``deferred`` is in priority order, so the first multi-core entry is
        the one strict priority says should run next. The chosen manager is
        the capable one (enough workers) closest to fitting it.
        """
        for item in deferred:
            cores = msg.task_cores(item)
            if cores <= 1:
                continue
            with self._managers_lock:
                candidates = [
                    m
                    for m in self._managers.values()
                    if m.active and not m.blacklisted and not m.draining and m.worker_count >= cores
                ]
                if candidates:
                    best = max(
                        candidates, key=lambda m: (m.exec_slots_remaining, -len(m.outstanding))
                    )
                    self._exec_reservation = (best.identity, cores)
                    return
            break  # no capable manager connected; nothing to reserve
        self._exec_reservation = None

    def _send_assignment(self, identity: str, items: List[Dict[str, Any]]) -> None:
        """Ship one manager's share of the round in batch-sized messages."""
        for start in range(0, len(items), self.batch_size):
            chunk = items[start : start + self.batch_size]
            t_send = time.time()
            delivered = self.server.send(identity, msg.tasks_message(chunk))
            if not delivered:
                # Connection died between placement and send: requeue (at
                # original priority) and let the loss path clean up.
                self.pending_tasks.put_many(items[start:])
                self._manager_lost(identity, reason="send failed")
                return
            # Stamped only after the send succeeded (a failed-send requeue
            # would otherwise leave an orphan hop per retry) but with the
            # pre-send time, so "dispatched" always precedes the worker's
            # "executing" even when a thread-mode worker starts instantly.
            for item in chunk:
                trace = item.get("trace")
                if trace is not None:
                    stamp(trace, "dispatched", t_send)
                    # Live worker attribution: the straggler detector names
                    # the manager a stuck task was dispatched to long before
                    # any result-side stamp could merge in.
                    trace["manager"] = identity
            chunk_cores = sum(msg.task_cores(item) for item in chunk)
            with self._managers_lock:
                live = self._managers.get(identity)
                if live is not None:
                    for item in chunk:
                        live.outstanding[item["task_id"]] = item
                    live.in_flight_cores += chunk_cores
                    live.peak_in_flight_cores = max(
                        live.peak_in_flight_cores, live.in_flight_cores
                    )
                    if live.in_flight_cores > live.max_queue_depth:
                        self.oversubscription_events += 1
            self.tasks_dispatched += len(chunk)

    # ------------------------------------------------------------------
    def _drain_sweep(self) -> None:
        """Settle draining blocks: shut managers down once their tasks finish.

        A draining manager receives no new dispatches (see
        :meth:`_dispatch_tasks`); when every in-flight task it holds has
        returned, it is sent a shutdown message and disconnected, and once the
        last manager of a block settles the ``block_drained_callback`` fires so
        the executor can cancel the provider job. A block that fails to settle
        within ``drain_timeout`` is treated like a lost manager: its in-flight
        tasks are requeued individually and the drain completes anyway.
        """
        if not self._draining_blocks:
            return
        now = time.time()
        to_shutdown: List[str] = []   # settled managers: shutdown + disconnect
        to_lose: List[str] = []       # stuck managers past drain_timeout
        drained: List[str] = []       # blocks whose drain completed this sweep
        with self._managers_lock:
            for block_id, since in list(self._draining_blocks.items()):
                managers = [
                    m for m in self._managers.values() if m.active and m.block_id == block_id
                ]
                if not managers:
                    # Every manager already gone (lost or settled earlier).
                    del self._draining_blocks[block_id]
                    drained.append(block_id)
                    continue
                settled = [m for m in managers if not m.outstanding]
                timed_out = now - since > self.drain_timeout
                if len(settled) < len(managers) and not timed_out:
                    continue  # tasks still in flight; check again next loop
                for m in settled:
                    m.active = False
                    del self._managers[m.identity]
                    self._retire_manager_stats(m)
                    to_shutdown.append(m.identity)
                to_lose.extend(m.identity for m in managers if m.outstanding)
                del self._draining_blocks[block_id]
                drained.append(block_id)
        # Socket work and callbacks happen outside the lock.
        for identity in to_shutdown:
            self.server.send(identity, msg.shutdown_message())
            self.server.disconnect(identity)
        for identity in to_lose:
            # Past the drain timeout: settle in-flight tasks individually,
            # exactly like a lost manager (requeue within redispatch budget).
            self._manager_lost(identity, reason="drain timeout")
        for block_id in drained:
            logger.info("block %s drained", block_id)
            if self.block_drained_callback is not None:
                try:
                    self.block_drained_callback(block_id)
                except Exception:  # noqa: BLE001 - executor-side bookkeeping error
                    logger.exception("block_drained_callback failed for %s", block_id)

    def _heartbeat_sweep(self) -> None:
        now = time.time()
        if now - self._last_heartbeat_sweep < self.heartbeat_period:
            return
        self._last_heartbeat_sweep = now
        with self._managers_lock:
            stale = [
                m.identity
                for m in self._managers.values()
                if m.active and now - m.last_heartbeat > self.heartbeat_threshold
            ]
        for identity in stale:
            self._manager_lost(identity, reason="missed heartbeats")

    def _manager_lost(self, identity: str, reason: str) -> None:
        """Handle the loss of a manager, settling its in-flight tasks one by one.

        Tasks were dispatched to the dead manager in *batches*, but they are
        settled *individually*: each task is requeued for another manager when
        one is available and the task still has a redispatch budget, and
        otherwise fails with its own :class:`~repro.errors.ManagerLost` — never
        one exception shared across a whole batch message. A requeued task
        keeps its ``_vtime`` stamp, so it re-enters the pending queue at its
        original priority and accrued age, not at the back.
        """
        with self._managers_lock:
            record = self._managers.get(identity)
            if record is None or not record.active:
                return
            record.active = False
            self.managers_lost += 1
            outstanding = list(record.outstanding.values())
            record.outstanding.clear()
            record.in_flight_cores = 0
            hostname = record.hostname
            del self._managers[identity]
            self._retire_manager_stats(record)
            # Draining managers are not survivors: they accept no new
            # dispatches, so requeueing onto them would strand the tasks in
            # the pending queue forever — better to fail with ManagerLost.
            survivors = any(
                m.active and not m.blacklisted and not m.draining
                for m in self._managers.values()
            )
        requeued = 0
        for item in outstanding:
            if survivors and item.get("redispatches", 0) < self.max_task_redispatches:
                item["redispatches"] = item.get("redispatches", 0) + 1
                self.pending_tasks.put(item)
                requeued += 1
                self.tasks_redispatched += 1
            else:
                self.result_callback(
                    {
                        "task_id": item["task_id"],
                        "exception": ManagerLost(identity, hostname),
                        "manager": identity,
                    }
                )
        if outstanding:
            logger.warning(
                "manager %s lost (%s) with %d outstanding tasks (%d requeued, %d failed)",
                identity, reason, len(outstanding), requeued, len(outstanding) - requeued,
            )
        self.server.disconnect(identity)

    # ------------------------------------------------------------------
    @property
    def connected_manager_count(self) -> int:
        with self._managers_lock:
            return sum(1 for m in self._managers.values() if m.active)

    @property
    def connected_worker_count(self) -> int:
        with self._managers_lock:
            return sum(m.worker_count for m in self._managers.values() if m.active and not m.blacklisted)
