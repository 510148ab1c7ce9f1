"""HighThroughputExecutor (HTEX).

The general-purpose pilot-job executor described in §4.3.1: an interchange
brokers tasks between the executor client and per-node managers, each of
which drives a pool of worker processes. Designed for up to thousands of
nodes, millions of sub-second tasks, and multi-day campaigns, with
heartbeat-based fault detection.

Two deployment modes are supported:

* **provider mode** — blocks are obtained from an
  :class:`~repro.providers.base.ExecutionProvider`; each block node runs
  ``python -m repro.executors.htex.process_worker_pool`` which connects back
  to the interchange over TCP. This is the paper's deployment.
* **internal mode** (no provider) — the executor starts managers inside the
  current process (thread workers) that still talk to the interchange over
  the same protocol. This gives a dependency-free local runtime and is what
  most unit tests use.
"""

from __future__ import annotations

import concurrent.futures as cf
import logging
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ResourceSpecError, SerializationError
from repro.executors.base import ReproExecutor, SubmitRequest
from repro.executors.blocks import BlockState
from repro.executors.htex import messages as msg
from repro.executors.htex.interchange import Interchange
from repro.executors.htex.manager import Manager
from repro.providers.base import ExecutionProvider
from repro.scheduling.queues import DEFAULT_AGING_S
from repro.scheduling.spec import ResourceSpec
from repro.serialize import deserialize, pack_apply_message
from repro.utils.threads import AtomicCounter

logger = logging.getLogger(__name__)

#: Bucket bounds (kB) for the per-task peak-RSS histogram: 1 MB .. 4 GB in
#: powers of four — worker pools are long-lived so maxrss is a high-water
#: mark, and coarse buckets suffice to spot a leaking or oversized app.
MAXRSS_BUCKETS_KB = (
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
)


class HighThroughputExecutor(ReproExecutor):
    """Pilot-job executor with an interchange and per-node managers (§4.3.1).

    Defaults follow the paper's deployment guidance:

    * ``batch_size=8`` — tasks per interchange→manager message; the dispatch
      loop packs up to this many tasks into one socket write, capped by the
      target manager's free capacity in the interchange's ledger.
    * ``prefetch_capacity=None`` — defaults to ``workers_per_node``, letting a
      manager buffer one extra task per worker so workers never idle between
      result send and next dispatch (the paper's pipelining knob). Pass ``0``
      to disable prefetching.
    * ``poll_period=0.005`` — the interchange's idle poll; under load the loop
      is driven by message arrival, so this only bounds first-dispatch latency.
    * ``scheduling_policy="least_loaded"`` — task→manager placement (see
      :mod:`repro.scheduling.placement`): ``least_loaded``, ``bin_pack``,
      ``spread``, ``random``, ``round_robin``. Tasks carry per-task resource
      specs: ``{"cores": N}`` consumes N worker slots on one manager,
      ``{"priority": P}`` orders the interchange's starvation-safe priority
      queue (``priority_aging_s`` seconds of waiting outweigh one priority
      level; ``placement_lookahead`` bounds how many unplaceable multi-core
      tasks a dispatch round may hold aside while smaller tasks flow past).
    * heartbeats every ``heartbeat_period`` seconds; a manager silent for
      ``heartbeat_threshold`` seconds is declared lost and its in-flight tasks
      are settled individually: requeued onto a surviving manager while each
      has redispatch budget (``max_task_redispatches``, default 1), otherwise
      failed with :class:`~repro.errors.ManagerLost`. Note that loss detection
      is heartbeat-based, so a merely *slow* manager may still complete a task
      that was requeued — redispatch trades at-most-once execution for
      availability. Pass ``max_task_redispatches=0`` for strict at-most-once
      (every in-flight task on a lost manager fails, and ``Config.retries``
      decides what happens next).
    * worker crashes are contained one level below manager loss: each manager
      supervises its workers, synthesizes a :class:`~repro.errors.WorkerLost`
      for the task a dead worker had claimed, and respawns the worker up to
      ``worker_respawn_limit`` times before exiting (handing its remaining
      work to the ManagerLost path). The interchange charges each kill to the
      task itself and quarantines a task that has killed
      ``poison_threshold`` workers (default 2) with a typed
      :class:`~repro.errors.WorkerPoisonError` instead of redispatching it.
    """

    def __init__(
        self,
        label: str = "htex",
        provider: Optional[ExecutionProvider] = None,
        address: str = "127.0.0.1",
        workers_per_node: int = 2,
        prefetch_capacity: Optional[int] = None,
        heartbeat_period: float = 1.0,
        heartbeat_threshold: float = 5.0,
        batch_size: int = 8,
        poll_period: float = 0.005,
        worker_mode: str = "process",
        internal_managers: int = 1,
        scheduling_policy: str = "least_loaded",
        max_task_redispatches: int = 1,
        poison_threshold: int = 2,
        worker_respawn_limit: int = 8,
        drain_timeout: float = 60.0,
        priority_aging_s: float = DEFAULT_AGING_S,
        placement_lookahead: int = 32,
        worker_debug: bool = False,
        launch_cmd: Optional[str] = None,
    ):
        super().__init__(label=label, provider=provider)
        self.address = address
        self.workers_per_node = workers_per_node
        self.prefetch_capacity = workers_per_node if prefetch_capacity is None else prefetch_capacity
        self.heartbeat_period = heartbeat_period
        self.heartbeat_threshold = heartbeat_threshold
        self.batch_size = batch_size
        self.poll_period = poll_period
        self.worker_mode = worker_mode
        self.internal_managers = internal_managers
        self.scheduling_policy = scheduling_policy
        self.max_task_redispatches = max_task_redispatches
        self.poison_threshold = poison_threshold
        self.worker_respawn_limit = worker_respawn_limit
        self.drain_timeout = drain_timeout
        self.priority_aging_s = priority_aging_s
        self.placement_lookahead = placement_lookahead
        self.worker_debug = worker_debug
        self.launch_cmd = launch_cmd or (
            "{python} -m repro.executors.htex.process_worker_pool "
            "--host {host} --port {port} --workers {workers_per_node} "
            "--prefetch {prefetch} --block-id {block_id} "
            "--heartbeat-period {heartbeat_period} --heartbeat-threshold {heartbeat_threshold} "
            "--worker-respawn-limit {worker_respawn_limit}"
            "{debug}"
        )

        self.interchange: Optional[Interchange] = None
        self._internal_manager_objs: List[Manager] = []
        self._tasks: Dict[int, cf.Future] = {}
        self._tasks_lock = threading.Lock()
        self._task_counter = 0
        self._outstanding = AtomicCounter()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        # Per-task resource-usage histograms, fed from the worker-side
        # ``resource`` record every outcome carries (see execute_task). The
        # DFK swapped its live registry in before start(), so these land on
        # /metrics; a bare executor records into the no-op registry.
        xlabels = {"executor": self.label}
        self._m_task_cpu = self.metrics.histogram(
            "repro_task_cpu_seconds",
            "Per-task worker CPU time, user+system (rusage)",
            labels=xlabels,
        )
        self._m_task_maxrss = self.metrics.histogram(
            "repro_task_maxrss_kb",
            "Worker peak resident set size observed at task completion (kB)",
            labels=xlabels, buckets=MAXRSS_BUCKETS_KB,
        )
        self.interchange = Interchange(
            result_callback=self._handle_result,
            host=self.address,
            heartbeat_period=self.heartbeat_period,
            heartbeat_threshold=self.heartbeat_threshold,
            batch_size=self.batch_size,
            poll_period=self.poll_period,
            scheduling_policy=self.scheduling_policy,
            max_task_redispatches=self.max_task_redispatches,
            poison_threshold=self.poison_threshold,
            block_drained_callback=self._on_block_drained,
            drain_timeout=self.drain_timeout,
            priority_aging_s=self.priority_aging_s,
            placement_lookahead=self.placement_lookahead,
            label=f"{self.label}-interchange",
            metrics=self.metrics,
        )
        self.interchange.start()
        self._started = True
        if self.provider is not None:
            if self.provider.init_blocks > 0:
                self.scale_out(self.provider.init_blocks)
            self.start_block_monitoring()
        else:
            self._start_internal_managers()

    def _start_internal_managers(self) -> None:
        assert self.interchange is not None
        for i in range(self.internal_managers):
            manager = Manager(
                interchange_host=self.interchange.host,
                interchange_port=self.interchange.port,
                worker_count=self.workers_per_node,
                prefetch_capacity=self.prefetch_capacity,
                block_id=f"internal-{i}",
                heartbeat_period=self.heartbeat_period,
                heartbeat_threshold=max(self.heartbeat_threshold * 4, 30.0),
                worker_mode="thread",
                worker_respawn_limit=self.worker_respawn_limit,
            )
            manager.start()
            self._internal_manager_objs.append(manager)

    def _launch_block_command(self, block_id: str) -> str:
        assert self.interchange is not None
        return self.launch_cmd.format(
            python=sys.executable,
            host=self.interchange.host,
            port=self.interchange.port,
            workers_per_node=self.workers_per_node,
            prefetch=self.prefetch_capacity,
            block_id=block_id,
            heartbeat_period=self.heartbeat_period,
            heartbeat_threshold=self.heartbeat_threshold,
            worker_respawn_limit=self.worker_respawn_limit,
            debug=" --debug" if self.worker_debug else "",
        )

    def shutdown(self, block: bool = True) -> None:
        self.stop_block_monitoring()
        for manager in self._internal_manager_objs:
            manager.shutdown()
        self._internal_manager_objs = []
        if self.provider is not None and self.blocks:
            try:
                self.provider.cancel(list(self.blocks.values()))
            except Exception:  # noqa: BLE001 - best-effort cleanup
                logger.exception("failed to cancel blocks during shutdown")
        if self.interchange is not None:
            self.interchange.stop()
        with self._tasks_lock:
            pending = [f for f in self._tasks.values() if not f.done()]
        for future in pending:
            future.cancel()
        self._started = False

    # ------------------------------------------------------------------
    # Submission and results
    # ------------------------------------------------------------------
    @property
    def supports_resource_specs(self) -> bool:
        """HTEX (and its EXEX subclass) honors cores/priority specs."""
        return True

    def _resolve_spec(self, resource_specification: Any) -> ResourceSpec:
        """Validate one task's resource spec against this executor's slots.

        A spec asking for more cores than one manager runs workers could
        never be placed, so it is rejected at submit time rather than left to
        starve in the pending queue. ``memory_mb`` is an advisory hint
        (recorded, not metered); ``walltime_s`` is enforced at the worker —
        a task still running past it is killed and fails with
        :class:`~repro.errors.TaskWalltimeExceeded` (not retried).
        """
        spec = ResourceSpec.from_user(resource_specification)
        if spec.cores > self.workers_per_node:
            raise ResourceSpecError(
                f"task asks for {spec.cores} cores but executor {self.label!r} runs "
                f"{self.workers_per_node} workers per node; no manager could ever fit it"
            )
        return spec

    def submit(self, func: Callable, resource_specification: Dict[str, Any], *args, **kwargs) -> cf.Future:
        if not self._started or self.interchange is None:
            raise RuntimeError(f"executor {self.label!r} has not been started")
        spec = self._resolve_spec(resource_specification)
        if self.bad_state_is_set:
            raise self.executor_exception or RuntimeError("executor is in a failed state")
        try:
            buffer = pack_apply_message(func, args, kwargs)
        except SerializationError:
            raise
        future: cf.Future = cf.Future()
        with self._tasks_lock:
            task_id = self._task_counter
            self._task_counter += 1
            self._tasks[task_id] = future
        self._track_outstanding(future)
        self.interchange.submit_task(
            task_id, buffer, priority=spec.priority, cores=spec.cores, walltime_s=spec.walltime_s
        )
        return future

    def submit_batch(self, requests: Sequence[SubmitRequest]) -> List[cf.Future]:
        """Submit many tasks in one call, handing the interchange one batch.

        Serialization happens here, on the DFK thread that made the task
        ready, and per-request failures (resource specs, pickling
        errors) surface as exceptions *on that request's future* so one bad
        task never poisons the rest of the batch.
        """
        if not self._started or self.interchange is None:
            raise RuntimeError(f"executor {self.label!r} has not been started")
        futures: List[cf.Future] = []
        items: List[Dict[str, Any]] = []
        for request in requests:
            func, resource_specification, args, kwargs = request[:4]
            trace = request[4] if len(request) > 4 else None
            future: cf.Future = cf.Future()
            futures.append(future)
            if self.bad_state_is_set:
                future.set_exception(self.executor_exception or RuntimeError("executor is in a failed state"))
                continue
            try:
                spec = self._resolve_spec(resource_specification)
                buffer = pack_apply_message(func, args, kwargs)
            except Exception as exc:  # noqa: BLE001 - per-task spec/serialization failure
                future.set_exception(exc)
                continue
            with self._tasks_lock:
                task_id = self._task_counter
                self._task_counter += 1
                self._tasks[task_id] = future
            self._track_outstanding(future)
            items.append(
                msg.task_item(
                    task_id,
                    buffer,
                    priority=spec.priority,
                    cores=spec.cores,
                    walltime_s=spec.walltime_s,
                    trace=trace,
                )
            )
        if items:
            self.interchange.submit_tasks(items)
        return futures

    def _handle_result(self, item: Dict[str, Any]) -> None:
        """Callback invoked by the interchange for every completed task."""
        task_id = item["task_id"]
        with self._tasks_lock:
            future = self._tasks.pop(task_id, None)
        if future is None or future.done():
            return
        # Which manager ran (or lost) the task; the DFK forwards it into the
        # TASK_STATE monitoring row so placement is auditable per task. The
        # trace rides along too (same dict the DFK holds, now carrying the
        # worker-side span stamps the interchange merged in).
        future.placed_manager = item.get("manager")  # type: ignore[attr-defined]
        future.trace = item.get("trace")  # type: ignore[attr-defined]
        if "exception" in item and "buffer" not in item:
            future.set_exception(item["exception"])
            return
        try:
            outcome = deserialize(item["buffer"])
        except Exception as exc:  # noqa: BLE001
            future.set_exception(exc)
            return
        self._observe_resource(outcome.get("resource"))
        if "exception" in outcome:
            wrapper = outcome["exception"]
            future.set_exception(wrapper.e_value)
        else:
            future.set_result(outcome.get("result"))

    def _observe_resource(self, record: Optional[Dict[str, Any]]) -> None:
        """Fold one task's worker-side rusage record into the histograms."""
        if not record:
            return
        try:
            cpu = (float(record.get("psutil_process_time_user") or 0.0)
                   + float(record.get("psutil_process_time_system") or 0.0))
            self._m_task_cpu.observe(cpu)
            rss = record.get("psutil_process_memory_resident_kb")
            if rss is not None:
                self._m_task_maxrss.observe(float(rss))
        except (TypeError, ValueError):
            pass  # malformed record from an old worker: not worth a crash

    # ------------------------------------------------------------------
    # Block lifecycle (scale-in by draining)
    # ------------------------------------------------------------------
    def update_block_activity(self) -> bool:
        """Feed the interchange's per-manager report into the block registry.

        Gives the strategy real per-block busy/idle data: a block is IDLE only
        when its managers are connected and hold no in-flight tasks, so
        scale-in can target specific blocks without touching busy ones.
        """
        if self.interchange is None or self.provider is None:
            return False
        report = self.interchange.block_report()
        for block_id in list(self.blocks):
            activity = report.get(block_id)
            if activity is None:
                # No manager connected. For a booting block the provider
                # polls cover it; but if managers HAD reported and are now
                # gone (crashed while the provider job survives), the block
                # can do no work — record it idle so it stays reclaimable.
                record = self.block_registry.get(block_id)
                if record is not None and record.managers > 0:
                    self.block_registry.observe_managers_lost(block_id)
                continue
            self.block_registry.observe_activity(
                block_id, activity["managers"], activity["outstanding"]
            )
        return True

    def _terminate_blocks(self, block_ids, reason: str = "") -> None:
        for block_id in block_ids:
            self._terminate_block(block_id, reason=reason)

    def _terminate_block(self, block_id: str, reason: str = "") -> None:
        """Retire one block gracefully: drain its managers, then cancel.

        The interchange immediately stops dispatching to the block's managers;
        once their in-flight tasks settle it shuts them down and invokes
        :meth:`_on_block_drained`, which cancels the provider job. A block with
        no connected managers (still booting, or already dead) is cancelled
        outright — there is nothing to drain.
        """
        record = self.block_registry.get(block_id)
        if record is not None and record.state is BlockState.DRAINING:
            return  # drain already in progress; terminating again would kill its in-flight tasks
        if self.interchange is None:
            self._cancel_block_job(block_id, reason=reason or "scale-in")
            return
        self.block_registry.mark_draining(block_id, reason=reason or "scale-in")
        managers_draining = self.interchange.drain_block(block_id)
        if managers_draining == 0:
            self._cancel_block_job(block_id, reason=reason or "scale-in (no managers)")

    def _on_block_drained(self, block_id: str) -> None:
        """Interchange callback: the block's managers settled and shut down."""
        self._cancel_block_job(block_id, reason="drained")

    def _cancel_block_job(self, block_id: str, reason: str) -> None:
        job_id = self.blocks.pop(block_id, None)
        if job_id is not None:
            self.block_mapping.pop(job_id, None)
            if self.provider is not None:
                try:
                    self.provider.cancel([job_id])
                except Exception:  # noqa: BLE001 - the job may already have exited
                    logger.exception("failed to cancel job %s for block %s", job_id, block_id)
        self.block_registry.mark_terminated(block_id, reason=reason)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _track_outstanding(self, future: cf.Future) -> None:
        self._outstanding.increment()
        future.add_done_callback(lambda _f: self._outstanding.decrement())

    @property
    def outstanding(self) -> int:
        # An exact counter fed by future done-callbacks: the strategy timer
        # reads this every round, so it must not scan the task table.
        return self._outstanding.value

    @property
    def connected_workers(self) -> int:
        if self.interchange is None:
            return 0
        return self.interchange.connected_worker_count

    @property
    def connected_managers(self) -> List[Dict[str, Any]]:
        if self.interchange is None:
            return []
        return self.interchange.connected_managers()

    @property
    def workers_per_block(self) -> int:
        nodes = self.provider.nodes_per_block if self.provider is not None else 1
        return self.workers_per_node * nodes
