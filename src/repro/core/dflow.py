"""The DataFlowKernel (DFK): Parsl's execution-management engine (§4.1).

The DFK constructs and orchestrates the dynamic task dependency graph:

* every App invocation registers a task (a node); futures passed between
  Apps become edges, encoded as callbacks on the dependency futures, so the
  DFK is event-driven and the cost of executing a graph with *n* tasks and
  *e* edges is O(n + e);
* once all of a task's dependencies resolve successfully the task is handed
  to its executor's ``submit_batch`` on the thread that made it ready (the
  app caller, the thread that resolved its last dependency, or a retry
  timer); the interchange coalesces ready tasks into per-manager batches;
* executor choice goes through the scheduling subsystem's
  :class:`~repro.scheduling.router.ExecutorRouter`: label match (the spec's
  affinity, else the decorator's ``executors=`` hint) → load-aware spillover
  → the ``Config.router_backpressure`` cap; per-task
  :class:`~repro.scheduling.spec.ResourceSpec` objects (cores, memory and
  walltime hints, priority) ride along to the executor;
* failures are retried up to ``Config.retries`` times; exhausted retries (or
  failed dependencies) surface through the AppFuture as wrapped exceptions;
* memoization and checkpointing short-circuit tasks whose function body and
  arguments hash to a previously recorded execution;
* remote Files appearing in ``inputs``/``outputs`` cause transparent staging
  tasks to be injected into the graph ahead of / behind the task;
* task state transitions and (optionally) per-task resource usage are sent
  to the monitoring hub;
* an elasticity strategy runs on a timer, growing and shrinking executor
  blocks to match the outstanding load.

Per-task overhead is O(1) in time and resident memory: completion tracking
is counter-based (no table scans — see ``_set_task_status``), the kernel
keeps no task table, so a finished task is freed once nothing needs it (a
held AppFuture keeps only its own record, released of its callable,
arguments and dependencies), and ``task_exit``/``periodic`` checkpoints
append only the delta since the last write.
"""

from __future__ import annotations

import atexit
import logging
import os
import random
import threading
import time
from concurrent.futures import CancelledError, Future
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.config import Config
from repro.core import retry as retry_mod
from repro.core.checkpoint import append_checkpoint, load_checkpoints, write_checkpoint
from repro.core.futures import AppFuture, DataFuture
from repro.core.memoization import Memoizer, _MemoHit
from repro.core.states import FINAL_STATES, States
from repro.core.strategy import Strategy
from repro.core.taskrecord import TaskRecord
from repro.data.data_manager import DataManager
from repro.data.files import File
from repro.errors import (
    DataFlowKernelClosedError,
    DependencyError,
    JoinError,
)
from repro.monitoring.messages import MessageType
from repro.observability.metrics import NULL_REGISTRY, Counter, MetricsRegistry
from repro.observability.trace import flush_spans, new_trace, next_attempt, stamp
from repro.scheduling.router import ExecutorRouter
from repro.scheduling.spec import ResourceSpec, ResourceSpecLike
from repro.utils.ids import make_uid
from repro.utils.timers import RepeatedTimer

logger = logging.getLogger(__name__)


class DataFlowKernel:
    """Manage the parallel execution of a Parsl-style program."""

    def __init__(self, config: Optional[Config] = None):
        self.config = config or Config()
        #: Failure classification + backoff (Config builds a default from
        #: retry_backoff_s when no explicit policy is given).
        self.retry_policy = self.config.retry_policy
        self.run_id = make_uid("run")
        timestamp = time.strftime("%Y%m%d-%H%M%S")
        self.run_dir = os.path.join(self.config.run_dir, f"{timestamp}-{self.run_id[-6:]}")
        os.makedirs(self.run_dir, exist_ok=True)

        # Monitoring -----------------------------------------------------
        self.monitoring = self.config.monitoring
        if self.monitoring is not None:
            self.monitoring.start()
            self.monitoring.send(
                MessageType.WORKFLOW_INFO,
                {"run_id": self.run_id, "run_dir": self.run_dir, "started_at": time.time()},
            )

        # Live metrics ---------------------------------------------------
        # One registry per kernel; executors share it (the interchange
        # registers callback gauges over its existing plain-int counters).
        # With metrics off the shared null registry makes every record call
        # a no-op, so instrument sites never branch.
        if self.config.metrics_enabled:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY
        self._m_submitted = self.metrics.counter(
            "repro_dfk_tasks_submitted_total", "Tasks registered with the DataFlowKernel"
        )
        self._m_retries = self.metrics.counter(
            "repro_dfk_task_retries_total", "Task attempts re-enqueued by the retry policy"
        )
        self._m_duration = self.metrics.histogram(
            "repro_dfk_task_duration_seconds", "Submit-to-final-state latency per task"
        )
        self.metrics.gauge(
            "repro_dfk_outstanding_tasks",
            "Submitted tasks not yet in a final state",
            callback=self.outstanding_tasks,
        )
        #: Per-final-state children of repro_dfk_tasks_completed_total, cached
        #: so the completion path never touches the registry lock.
        self._m_completed: Dict[str, Counter] = {}

        # Executors ------------------------------------------------------
        self.executors: Dict[str, Any] = {}
        for executor in self.config.executors:
            executor.run_dir = self.run_dir
            # Wire monitoring before start() so block state changes made
            # while bringing up init_blocks are captured as BLOCK_INFO.
            executor.monitoring_radio = self.monitoring
            executor.metrics = self.metrics
            executor.start()
            self.executors[executor.label] = executor

        # Data management --------------------------------------------------
        self.data_manager = DataManager(dfk=self, working_dir=os.path.join(self.run_dir, "staging"))
        self.data_manager.ensure_worker_visibility()

        # Memoization / checkpointing -------------------------------------
        seed_table = load_checkpoints(self.config.checkpoint_files)
        self.memoizer = Memoizer(
            enabled=self.config.app_cache,
            seed_table=seed_table,
            # Dirty-delta tracking only pays off for modes that write while
            # the run is live; with checkpointing off it would just be a
            # second, never-drained copy of the table.
            track_dirty=self.config.checkpoint_mode in ("task_exit", "periodic", "manual"),
        )
        self._checkpoint_lock = threading.Lock()
        self._checkpoint_timer: Optional[RepeatedTimer] = None
        if self.config.checkpoint_mode == "periodic":
            self._checkpoint_timer = RepeatedTimer(
                self.config.checkpoint_period,
                lambda: self.checkpoint(incremental=True),
                name="checkpoint-timer",
            )
            self._checkpoint_timer.start()

        # Elasticity strategy ----------------------------------------------
        # "none" never scales, so it gets no timer thread to wake for nothing.
        self.strategy = Strategy(self.config.strategy, max_idletime=self.config.max_idletime)
        self._strategy_timer: Optional[RepeatedTimer] = None
        if self.config.strategy != "none":
            self._strategy_timer = RepeatedTimer(
                self.config.strategy_period,
                lambda: self.strategy.strategize(list(self.executors.values())),
                name="strategy-timer",
            )
            self._strategy_timer.start()

        # Task ids -----------------------------------------------------------
        # No task table: a record lives as long as a callback, a retry timer
        # or the caller's AppFuture holds it.
        self._task_counter = 0
        self._task_counter_lock = threading.Lock()
        self._cleanup_called = False
        self._rng = random.Random()

        # Multi-executor routing (label match → load-aware spillover →
        # backpressure cap) lives in the scheduling subsystem.
        self.router = ExecutorRouter(
            self.executors, rng=self._rng, backpressure=self.config.router_backpressure
        )

        # Pending retry-backoff timers: timer -> (task, args, kwargs). Tracked
        # so cleanup() can cancel them and fail their tasks fast instead of
        # letting a late timer launch onto a shut-down executor.
        self._retry_timers: Dict[threading.Timer, Tuple[TaskRecord, tuple, dict]] = {}
        self._retry_timers_lock = threading.Lock()

        # Completion fan-out hooks -----------------------------------------
        # Called once per task when it reaches a final state, *after* its
        # AppFuture has resolved. The gateway service uses this to stream
        # results to remote tenants without polling.
        self._completion_hooks: List[Any] = []
        self._completion_hooks_lock = threading.Lock()

        # Event-driven completion tracking ---------------------------------
        # Per-state counters and the outstanding (non-final) count are kept
        # exact at transition time under this condition, so task_summary(),
        # outstanding_tasks(), and wait_for_current_tasks() are O(1) reads
        # (the latter waking on notification) instead of O(n) table scans.
        self._completion_cv = threading.Condition()
        self._state_counts: Dict[States, int] = {state: 0 for state in States}
        self._outstanding_count = 0

        atexit.register(self._atexit_cleanup)
        logger.info("DataFlowKernel %s started with executors %s", self.run_id, list(self.executors))

    # ==================================================================
    # Submission
    # ==================================================================
    def submit(
        self,
        func,
        app_args: Sequence[Any] = (),
        app_kwargs: Optional[Dict[str, Any]] = None,
        executors: Union[str, Sequence[str]] = "all",
        cache: bool = True,
        func_name: Optional[str] = None,
        join: bool = False,
        ignore_for_cache: Optional[Sequence[str]] = None,
        is_staging: bool = False,
        resource_spec: ResourceSpecLike = None,
        priority: Optional[int] = None,
        tag: Optional[str] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> AppFuture:
        """Register one task with the dataflow graph and return its AppFuture.

        ``resource_spec`` (a mapping or :class:`ResourceSpec`) declares what
        the task asks of the scheduling layer; ``priority`` is a convenience
        override for its ``priority`` field. A *malformed* spec (unknown
        keys, bad types) raises here, in the caller's stack; a well-formed
        spec the chosen executor cannot satisfy (e.g. more cores than its
        managers run) surfaces through the AppFuture as a
        :class:`~repro.errors.ResourceSpecError` without burning retries —
        the failure is deterministic, so the retry machinery skips it.

        ``tag`` is an opaque submitter label (the gateway service sets the
        tenant name): it rides on the task record, stays after the task
        finishes, and lands in every TASK_STATE monitoring row.

        ``trace`` adopts an existing trace context (the gateway mints one at
        admission so the waterfall covers the fair-share wait); when None and
        ``Config.trace_enabled``, a fresh context is minted when the task is
        first handed to an executor and stamped ``submitted`` with this
        call's time. A task that never reaches an executor (a memo hit, a
        failed dependency, a join app's own record) gets no trace.
        """
        if self._cleanup_called:
            raise DataFlowKernelClosedError("cannot submit to a DataFlowKernel after cleanup()")
        app_kwargs = dict(app_kwargs or {})
        func_name = func_name or getattr(func, "__name__", "app")

        spec = ResourceSpec.from_user(resource_spec)
        if priority is not None:
            # with_priority rebuilds the (frozen) spec, so the replacement
            # value goes through the same validation as a spec-borne one —
            # priority=9.7 raises ResourceSpecError rather than truncating.
            spec = spec.with_priority(priority)

        with self._task_counter_lock:
            task_id = self._task_counter
            self._task_counter += 1

        if trace is not None:
            # Adopted from the gateway: "submitted" is already stamped there.
            trace["task"] = task_id
        self._m_submitted.inc()

        executor_label = self._choose_executor(executors, join, spec)

        task = TaskRecord(
            id=task_id,
            func=func,
            func_name=func_name,
            args=tuple(app_args),
            kwargs=app_kwargs,
            executor=executor_label,
            status=States.pending,
            memoize=cache,
            join=join,
            is_staging=is_staging,
            resource_specification=spec.to_wire(),
            priority=spec.priority,
            tag=tag,
            trace=trace,
        )
        app_fu = AppFuture(task_record=task)
        task.app_fu = app_fu
        with self._completion_cv:
            self._state_counts[States.pending] += 1
            self._outstanding_count += 1

        # Declared outputs become DataFutures on the AppFuture.
        outputs = app_kwargs.get("outputs", [])
        normalized_outputs = []
        for out in outputs:
            out_file = out if isinstance(out, File) else File(str(out))
            normalized_outputs.append(out_file)
            app_fu.add_output(DataFuture(app_fu, out_file, tid=task_id))
        if normalized_outputs:
            app_kwargs["outputs"] = normalized_outputs
            task.outputs = normalized_outputs

        # Remote input files become staging dependencies.
        self._inject_staging(task)

        # Dependencies: every future appearing in args/kwargs.
        task.depends = self._gather_dependencies(task.args, task.kwargs)
        self._send_task_state(task, States.pending)

        self._register_dependency_callbacks(task)
        self.launch_if_ready(task)
        return app_fu

    # ------------------------------------------------------------------
    def _choose_executor(
        self,
        executors: Union[str, Sequence[str]],
        join: bool,
        spec: Optional[ResourceSpec] = None,
    ) -> str:
        """Route a task to an executor label (see :class:`ExecutorRouter`)."""
        return self.router.route(executors, spec=spec, join=join)

    # ------------------------------------------------------------------
    def _inject_staging(self, task: TaskRecord) -> None:
        """Replace remote Files in ``inputs`` (and positional args) with staging futures."""
        kwargs = task.kwargs
        inputs = kwargs.get("inputs")
        if isinstance(inputs, (list, tuple)):
            staged_inputs = []
            for item in inputs:
                if isinstance(item, File) and self.data_manager.requires_staging(item):
                    executor_label = None if task.executor in ("all", "_dfk_internal") else task.executor
                    staged_inputs.append(self.data_manager.stage_in(item, executor_label))
                else:
                    staged_inputs.append(item)
            kwargs["inputs"] = staged_inputs
        new_args = []
        for item in task.args:
            if isinstance(item, File) and self.data_manager.requires_staging(item):
                executor_label = None if task.executor in ("all", "_dfk_internal") else task.executor
                new_args.append(self.data_manager.stage_in(item, executor_label))
            else:
                new_args.append(item)
        task.args = tuple(new_args)

    # ------------------------------------------------------------------
    @staticmethod
    def _iter_values(args: Sequence[Any], kwargs: Dict[str, Any]):
        for value in args:
            yield value
            if isinstance(value, (list, tuple)):
                yield from value
        for value in kwargs.values():
            yield value
            if isinstance(value, (list, tuple)):
                yield from value

    def _gather_dependencies(self, args: Sequence[Any], kwargs: Dict[str, Any]) -> List[Future]:
        return [value for value in self._iter_values(args, kwargs) if isinstance(value, Future)]

    def _register_dependency_callbacks(self, task: TaskRecord) -> None:
        for dep in task.depends:
            if not dep.done():
                dep.add_done_callback(lambda _fut, t=task: self.launch_if_ready(t))

    # ------------------------------------------------------------------
    def _set_task_status(self, task: TaskRecord, new_state: States) -> None:
        """The single place task states change: keeps the per-state counters
        and the outstanding count exact, and wakes ``wait_for_current_tasks``
        waiters when the last outstanding task reaches a final state."""
        with self._completion_cv:
            old_state = task.status
            if old_state == new_state:
                return
            task.status = new_state
            self._state_counts[old_state] -= 1
            self._state_counts[new_state] += 1
            if old_state not in FINAL_STATES and new_state in FINAL_STATES:
                self._outstanding_count -= 1
                if self._outstanding_count == 0:
                    self._completion_cv.notify_all()
            elif old_state in FINAL_STATES and new_state not in FINAL_STATES:
                self._outstanding_count += 1

    # ==================================================================
    # Launching
    # ==================================================================
    def launch_if_ready(self, task: TaskRecord) -> None:
        """Launch the task if every dependency has resolved (edge-triggered)."""
        if task.status != States.pending:
            return
        if any(not dep.done() for dep in task.depends):
            return
        with task.task_launch_lock:
            if task.status != States.pending:
                return
            failed_deps = [
                (dep.exception(), getattr(dep, "tid", None))
                for dep in task.depends
                if dep.exception() is not None
            ]
            if failed_deps:
                self._finish_task(task, States.dep_fail, exc=DependencyError(failed_deps, task.id))
                return
            # All dependencies succeeded: substitute results for futures.
            args, kwargs = self._sanitize_inputs(task)
            self._launch_task(task, args, kwargs)

    def _sanitize_inputs(self, task: TaskRecord):
        def resolve(value):
            if isinstance(value, Future):
                return value.result()
            if isinstance(value, list):
                return [resolve(v) for v in value]
            if isinstance(value, tuple):
                return tuple(resolve(v) for v in value)
            return value

        args = tuple(resolve(v) for v in task.args)
        kwargs = {k: resolve(v) for k, v in task.kwargs.items()}
        return args, kwargs

    def _launch_task(self, task: TaskRecord, args, kwargs) -> None:
        # Memoization / checkpoint lookup, before the executor sees the task.
        memo = self.memoizer.check(task)
        if isinstance(memo, _MemoHit):
            task.from_memo = True
            self._finish_task(task, States.memo_done, memo.result)
            return

        if task.join:
            self._launch_join_task(task, args, kwargs)
            return

        self._submit_to_executor(task, args, kwargs)

    def _submit_to_executor(self, task: TaskRecord, args, kwargs) -> None:
        """Mark the task launched and hand it to its executor on this thread."""
        if self._cleanup_called:
            # The kernel is (or has finished) cleaning up — e.g. a retry
            # backoff timer or a dependency resolved after shutdown. Fail
            # rather than submit to a stopped executor, so the AppFuture
            # always resolves.
            self._finish_task(
                task, States.failed, exc=CancelledError(f"task {task.id} not dispatched: DataFlowKernel is shut down")
            )
            return
        self._set_task_status(task, States.launched)
        self._send_task_state(task, States.launched)
        if task.trace is None and self.config.trace_enabled:
            # Minted here, not in submit(): a task that never launches has
            # no hops to trace, and a memo hit skips the cost entirely.
            task.trace = new_trace(task.id)
            stamp(task.trace, "submitted", task.time_invoked)
        stamp(task.trace, "queued")
        executor = self.executors.get(task.executor)
        if executor is None or (executor.bad_state_is_set and task.fail_count > 0):
            # Unresolvable label, or a retry whose executor has gone bad:
            # re-route (the spec's affinity still applies). A first launch
            # keeps its requested placement even on a bad executor — the
            # submission failure flows through the normal retry path,
            # which re-routes then.
            task.executor = self._choose_executor(
                "all", join=False, spec=ResourceSpec.from_wire(task.resource_specification)
            )
            executor = self.executors[task.executor]
        stamp(task.trace, "routed")
        try:
            # submit_batch carries the trace context and turns a per-task
            # submission error into a failed future.
            (exec_fu,) = executor.submit_batch(
                [(task.func, task.resource_specification, args, kwargs, task.trace)]
            )
        except Exception as exc:  # noqa: BLE001 - executor-wide submission failure
            self._handle_failure(task, exc, args, kwargs)
            return
        task.exec_fu = exec_fu
        exec_fu.add_done_callback(lambda fut: self._handle_exec_update(task, fut, args, kwargs))

    # ------------------------------------------------------------------
    def _launch_join_task(self, task: TaskRecord, args, kwargs) -> None:
        """Run a join app's body locally; its result must be a future (or list of futures)."""
        self._set_task_status(task, States.joining)
        self._send_task_state(task, States.joining)
        try:
            inner = task.func(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001
            self._finish_task(task, States.failed, exc=exc)
            return
        futures: List[Future]
        if isinstance(inner, Future):
            futures = [inner]
            scalar = True
        elif isinstance(inner, (list, tuple)) and all(isinstance(f, Future) for f in inner) and inner:
            futures = list(inner)
            scalar = False
        else:
            self._finish_task(
                task, States.failed, exc=JoinError(f"join app {task.func_name} must return a future or non-empty list of futures")
            )
            return
        task.joins = inner
        remaining = {"count": len(futures)}
        lock = threading.Lock()

        def _joined(_fut):
            with lock:
                remaining["count"] -= 1
                if remaining["count"] > 0:
                    return
            errors = [f.exception() for f in futures if f.exception() is not None]
            if errors:
                self._finish_task(task, States.failed, exc=errors[0])
            else:
                result = futures[0].result() if scalar else [f.result() for f in futures]
                self._finish_task(task, States.exec_done, result)

        for fut in futures:
            fut.add_done_callback(_joined)

    # ==================================================================
    # Completion handling
    # ==================================================================
    def _handle_exec_update(self, task: TaskRecord, exec_fu: Future, args, kwargs) -> None:
        placed = getattr(exec_fu, "placed_manager", None)
        if placed is not None:
            task.placed_manager = placed
        if exec_fu.cancelled():
            # Executor shutdown cancelled the task (Future.exception() would
            # raise here, not return). Cancellation is deliberate — fail the
            # task without retrying so its AppFuture always resolves.
            self._finish_task(task, States.failed, exc=CancelledError(f"task {task.id} cancelled at executor shutdown"))
            return
        exc = exec_fu.exception()
        if exc is not None:
            self._handle_failure(task, exc, args, kwargs)
            return
        result = exec_fu.result()
        self.memoizer.update(task, result)
        if self.config.checkpoint_mode in ("task_exit",):
            try:
                # O(delta): append only the entries recorded since the last
                # checkpoint write, never the whole table.
                self.checkpoint(incremental=True)
            except Exception:  # noqa: BLE001 - the entries stay dirty for the
                # next append/snapshot; a checkpoint hiccup must not stop this
                # task's completion from being delivered.
                logger.exception("task_exit checkpoint failed for task %s", task.id)
        self._finish_task(task, States.exec_done, result)
        self._stage_outputs(task)

    def _handle_failure(self, task: TaskRecord, exc: BaseException, args, kwargs) -> None:
        task.fail_count += 1
        task.fail_history.append(repr(exc))
        policy = self.retry_policy
        if policy.classify(exc) == retry_mod.FAIL_FAST:
            # Deterministic failures — a quarantined poison task, a spec no
            # manager can ever satisfy, a feature the executor categorically
            # rejects, a task killed for exceeding its own walltime spec —
            # would re-fail identically N times; retrying with backoff only
            # delays the same answer. Fail fast instead.
            self._finish_task(task, States.failed, exc=exc)
            return
        if task.fail_count <= self.config.retries:
            delay = policy.delay_for(exc, task.fail_count)
            logger.info(
                "task %s (%s) failed (attempt %d); retrying in %.2fs",
                task.id, task.func_name, task.fail_count, delay,
            )
            self._set_task_status(task, States.retry)
            self._send_task_state(task, States.retry)
            self._m_retries.inc()
            # Close out this attempt's span rows now, so the retry's rows
            # (same trace id, attempt+1) form their own waterfall.
            flush_spans(task.trace, self.monitoring, self.run_id, task.id)
            next_attempt(task.trace)
            if delay > 0:
                # Schedule the relaunch instead of sleeping: this callback
                # may run on an executor's result thread, and a sleep there
                # would stall every other result it delivers. The timer is
                # tracked so cleanup() can cancel it and fail the task fast
                # instead of leaving the AppFuture waiting out the backoff.
                timer = threading.Timer(delay, lambda: self._fire_retry_timer(timer))
                timer.daemon = True
                with self._retry_timers_lock:
                    self._retry_timers[timer] = (task, args, kwargs)
                timer.start()
            else:
                self._submit_to_executor(task, args, kwargs)
        else:
            self._finish_task(task, States.failed, exc=exc)

    def _fire_retry_timer(self, timer: threading.Timer) -> None:
        """A backoff timer elapsed: claim its entry and relaunch the task.

        The pop is the ownership handshake with cleanup(): whichever side
        removes the entry settles the task (here by relaunching — which
        itself fail-fasts if the kernel has shut down meanwhile — and in
        cleanup() by cancelling and failing), so the AppFuture resolves
        exactly once either way.
        """
        with self._retry_timers_lock:
            entry = self._retry_timers.pop(timer, None)
        if entry is None:
            return  # cleanup() claimed (cancelled + failed) this retry
        task, args, kwargs = entry
        self._submit_to_executor(task, args, kwargs)

    def _finish_task(
        self, task: TaskRecord, state: States, result: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        """Move a task to its final ``state``, resolving its AppFuture with
        ``exc`` if given, else ``result``; then run the completion hooks and
        release what the record no longer needs (hooks may still read
        ``task.args``)."""
        task.time_returned = time.time()
        self._set_task_status(task, state)
        self._send_task_state(task, state)
        self._record_final(task, state)
        if exc is not None:
            logger.info("task %s (%s) marked %s: %r", task.id, task.func_name, state.name, exc)
        if task.app_fu is not None and not task.app_fu.done():
            if exc is not None:
                task.app_fu.set_exception(exc)
            else:
                task.app_fu.set_result(result)
        self._run_completion_hooks(task, state)
        task.release()

    def _record_final(self, task: TaskRecord, state: States) -> None:
        """Observability at a task's final transition: spans + metrics.

        Runs before the AppFuture resolves and before completion hooks, so
        by the time the gateway's hook stamps ``delivered`` every earlier
        span row is already flushed and the metrics reflect this task.
        """
        stamp(task.trace, "result_committed")
        flush_spans(task.trace, self.monitoring, self.run_id, task.id)
        counter = self._m_completed.get(state.name)
        if counter is None:
            counter = self.metrics.counter(
                "repro_dfk_tasks_completed_total",
                "Tasks reaching a final state, by state",
                labels={"state": state.name},
            )
            self._m_completed[state.name] = counter
        counter.inc()
        if task.time_returned is not None:
            self._m_duration.observe(task.time_returned - task.time_invoked)

    # ------------------------------------------------------------------
    # Completion fan-out hooks
    # ------------------------------------------------------------------
    def add_completion_hook(self, hook) -> None:
        """Register ``hook(task_record, final_state)`` to run once per task.

        Hooks fire after the task's AppFuture has resolved (so
        ``task.app_fu.result()`` / ``.exception()`` never block) and before
        the record releases its callable and arguments, so ``task.args`` is
        still readable. They run on the completing thread — keep them short
        or hand off to a queue. A raising hook is logged, never fatal.
        """
        with self._completion_hooks_lock:
            self._completion_hooks.append(hook)

    def remove_completion_hook(self, hook) -> None:
        with self._completion_hooks_lock:
            try:
                self._completion_hooks.remove(hook)
            except ValueError:
                pass

    def _run_completion_hooks(self, task: TaskRecord, state: States) -> None:
        with self._completion_hooks_lock:
            hooks = list(self._completion_hooks)
        for hook in hooks:
            try:
                hook(task, state)
            except Exception:  # noqa: BLE001 - a hook must not break completion
                logger.exception("completion hook failed for task %s", task.id)

    def _stage_outputs(self, task: TaskRecord) -> None:
        """Publish remote-scheme output files after a successful task."""
        for out_file in task.outputs:
            if isinstance(out_file, File) and out_file.is_remote():
                local_candidate = out_file.local_path or os.path.join(
                    self.data_manager.working_dir, out_file.filename
                )
                if os.path.exists(local_candidate):
                    out_file.local_path = local_candidate
                    try:
                        self.data_manager.stage_out(out_file, local_candidate, None)
                    except Exception:  # noqa: BLE001 - stage-out failures are logged, not fatal
                        logger.exception("stage-out failed for %s", out_file.url)

    # ------------------------------------------------------------------
    def _send_task_state(self, task: TaskRecord, state: States) -> None:
        if self.monitoring is None:
            return
        self.monitoring.send(
            MessageType.TASK_STATE,
            {
                "run_id": self.run_id,
                "task_id": task.id,
                "state": state.name,
                "func_name": task.func_name,
                "executor": task.executor,
                "fail_count": task.fail_count,
                "priority": task.priority,
                "manager": task.placed_manager,
                "tag": task.tag,
            },
        )

    # ==================================================================
    # Checkpointing
    # ==================================================================
    def checkpoint(self, incremental: bool = False) -> Optional[str]:
        """Write the memoization table to the run's checkpoint files.

        ``incremental=True`` (used by the ``task_exit`` and ``periodic``
        modes) appends only the entries recorded since the last write to the
        delta log — O(delta) bytes per call. The default writes a full
        atomic snapshot, which supersedes and clears the delta log.
        """
        if self.config.checkpoint_mode is None and not self.memoizer.enabled:
            return None
        with self._checkpoint_lock:
            # Both paths drain the dirty delta first and put it back if the
            # write fails, so a transient failure (disk full, permissions)
            # never silently drops entries from future checkpoints.
            delta = self.memoizer.checkpoint_delta()
            try:
                if incremental:
                    return append_checkpoint(self.run_dir, delta)
                # The full snapshot (taken after the drain, so it covers every
                # drained entry) supersedes the delta log.
                return write_checkpoint(self.run_dir, self.memoizer.table_snapshot())
            except Exception:
                self.memoizer.restore_delta(delta)
                raise

    # ==================================================================
    # Introspection / lifecycle
    # ==================================================================
    def task_summary(self) -> Dict[str, int]:
        """Count of tasks per state (useful in notebooks and tests).

        O(states), not O(tasks): read from the transition-time counters.
        """
        with self._completion_cv:
            return {state.name: count for state, count in self._state_counts.items() if count}

    def outstanding_tasks(self) -> int:
        """Number of submitted tasks not yet in a final state — an O(1) read."""
        with self._completion_cv:
            return self._outstanding_count

    def wait_for_current_tasks(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted task reaches a final state.

        Event-driven: sleeps on the completion condition and is woken by the
        state transition that drops the outstanding count to zero — no
        polling loop, no O(n) scans.
        """
        with self._completion_cv:
            return self._completion_cv.wait_for(
                lambda: self._outstanding_count == 0, timeout=timeout
            )

    def cleanup(self) -> None:
        """Shut down executors, timers, monitoring, and write a final checkpoint."""
        if self._cleanup_called:
            return
        self._cleanup_called = True
        # The exit hook is this kernel's last strong reference from outside:
        # drop it, or every kernel a process creates stays alive until exit.
        atexit.unregister(self._atexit_cleanup)
        # Stop the elasticity engine FIRST — close() joins the timer thread,
        # so no strategize round (and no scale_out) can race the executor
        # shutdowns below and leak freshly provisioned blocks.
        if self._strategy_timer is not None:
            self._strategy_timer.close()
        # Pending retry-backoff timers must not outlive the kernel: cancel
        # each and fail its task fast so the AppFuture resolves now instead
        # of after its backoff. The lock-held pop hands ownership to
        # exactly one side (see _fire_retry_timer).
        with self._retry_timers_lock:
            pending_retries = list(self._retry_timers.items())
            self._retry_timers.clear()
        for timer, (task, _args, _kwargs) in pending_retries:
            timer.cancel()
            self._finish_task(
                task,
                States.failed,
                exc=CancelledError(f"task {task.id} retry abandoned: DataFlowKernel is shut down"),
            )
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.close()
        if self.config.checkpoint_mode in ("dfk_exit", "periodic", "task_exit"):
            try:
                self.checkpoint()
            except Exception:  # noqa: BLE001
                logger.exception("final checkpoint failed")
        for executor in self.executors.values():
            try:
                executor.shutdown()
            except Exception:  # noqa: BLE001
                logger.exception("executor %s failed to shut down", executor.label)
        if self.monitoring is not None:
            self.monitoring.send(
                MessageType.WORKFLOW_INFO,
                {"run_id": self.run_id, "completed_at": time.time(), "tasks": self._task_counter},
            )
            self.monitoring.close()
        logger.info("DataFlowKernel %s cleaned up", self.run_id)

    def _atexit_cleanup(self) -> None:
        try:
            self.cleanup()
        except Exception:  # noqa: BLE001 - interpreter is exiting
            pass

    def __enter__(self) -> "DataFlowKernel":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


class DataFlowKernelLoader:
    """Process-wide access to 'the' DataFlowKernel, as used by the decorators."""

    _dfk: Optional[DataFlowKernel] = None

    @classmethod
    def load(cls, config: Optional[Config] = None) -> DataFlowKernel:
        """Create and install a DataFlowKernel from a Config."""
        if cls._dfk is not None and not cls._dfk._cleanup_called:
            raise RuntimeError("a DataFlowKernel is already loaded; call clear() first")
        cls._dfk = DataFlowKernel(config)
        return cls._dfk

    @classmethod
    def dfk(cls) -> DataFlowKernel:
        if cls._dfk is None:
            raise RuntimeError("no DataFlowKernel loaded; call repro.load(config) first")
        return cls._dfk

    @classmethod
    def clear(cls) -> None:
        """Clean up and forget the current DataFlowKernel."""
        if cls._dfk is not None:
            cls._dfk.cleanup()
            cls._dfk = None

    @classmethod
    def wait_for_current_tasks(cls, timeout: Optional[float] = None) -> bool:
        return cls.dfk().wait_for_current_tasks(timeout)
