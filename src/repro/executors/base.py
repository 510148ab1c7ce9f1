"""Executor base class.

Parsl executors extend the ``concurrent.futures.Executor`` interface (§4.3)
with the capabilities the DataFlowKernel and the elasticity strategy need:
block-oriented scaling through a provider, status reporting, monitoring
hooks, and deferred initialization (``start()`` is separate from
construction so a Config can be built cheaply and inspected).
"""

from __future__ import annotations

import concurrent.futures as cf
import logging
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ScalingFailed
from repro.executors.blocks import BlockRecord, BlockRegistry, BlockState
from repro.providers.base import ExecutionProvider, JobStatus
from repro.utils.ids import make_block_id
from repro.utils.timers import RepeatedTimer

logger = logging.getLogger(__name__)

#: One entry of a batched submission: (func, resource_specification, args,
#: kwargs) plus an optional trailing trace context dict (see
#: :mod:`repro.observability.trace`) — executors that don't propagate traces
#: may ignore it, so unpack with ``request[:4]``.
SubmitRequest = Tuple[Any, ...]


class ReproExecutor(ABC):
    """Base class for all executors.

    Subclasses implement :meth:`start`, :meth:`submit`, and :meth:`shutdown`.
    Scaling (:meth:`scale_out` / :meth:`scale_in`) has a common implementation
    driven by the executor's provider and ``launch_cmd``; executors without a
    provider (e.g. the thread pool) simply report that scaling is disabled.
    """

    #: Default label; overridden per instance via the constructor.
    label: str = "executor"

    def __init__(self, label: str, provider: Optional[ExecutionProvider] = None):
        self.label = label
        self.provider = provider
        self.blocks: Dict[str, str] = {}          # block_id -> provider job id
        self.block_mapping: Dict[str, str] = {}   # provider job id -> block_id
        self.block_registry = BlockRegistry(label=label, on_transition=self._on_block_transition)
        self._status_poller: Optional[RepeatedTimer] = None
        self._executor_bad_state = threading.Event()
        self._executor_exception: Optional[Exception] = None
        self.run_dir: str = "."
        self.monitoring_radio = None              # set by the DFK when monitoring is on
        # Shared metrics registry; the DFK swaps in its real one before
        # start() when Config.metrics_enabled. Imported lazily-by-value here
        # so a bare executor (tests, standalone pools) records into a no-op.
        from repro.observability.metrics import NULL_REGISTRY

        self.metrics = NULL_REGISTRY

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def start(self) -> None:
        """Bring up any executor-side infrastructure (interchange, pools)."""

    @abstractmethod
    def submit(self, func: Callable, resource_specification: Dict[str, Any], *args, **kwargs) -> cf.Future:
        """Submit a callable for asynchronous execution, returning a future."""

    @abstractmethod
    def shutdown(self, block: bool = True) -> None:
        """Tear down the executor and release all resources."""

    def submit_batch(self, requests: Sequence[SubmitRequest]) -> List[cf.Future]:
        """Submit many tasks at once, returning one future per request.

        Executors with a batched wire protocol (HTEX) override this to move
        the whole batch in one hop. The default simply loops over
        :meth:`submit`, converting a raised submission error into an exception
        set on that request's future — so callers (the DFK launch path) always
        get exactly ``len(requests)`` futures and handle failures uniformly.
        """
        futures: List[cf.Future] = []
        for request in requests:
            func, resource_specification, args, kwargs = request[:4]
            try:
                futures.append(self.submit(func, resource_specification, *args, **kwargs))
            except Exception as exc:  # noqa: BLE001 - surfaced via the future
                failed: cf.Future = cf.Future()
                failed.set_exception(exc)
                futures.append(failed)
        return futures

    # ------------------------------------------------------------------
    # Error state
    # ------------------------------------------------------------------
    def set_bad_state_and_fail_all(self, exception: Exception) -> None:
        """Mark the executor as failed; the DFK stops routing tasks to it."""
        self._executor_exception = exception
        self._executor_bad_state.set()

    @property
    def bad_state_is_set(self) -> bool:
        return self._executor_bad_state.is_set()

    @property
    def executor_exception(self) -> Optional[Exception]:
        return self._executor_exception

    # ------------------------------------------------------------------
    # Introspection used by the strategy
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Number of tasks submitted to this executor but not yet complete."""
        return 0

    @property
    def connected_workers(self) -> int:
        """Number of workers currently connected / available."""
        return 0

    @property
    def workers_per_block(self) -> int:
        """Estimated workers provided by one block (used for scaling decisions)."""
        return 1

    @property
    def scaling_enabled(self) -> bool:
        """Whether the strategy may scale this executor through its provider."""
        return self.provider is not None

    @property
    def supports_resource_specs(self) -> bool:
        """Whether this executor honors per-task resource specifications.

        The DFK router only sends a task carrying a non-default spec to an
        executor that can honor it (when any is configured): an executor
        that rejects specs (LLEX) would fail the task terminally, and one
        that ignores them (the thread pool) would silently drop the cores
        reservation and priority.
        """
        return False

    def status(self) -> Dict[str, JobStatus]:
        """Status of every block owned by this executor, keyed by block id."""
        if self.provider is None or not self.blocks:
            return {}
        job_ids = list(self.blocks.values())
        statuses = self.provider.status(job_ids)
        return {block_id: status for block_id, status in zip(self.blocks.keys(), statuses)}

    # ------------------------------------------------------------------
    # Block scaling
    # ------------------------------------------------------------------
    def _launch_block_command(self, block_id: str) -> str:
        """Return the command line a block should run (worker pool start)."""
        raise NotImplementedError(f"{type(self).__name__} does not launch blocks")

    def scale_out(self, blocks: int = 1) -> List[str]:
        """Request ``blocks`` new blocks from the provider; returns new block ids."""
        if self.provider is None:
            raise ScalingFailed(self.label, "no execution provider configured")
        new_blocks = []
        for _ in range(blocks):
            block_id = make_block_id()
            cmd = self._launch_block_command(block_id)
            job_id = self.provider.submit(cmd, tasks_per_node=1, job_name=f"{self.label}.{block_id}")
            self.blocks[block_id] = job_id
            self.block_mapping[job_id] = block_id
            self.block_registry.add(block_id, job_id)
            new_blocks.append(block_id)
        return new_blocks

    def scale_in(
        self,
        blocks: int = 1,
        block_ids: Optional[List[str]] = None,
        max_idletime: Optional[float] = None,
    ) -> List[str]:
        """Retire ``blocks`` blocks, targeting *idle* blocks first.

        Selection order when ``block_ids`` is not given: blocks the registry
        reports IDLE (longest idle first, and — when ``max_idletime`` is set —
        only those idle at least that long), then PENDING blocks that have not
        started working, then, only when no idleness information exists at
        all, the most recently started blocks (the legacy behaviour).

        Each selected block goes through :meth:`_terminate_block`, which
        executors with a drain protocol (HTEX) override to stop dispatch,
        let in-flight tasks settle, and only then cancel the provider job.
        """
        if self.provider is None:
            raise ScalingFailed(self.label, "no execution provider configured")
        if block_ids is None:
            block_ids = self._select_blocks_for_scale_in(blocks, max_idletime)
        self._terminate_blocks(block_ids, reason="scale-in")
        return block_ids

    def _select_blocks_for_scale_in(self, blocks: int, max_idletime: Optional[float]) -> List[str]:
        selected: List[str] = []
        idle = self.block_registry.idle_blocks(min_idle=max_idletime or 0.0)
        selected.extend(r.block_id for r in idle[:blocks])
        if len(selected) < blocks and max_idletime is None:
            # No hysteresis requested (a direct scale_in call): fall back to
            # pending blocks, then newest-first over whatever remains. Blocks
            # already draining (or otherwise non-active) are never re-selected
            # — terminating a draining block again would kill the in-flight
            # tasks its drain is waiting on.
            pending = [
                r.block_id
                for r in reversed(self.block_registry.active_blocks())
                if r.state is BlockState.PENDING and r.block_id not in selected
            ]
            selected.extend(pending[: blocks - len(selected)])
            if len(selected) < blocks:
                remaining = []
                for block_id in reversed(list(self.blocks.keys())):
                    record = self.block_registry.get(block_id)
                    if block_id not in selected and (record is None or record.state.active):
                        remaining.append(block_id)
                selected.extend(remaining[: blocks - len(selected)])
        return selected[:blocks]

    def _terminate_blocks(self, block_ids: List[str], reason: str = "") -> None:
        """Cancel blocks' provider jobs immediately (no drain protocol).

        All selected jobs go to the provider in ONE ``cancel`` call — batch
        schedulers are often rate-limited, and a wide scale-in should not
        turn into N sequential RPCs on the strategy thread. Executors with a
        drain protocol (HTEX) override this.
        """
        job_ids: List[str] = []
        for block_id in block_ids:
            job_id = self.blocks.pop(block_id, None)
            if job_id is not None:
                self.block_mapping.pop(job_id, None)
                job_ids.append(job_id)
        if job_ids:
            try:
                self.provider.cancel(job_ids)
            except Exception:  # noqa: BLE001 - record the orphaned jobs, keep scaling
                logger.exception(
                    "executor %s failed to cancel jobs %s during scale-in; "
                    "the provider may still be running them", self.label, job_ids,
                )
        for block_id in block_ids:
            self.block_registry.mark_terminated(block_id, reason=reason)

    # ------------------------------------------------------------------
    # Block observation (provider polls, activity reports, monitoring)
    # ------------------------------------------------------------------
    def start_block_monitoring(self) -> None:
        """Start the background provider-status poll feeding the registry."""
        if self.provider is None or self._status_poller is not None:
            return
        self._status_poller = RepeatedTimer(
            max(self.provider.status_polling_interval, 0.05),
            self._poll_provider_status,
            name=f"{self.label}-block-poller",
        )
        self._status_poller.start()

    def stop_block_monitoring(self) -> None:
        if self._status_poller is not None:
            self._status_poller.close()
            self._status_poller = None

    def _poll_provider_status(self) -> None:
        """One provider status sweep: fold job states into the registry.

        A block whose job reached a terminal state without the strategy asking
        for it (crash, walltime) is retired here so the strategy sees reduced
        capacity and can replace it.
        """
        if self.provider is None:
            return
        items = list(self.blocks.items())
        if not items:
            return
        try:
            statuses = self.provider.status([job_id for _, job_id in items])
        except Exception:  # noqa: BLE001 - a flaky scheduler must not kill the poller
            logger.exception("executor %s: provider status poll failed", self.label)
            return
        for (block_id, job_id), status in zip(items, statuses):
            self.block_registry.observe_provider(block_id, status.state)
            record = self.block_registry.get(block_id)
            if record is not None and record.state.terminal:
                self.blocks.pop(block_id, None)
                self.block_mapping.pop(job_id, None)

    def update_block_activity(self) -> bool:
        """Refresh per-block busy/idle data in the registry.

        Returns ``True`` when the executor supplied per-block telemetry (HTEX
        overrides this with the interchange's per-manager report); the base
        implementation has none, so the strategy falls back to executor-wide
        idleness.
        """
        return False

    def _on_block_transition(self, record: BlockRecord, old, new) -> None:
        """Emit a BLOCK_INFO monitoring event for every block state change."""
        if self.monitoring_radio is None:
            return
        from repro.monitoring.messages import MessageType

        self.monitoring_radio.send(
            MessageType.BLOCK_INFO,
            {
                "executor": self.label,
                "block_id": record.block_id,
                "job_id": record.job_id,
                "old_state": old.value if old is not None else None,
                "new_state": new.value,
                "idle_since": record.idle_since,
                "reason": record.reason,
            },
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(label={self.label!r})"
