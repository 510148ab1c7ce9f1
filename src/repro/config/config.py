"""The Config object.

Parsl separates program logic from execution configuration (§3.5): the same
script runs on a laptop or a supercomputer by swapping the Config. A Config
is a plain Python object so developers can introspect permissible options,
validate settings, and edit configurations dynamically.

A Config bundles:

* the list of executors (each optionally carrying a provider/channel/launcher),
* fault-tolerance settings: ``retries`` bounds attempts per task;
  ``retry_policy`` (a :class:`~repro.core.retry.RetryPolicy`) classifies
  failures — infrastructure faults (lost workers/managers, unavailable
  shards) retry under capped exponential backoff with jitter, deterministic
  faults (poison tasks, impossible resource specs, walltime kills) fail
  fast — defaulting to a policy built from the flat ``retry_backoff_s``
  delay when unset,
* memoization and checkpointing settings,
* the multi-executor router's backpressure cap (``router_backpressure``):
  when set, an executor already holding that many outstanding tasks stops
  receiving new work while any peer is below the cap (load-aware spillover
  is always on; the cap bounds skew under sustained overload),
* the elasticity strategy and its cadence: ``strategy`` selects the engine
  (``none`` / ``simple`` / ``htex_auto_scale``), ``strategy_period`` its
  decision interval, and ``max_idletime`` the scale-in hysteresis — a block
  must be continuously idle this long before it may be drained (§4.4),
* monitoring, plus the live observability plane: ``metrics_enabled`` builds
  the shared :class:`~repro.observability.metrics.MetricsRegistry` (off → a
  zero-cost null registry) and ``trace_enabled`` controls whether tasks
  carry an end-to-end trace context whose per-hop spans land in the
  monitoring store's ``task_spans`` table,
* the run directory where logs, checkpoints, and monitoring land.

Finished tasks are not configurable state: the DFK keeps no task table, so
a finished task is freed once nothing needs it, and a held AppFuture keeps
only its own record (``future.task_record``), without its callable,
arguments or dependencies.

Service settings (bind addresses, admission caps, fair-share weights,
session TTLs, the durable store, SLOs) belong to the objects that use them:
:class:`~repro.service.gateway.WorkflowGateway` and
:class:`~repro.service.http_edge.HttpEdge` take and validate their own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.checkpoint import CHECKPOINT_MODES
from repro.core.retry import RetryPolicy
from repro.errors import ConfigurationError, DuplicateExecutorLabelError
from repro.executors.base import ReproExecutor
from repro.executors.threads import ThreadPoolExecutor
from repro.monitoring.hub import MonitoringHub


class Config:
    """Execution configuration handed to the DataFlowKernel."""

    def __init__(
        self,
        executors: Optional[Sequence[ReproExecutor]] = None,
        app_cache: bool = True,
        checkpoint_mode: Optional[str] = None,
        checkpoint_files: Optional[List[str]] = None,
        checkpoint_period: float = 30.0,
        retries: int = 0,
        retry_backoff_s: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        router_backpressure: Optional[int] = None,
        strategy: str = "simple",
        strategy_period: float = 0.2,
        max_idletime: float = 2.0,
        run_dir: str = "runinfo",
        monitoring: Optional[MonitoringHub] = None,
        metrics_enabled: bool = True,
        trace_enabled: bool = True,
    ):
        if executors is None or len(list(executors)) == 0:
            executors = [ThreadPoolExecutor(label="threads", max_threads=4)]
        executors = list(executors)
        self._validate_executors(executors)
        if checkpoint_mode not in CHECKPOINT_MODES:
            raise ConfigurationError(
                f"checkpoint_mode must be one of {CHECKPOINT_MODES}, got {checkpoint_mode!r}"
            )
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy, got {retry_policy!r}"
            )
        if strategy not in ("none", "simple", "htex_auto_scale"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if strategy_period <= 0:
            raise ConfigurationError("strategy_period must be positive")
        if max_idletime < 0:
            raise ConfigurationError("max_idletime must be >= 0")
        if checkpoint_period <= 0:
            raise ConfigurationError("checkpoint_period must be positive")
        if router_backpressure is not None and router_backpressure < 1:
            raise ConfigurationError("router_backpressure must be >= 1 when set")

        self.executors: List[ReproExecutor] = executors
        self.app_cache = app_cache
        self.checkpoint_mode = checkpoint_mode
        self.checkpoint_files = list(checkpoint_files or [])
        self.checkpoint_period = checkpoint_period
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        # The policy classifies failures (fail-fast vs transient vs ordinary)
        # and computes per-attempt backoff; None means "derive from the
        # legacy retry_backoff_s knob", which the DFK does at construction.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy.from_config(retry_backoff_s)
        self.router_backpressure = router_backpressure
        self.strategy = strategy
        self.strategy_period = strategy_period
        self.max_idletime = max_idletime
        self.run_dir = run_dir
        self.monitoring = monitoring
        self.metrics_enabled = bool(metrics_enabled)
        self.trace_enabled = bool(trace_enabled)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_executors(executors: Sequence[ReproExecutor]) -> None:
        labels = set()
        for executor in executors:
            if not isinstance(executor, ReproExecutor):
                raise ConfigurationError(f"{executor!r} is not an executor")
            if executor.label in labels:
                raise DuplicateExecutorLabelError(executor.label)
            labels.add(executor.label)

    @property
    def executor_labels(self) -> List[str]:
        """Labels of the configured executors, in configuration order."""
        return [e.label for e in self.executors]

    def get_executor(self, label: str) -> ReproExecutor:
        """Return the executor labelled ``label`` (ConfigurationError if none)."""
        for executor in self.executors:
            if executor.label == label:
                return executor
        raise ConfigurationError(f"no executor labelled {label!r}")

    def __repr__(self) -> str:
        return (
            f"Config(executors={self.executor_labels}, retries={self.retries}, "
            f"app_cache={self.app_cache}, checkpoint_mode={self.checkpoint_mode!r}, "
            f"strategy={self.strategy!r}, run_dir={self.run_dir!r})"
        )
