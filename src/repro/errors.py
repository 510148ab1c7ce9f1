"""Exception hierarchy for the repro (Parsl-reproduction) library.

The hierarchy mirrors the failure domains described in the paper:

* configuration errors (bad :class:`~repro.config.Config` objects),
* app-level errors (user function raised, bash app returned non-zero),
* dataflow errors (dependency failures, join errors),
* executor errors (lost managers, scaling failures, serialization issues),
* provider errors (scheduler rejected a submission, unknown job ids),
* data-management errors (staging failures, missing files).

Every exception raised by this package derives from :class:`ReproException`
so that callers can catch library failures separately from user-code
failures, which are always re-raised (possibly wrapped in
:class:`DependencyError` or :class:`RemoteExceptionWrapper`).
"""

from __future__ import annotations

from typing import List, Optional


class ReproException(Exception):
    """Base class for all exceptions raised by the repro library."""


# ---------------------------------------------------------------------------
# Configuration errors
# ---------------------------------------------------------------------------

class ConfigurationError(ReproException):
    """Raised when a :class:`~repro.config.Config` is invalid or misused."""


class DuplicateExecutorLabelError(ConfigurationError):
    """Raised when two executors in a config share the same label."""

    def __init__(self, label: str):
        super().__init__(f"Duplicate executor label: {label!r}")
        self.label = label


class NoSuchExecutorError(ConfigurationError):
    """Raised when an app requests an executor label that is not configured."""

    def __init__(self, label: str, available: Optional[List[str]] = None):
        msg = f"No executor with label {label!r} is configured"
        if available:
            msg += f" (available: {', '.join(sorted(available))})"
        super().__init__(msg)
        self.label = label
        self.available = list(available or [])


# ---------------------------------------------------------------------------
# App errors
# ---------------------------------------------------------------------------

class AppException(ReproException):
    """Base class for errors raised on behalf of an App."""


class AppBadFormatting(AppException):
    """A bash app's command-line template could not be formatted."""


class BashAppNoReturn(AppException):
    """A bash app returned ``None`` instead of a command string."""


class BashExitFailure(AppException):
    """A bash app's command exited with a non-zero return code."""

    def __init__(self, app_name: str, exitcode: int):
        super().__init__(f"bash app {app_name!r} failed with unix exit code {exitcode}")
        self.app_name = app_name
        self.exitcode = exitcode


class AppTimeout(AppException):
    """An app exceeded its configured walltime."""


class TaskWalltimeExceeded(AppException):
    """A task ran past the ``walltime_s`` in its resource specification.

    Raised *on the worker* (the spec's walltime is enforced, not advisory):
    the task is killed and the error travels back through the executor
    future. The DataFlowKernel treats it as deterministic and fails the
    AppFuture without burning retries — a task that ran out of time once
    will run out of time again.
    """

    def __init__(self, message: str = "task exceeded its walltime"):
        # Single-positional-arg constructor so the exception round-trips
        # through pickle (RemoteExceptionWrapper ships it off the worker).
        super().__init__(message)


class MissingOutputs(AppException):
    """An app completed but did not produce one or more declared output files."""

    def __init__(self, reason: str, outputs):
        super().__init__(f"Missing outputs: {reason}: {outputs}")
        self.reason = reason
        self.outputs = outputs


# ---------------------------------------------------------------------------
# Dataflow errors
# ---------------------------------------------------------------------------

class DataFlowException(ReproException):
    """Base class for errors raised by the DataFlowKernel."""


class DependencyError(DataFlowException):
    """One or more dependencies of a task failed, so the task was not run.

    The failed dependencies are recorded so a user can walk the chain of
    failures back to the root cause.
    """

    def __init__(self, dependent_exceptions_tids, task_id):
        self.dependent_exceptions_tids = list(dependent_exceptions_tids)
        self.task_id = task_id
        deps = ", ".join(str(tid) for _, tid in self.dependent_exceptions_tids)
        super().__init__(
            f"Dependency failure for task {task_id} with failed dependencies from tasks [{deps}]"
        )


class JoinError(DataFlowException):
    """A join app returned something that is not a future (or list of futures)."""


class TaskNotFoundError(DataFlowException):
    """An operation referenced a task id unknown to the DFK."""


class DataFlowKernelClosedError(DataFlowException):
    """A task was submitted after the DataFlowKernel was cleaned up."""


# ---------------------------------------------------------------------------
# Executor errors
# ---------------------------------------------------------------------------

class ExecutorError(ReproException):
    """Base class for executor failures."""

    def __init__(self, executor_label: str, reason: str):
        super().__init__(f"Executor {executor_label!r} failed: {reason}")
        self.executor_label = executor_label
        self.reason = reason


class ScalingFailed(ExecutorError):
    """The executor could not scale out/in through its provider."""


class BadMessage(ReproException):
    """A malformed message was received on an executor channel."""


class ManagerLost(ReproException):
    """A manager (pilot agent) stopped heartbeating while holding tasks.

    Mirrors the HTEX behaviour in §4.3.1: the interchange notices the missing
    heartbeat and raises this on behalf of every outstanding task on that
    manager so the DFK can retry them.
    """

    def __init__(self, manager_id: str, hostname: str = "unknown"):
        super().__init__(f"Manager {manager_id!r} on host {hostname} was lost (missed heartbeats)")
        self.manager_id = manager_id
        self.hostname = hostname


class WorkerLost(ReproException):
    """A worker process died while executing a task.

    The manager's worker loop detects the death (the worker's
    ``Process.sentinel`` fired without a shutdown being requested),
    synthesizes this failure for the task the worker had claimed, and
    respawns the worker.
    The interchange counts the kill against the task (see
    :class:`WorkerPoisonError`) and redispatches it while the count stays
    under the poison threshold. Classified *retryable* by the default
    :class:`~repro.core.retry.RetryPolicy` — one crash is circumstance, not
    destiny.
    """

    def __init__(self, worker_id, hostname: str = "unknown", exitcode: "int | None" = None):
        detail = f" (exit code {exitcode})" if exitcode is not None else ""
        super().__init__(f"Worker {worker_id} on host {hostname} was lost{detail}")
        self.worker_id = worker_id
        self.hostname = hostname
        self.exitcode = exitcode

    def __reduce__(self):
        return (type(self), (self.worker_id, self.hostname, self.exitcode))


class WorkerPoisonError(ReproException):
    """A task's execution killed workers ``poison_threshold`` times.

    Raised by the interchange *instead of redispatching* once the per-task
    worker-kill count reaches the threshold: one bad task (a segfaulting
    extension, an ``os._exit`` in user code, a reliable OOM) must not
    serially murder every worker in a block. Deterministic by presumption,
    so the DataFlowKernel's retry policy fails the AppFuture fast without
    burning retries.
    """

    def __init__(self, task_id, kills: int = 0, hostname: str = "unknown"):
        super().__init__(
            f"Task {task_id} was quarantined as poison: its execution killed "
            f"{kills} worker(s) (last on host {hostname})"
        )
        self.task_id = task_id
        self.kills = kills
        self.hostname = hostname

    def __reduce__(self):
        return (type(self), (self.task_id, self.kills, self.hostname))


class SerializationError(ReproException):
    """A task's function, arguments, or result could not be serialized."""

    def __init__(self, what: str, underlying: Optional[Exception] = None):
        msg = f"Failed to serialize {what}"
        if underlying is not None:
            msg += f": {underlying!r}"
        super().__init__(msg)
        self.what = what
        self.underlying = underlying


class DeserializationError(ReproException):
    """A message or result could not be deserialized."""


class UnsupportedFeatureError(ReproException):
    """A feature not supported by the selected executor was requested."""


class ResourceSpecError(ReproException):
    """A per-task resource specification is malformed or unsatisfiable."""


# ---------------------------------------------------------------------------
# Provider / channel / launcher errors
# ---------------------------------------------------------------------------

class ProviderException(ReproException):
    """Base class for execution-provider failures."""


class SubmitException(ProviderException):
    """The resource manager rejected a block submission."""

    def __init__(self, label: str, reason: str):
        super().__init__(f"Provider {label!r} failed to submit block: {reason}")
        self.label = label
        self.reason = reason


class JobNotFoundError(ProviderException):
    """A job id was not known to the resource manager."""


class InsufficientResources(ProviderException):
    """The requested block cannot ever be satisfied by the resource pool."""


class WalltimeExceeded(ProviderException):
    """A block exceeded its requested walltime and was killed by the LRM."""


class ChannelError(ReproException):
    """Base class for channel failures (connection, auth, file movement)."""

    def __init__(self, reason: str, hostname: str = "localhost"):
        super().__init__(f"Channel to {hostname} failed: {reason}")
        self.reason = reason
        self.hostname = hostname


class ChannelRequiredError(ChannelError):
    """An operation requiring a channel was attempted without one."""

    def __init__(self):
        super().__init__("a channel is required but none was configured")


class LauncherError(ReproException):
    """A launcher could not construct or run its wrapped command."""


# ---------------------------------------------------------------------------
# Data management errors
# ---------------------------------------------------------------------------

class DataManagerError(ReproException):
    """Base class for data-management failures."""


class StagingError(DataManagerError):
    """A file could not be staged in or out."""

    def __init__(self, protocol: str, url: str, reason: str = ""):
        msg = f"Failed to stage {protocol} file {url}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.protocol = protocol
        self.url = url
        self.reason = reason


class FileNotAvailable(DataManagerError):
    """A remote file was requested that does not exist in the object store."""


# ---------------------------------------------------------------------------
# Monitoring errors
# ---------------------------------------------------------------------------

class MonitoringError(ReproException):
    """A monitoring component failed (hub, router, or database)."""


# ---------------------------------------------------------------------------
# Gateway service errors
# ---------------------------------------------------------------------------

class ServiceError(ReproException):
    """Base class for workflow-gateway failures (server or client side)."""


class AuthenticationError(ServiceError):
    """The gateway rejected a client's tenant token or session credentials."""


class SessionExpiredError(ServiceError):
    """A resume attempt referenced a session the gateway has evicted."""


class TaskCancelledError(ServiceError):
    """A queued gateway task was cancelled before it was dispatched."""


class ShardUnavailableError(ServiceError):
    """No live DFK shard could take the task, though the gateway is up.

    Raised on the client side when the gateway answers a submit with a
    ``shard_unavailable`` error frame. Distinguishes *retry-later* (the
    gateway is reachable but every shard that could serve this tenant is
    down or draining — the task was never admitted, so resubmitting once a
    shard returns is safe) from *re-route* (the gateway itself is gone,
    which surfaces as :class:`ServiceError`/connection failures instead).
    """

    def __init__(self, reason: str, shard: "int | None" = None):
        super().__init__(reason)
        #: Index of the tenant's home shard when the gateway reported one.
        self.shard = shard


class HttpEdgeError(ServiceError):
    """The HTTP edge rejected or could not complete a request.

    Carries the HTTP status code the edge answered (or would answer) with,
    so SDK callers can branch on e.g. 429 (backpressure) vs 410 (session
    expired) without string matching.
    """

    def __init__(self, status: int, reason: str):
        super().__init__(f"HTTP {status}: {reason}")
        self.status = status
        self.reason = reason


# ---------------------------------------------------------------------------
# Remote exception wrapping
# ---------------------------------------------------------------------------

class RemoteExceptionWrapper:
    """Carry an exception raised on a remote worker back to the submit side.

    Tracebacks are not picklable, so we capture the formatted traceback text
    and re-raise the original exception (when it is picklable) or a
    :class:`ReproException` describing it (when it is not).
    """

    def __init__(self, e_type, e_value, traceback_str: str):
        self.e_type = e_type
        self.e_value = e_value
        self.traceback_str = traceback_str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "RemoteExceptionWrapper":
        import traceback

        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return cls(type(exc), exc, tb)

    def reraise(self):
        """Re-raise the wrapped exception on the caller's side."""
        raise self.e_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteExceptionWrapper({self.e_type.__name__}: {self.e_value})"
