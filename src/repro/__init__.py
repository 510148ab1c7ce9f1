"""repro: a reproduction of "Parsl: Pervasive Parallel Programming in Python" (HPDC 2019).

The public API mirrors the library described in the paper
(conf_hpdc_BabujiWLKCKLCWF19, Babuji et al.)::

    import repro
    from repro import python_app, bash_app, Config
    from repro.executors import HighThroughputExecutor

    repro.load(Config(executors=[HighThroughputExecutor(workers_per_node=4)]))

    @python_app
    def hello(name):
        return f"Hello {name}"

    print(hello("World").result())
    repro.clear()

Paper provenance of each export:

* :func:`python_app` / :func:`bash_app` / :func:`join_app` — the app
  decorators of §3.1; invoking a decorated function registers a task and
  returns an :class:`AppFuture` immediately.
* :class:`Config` — §3.5's separation of program logic from execution
  configuration; with no arguments it runs everything on a local thread
  pool, so scripts work out of the box.
* :class:`DataFlowKernel` (and :func:`load` / :func:`dfk` / :func:`clear`)
  — §4.1's execution manager: the dynamic task graph, launching ready
  tasks straight to executors, retries, memoization/checkpointing, and
  elasticity. :func:`load` installs a process-wide kernel the decorators
  resolve against, exactly like ``parsl.load``.
* :class:`AppFuture` / :class:`DataFuture` — §3.3's two future types:
  task futures and output-file futures.
* :class:`File` — §4.5's location-transparent file abstraction.
* :class:`ResourceSpec` — the per-task resource specification (cores,
  memory/walltime hints, priority, executor affinity) threaded by the
  scheduling subsystem from app invocation to worker slots.
* :class:`RetryPolicy` — failure classification and jittered-backoff
  schedule for the kernel's retry machinery; :class:`WorkerPoisonError` is
  the typed failure a task receives once it has been quarantined for
  repeatedly killing its workers (see
  ``docs/architecture/fault-tolerance.md``).
* :func:`wait_for_current_tasks` — barrier over every submitted task.
* :func:`recommend_executor` — §4.4's executor-selection guidelines.
* :class:`WorkflowGateway` / :class:`ServiceClient` — the hosted-service
  layer: many authenticated remote tenants sharing one kernel with weighted
  fair-share admission (see :mod:`repro.service`).

See ``README.md`` for the package-to-paper-section map and
``docs/architecture/dispatch-pipeline.md`` for the dispatch pipeline.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.version import VERSION as __version__

if TYPE_CHECKING:
    from repro.apps.app import python_app, bash_app, join_app
    from repro.config.config import Config
    from repro.core.dflow import DataFlowKernel, DataFlowKernelLoader
    from repro.core.futures import AppFuture, DataFuture
    from repro.core.guidelines import recommend_executor
    from repro.core.retry import RetryPolicy
    from repro.data.files import File
    from repro.errors import ReproException, WorkerPoisonError
    from repro.scheduling.spec import ResourceSpec
    from repro.service import ServiceClient, WorkflowGateway

    #: Load a DataFlowKernel from a Config (module-level convenience, as in Parsl).
    load = DataFlowKernelLoader.load
    #: Return the currently loaded DataFlowKernel.
    dfk = DataFlowKernelLoader.dfk
    #: Clean up and forget the currently loaded DataFlowKernel.
    clear = DataFlowKernelLoader.clear
    #: Block until every currently submitted task reaches a final state.
    wait_for_current_tasks = DataFlowKernelLoader.wait_for_current_tasks

__all__ = [
    "__version__",
    "python_app",
    "bash_app",
    "join_app",
    "Config",
    "DataFlowKernel",
    "DataFlowKernelLoader",
    "AppFuture",
    "DataFuture",
    "File",
    "ReproException",
    "ResourceSpec",
    "RetryPolicy",
    "WorkerPoisonError",
    "ServiceClient",
    "WorkflowGateway",
    "recommend_executor",
    "load",
    "dfk",
    "clear",
    "wait_for_current_tasks",
]

# Each name is imported on first access, so a worker entry point under this
# package (e.g. repro.executors.htex.process_worker_pool) loads only what it
# runs; tests/executors/test_entry_point_imports.py guards that.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "python_app": "repro.apps.app",
        "bash_app": "repro.apps.app",
        "join_app": "repro.apps.app",
        "Config": "repro.config.config",
        "DataFlowKernel": "repro.core.dflow",
        "DataFlowKernelLoader": "repro.core.dflow",
        "AppFuture": "repro.core.futures",
        "DataFuture": "repro.core.futures",
        "File": "repro.data.files",
        "ReproException": "repro.errors",
        "ResourceSpec": "repro.scheduling.spec",
        "RetryPolicy": "repro.core.retry",
        "WorkerPoisonError": "repro.errors",
        "ServiceClient": "repro.service",
        "WorkflowGateway": "repro.service",
        "recommend_executor": "repro.core.guidelines",
        "load": "repro.core.dflow:DataFlowKernelLoader.load",
        "dfk": "repro.core.dflow:DataFlowKernelLoader.dfk",
        "clear": "repro.core.dflow:DataFlowKernelLoader.clear",
        "wait_for_current_tasks": "repro.core.dflow:DataFlowKernelLoader.wait_for_current_tasks",
    },
)
del TYPE_CHECKING, lazy_exports
