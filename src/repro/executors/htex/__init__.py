"""High Throughput Executor (HTEX): pilot-job execution via an interchange and per-node managers."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.executors.htex.executor import HighThroughputExecutor

__all__ = ["HighThroughputExecutor"]

# Imported on first access, so this package's worker entry point loads only
# what it runs (tests/executors/test_entry_point_imports.py).
__getattr__, __dir__ = lazy_exports(globals(), {"HighThroughputExecutor": "repro.executors.htex.executor"})
del TYPE_CHECKING, lazy_exports
