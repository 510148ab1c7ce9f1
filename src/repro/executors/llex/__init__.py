"""Low Latency Executor (LLEX): a stateless relay between clients and directly connected workers."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.executors.llex.executor import LowLatencyExecutor

__all__ = ["LowLatencyExecutor"]

# Imported on first access, so this package's worker entry point loads only
# what it runs (tests/executors/test_entry_point_imports.py).
__getattr__, __dir__ = lazy_exports(globals(), {"LowLatencyExecutor": "repro.executors.llex.executor"})
del TYPE_CHECKING, lazy_exports
