"""Executors (§4.3): pluggable mechanisms that move tasks to resources and results back."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.executors.base import ReproExecutor
    from repro.executors.threads import ThreadPoolExecutor
    from repro.executors.htex.executor import HighThroughputExecutor
    from repro.executors.llex.executor import LowLatencyExecutor
    from repro.executors.exex.executor import ExtremeScaleExecutor

__all__ = [
    "ReproExecutor",
    "ThreadPoolExecutor",
    "HighThroughputExecutor",
    "LowLatencyExecutor",
    "ExtremeScaleExecutor",
]

# Imported on first access, so the worker entry points under this package
# load only what they run (tests/executors/test_entry_point_imports.py).
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ReproExecutor": "repro.executors.base",
        "ThreadPoolExecutor": "repro.executors.threads",
        "HighThroughputExecutor": "repro.executors.htex.executor",
        "LowLatencyExecutor": "repro.executors.llex.executor",
        "ExtremeScaleExecutor": "repro.executors.exex.executor",
    },
)
del TYPE_CHECKING, lazy_exports
