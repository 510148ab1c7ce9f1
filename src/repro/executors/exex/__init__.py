"""Extreme Scale Executor (EXEX): MPI-style hierarchical task distribution for the largest machines."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.executors.exex.executor import ExtremeScaleExecutor

__all__ = ["ExtremeScaleExecutor"]

# Imported on first access, so this package's worker entry point loads only
# what it runs (tests/executors/test_entry_point_imports.py).
__getattr__, __dir__ = lazy_exports(globals(), {"ExtremeScaleExecutor": "repro.executors.exex.executor"})
del TYPE_CHECKING, lazy_exports
