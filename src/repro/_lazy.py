"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package whose ``__init__`` imports every name it re-exports makes each of
its submodules pay for all of them: ``python -m
repro.executors.htex.process_worker_pool`` would load the DFK, the gateway
and the providers before its first line ran. A package that re-exports
through :func:`lazy_exports` instead imports a name's defining module on
the name's first access and caches the value in its own globals, so later
lookups are plain attribute reads.

Usage, at the end of a package ``__init__`` that defines ``__all__``::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "HighThroughputExecutor": "repro.executors.htex.executor",
        "load": "repro.core.dflow:DataFlowKernelLoader.load",
    })

A target is ``"module"`` (the export has the same name there) or
``"module:dotted.attribute"``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return the module ``__getattr__`` and ``__dir__`` serving ``exports``."""

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module_name, _, path = target.partition(":")
        value: Any = importlib.import_module(module_name)
        for attr in (path or name).split("."):
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
