"""What a provider-launched worker entry point imports, and the lazy public API.

A block adds capacity only once its worker pool has started, and most of a
pool's start-up is its imports. The package ``__init__``s on an entry
point's import path (``repro``, ``repro.executors`` and the three executor
packages) re-export lazily, so an entry point loads only its own closure.
These tests run each import in a fresh interpreter and count modules, not
time, so they are deterministic.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ENTRY_POINTS = [
    "repro.executors.htex.process_worker_pool",
    "repro.executors.llex.worker",
    "repro.executors.exex.mpi_worker_pool",
]

#: Packages a worker never runs: the DFK, configuration, the service layer,
#: the providers and the observability plane.
FORBIDDEN_PACKAGES = [
    "repro.core",
    "repro.config",
    "repro.service",
    "repro.providers",
    "repro.monitoring",
    "repro.observability",
    "repro.scheduling",
    "repro.apps",
    "repro.data",
]

FORBIDDEN_MODULES = ["asyncio", "sqlite3"]

EXECUTOR_PACKAGES = [
    "repro.executors",
    "repro.executors.htex",
    "repro.executors.llex",
    "repro.executors.exex",
]


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_imports_only_its_own_closure(module):
    loaded = json.loads(
        _run(f"import {module}, sys, json; print(json.dumps(sorted(sys.modules)))")
    )
    forbidden = [
        name
        for name in loaded
        if name in FORBIDDEN_MODULES
        or any(name == pkg or name.startswith(pkg + ".") for pkg in FORBIDDEN_PACKAGES)
    ]
    assert forbidden == [], f"{module} imports {forbidden}"


@pytest.mark.parametrize("package", ["repro"] + EXECUTOR_PACKAGES)
def test_public_names_resolve_to_their_defining_objects(package):
    """Each name in ``__all__`` is the object the package's ``TYPE_CHECKING``
    block names for it, so what type checkers see is what callers get."""
    report = json.loads(
        _run(
            """
import ast, importlib, inspect, json, sys
package = importlib.import_module(sys.argv[1])
tree = ast.parse(inspect.getsource(package))
block = next(node for node in tree.body
             if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING")
expected = {"__version__": importlib.import_module("repro.version").VERSION}
for node in block.body:
    if isinstance(node, ast.ImportFrom):
        home = importlib.import_module(node.module)
        expected.update((alias.name, getattr(home, alias.name)) for alias in node.names)
    elif isinstance(node, ast.Assign):  # load = DataFlowKernelLoader.load
        expected[node.targets[0].id] = getattr(expected[node.value.value.id], node.value.attr)
print(json.dumps({
    "unlisted": sorted(set(package.__all__) - set(expected)),
    "not_in_dir": sorted(set(package.__all__) - set(dir(package))),
    "differ": sorted(
        name for name in package.__all__ if name in expected
        # a bound classmethod is a new object per access: compare by ==
        and not (getattr(package, name) is expected[name]
                 or inspect.ismethod(expected[name]) and getattr(package, name) == expected[name])
    ),
    "unstable": sorted(name for name in package.__all__ if getattr(package, name) is not getattr(package, name)),
}))
""",
            package,
        )
    )
    assert report == {"unlisted": [], "not_in_dir": [], "differ": [], "unstable": []}


def test_star_import_binds_every_public_name():
    missing = json.loads(
        _run(
            """
import json
import repro
namespace = {}
exec("from repro import *", namespace)
print(json.dumps(sorted(set(repro.__all__) - set(namespace))))
"""
        )
    )
    assert missing == []


def test_unknown_attribute_still_raises():
    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
