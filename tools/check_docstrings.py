#!/usr/bin/env python
"""Fail if a public symbol in the service layer is missing a docstring.

Stdlib-only (AST-based) so `make docs-lint` works in environments without
ruff; CI additionally runs ruff's pydocstyle (D) rules, scoped in
pyproject.toml to the same package. "Public" means: the module itself,
plus every class, function, and method whose name does not start with an
underscore (``__init__`` is exempt — the class docstring covers
construction unless the signature warrants its own, and private ``_Name``
classes are exempt along with everything inside them).

Usage: python tools/check_docstrings.py [paths...]
Defaults to src/repro/service, src/repro/config and
src/repro/scheduling/router.py.
Exits 1 listing each offender as path:line: symbol.
"""

from __future__ import annotations

import ast
import pathlib
import sys

DEFAULT_TARGETS = [
    "src/repro/service",
    "src/repro/config",
    "src/repro/scheduling/router.py",
]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _walk(node: ast.AST, qualname: str, offenders: list, path: pathlib.Path) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_public(child.name):
                continue  # private: skip it and everything nested inside
            label = f"{qualname}.{child.name}" if qualname else child.name
            if ast.get_docstring(child) is None:
                offenders.append((path, child.lineno, label))
            if isinstance(child, ast.ClassDef):
                _walk(child, label, offenders, path)


def check_file(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders: list = []
    if ast.get_docstring(tree) is None:
        offenders.append((path, 1, "<module>"))
    _walk(tree, "", offenders, path)
    return offenders


def main(argv: list) -> int:
    targets = argv or DEFAULT_TARGETS
    files: list = []
    for target in targets:
        p = pathlib.Path(target)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.exists():
            files.append(p)
        else:
            print(f"check_docstrings: no such path: {target}", file=sys.stderr)
            return 2
    offenders = []
    for f in files:
        offenders.extend(check_file(f))
    for path, lineno, label in offenders:
        print(f"{path}:{lineno}: missing docstring: {label}")
    if offenders:
        print(f"\n{len(offenders)} public symbol(s) missing docstrings "
              f"across {len(files)} file(s)")
        return 1
    print(f"docstrings OK: {len(files)} file(s) checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
