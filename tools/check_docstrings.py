#!/usr/bin/env python
"""Docstring lint: every public API in the given trees must be documented.

A small pydocstyle-flavoured checker with no dependencies, enforced in
CI (and by ``tests/test_docstrings.py``) for the ``src/repro/campaign``,
``src/repro/obs``, ``src/repro/fleet``, ``src/repro/censors``,
``src/repro/runtime``, ``src/repro/eval`` and ``src/repro/core/evolution``
trees, ``src/repro/netsim/flows.py``, ``src/repro/deploy/selector.py``,
``src/repro/netsim/network.py`` and ``src/repro/packets/pool.py`` so
new public APIs ship documented. Arguments may be directories (checked
recursively) or single files. Rules:

- every module has a docstring;
- every public class (name not starting with ``_``) has a docstring;
- every public function and method has a docstring, including
  properties; dunder methods and anything underscore-prefixed are
  exempt, as are nested (closure) functions.

Usage::

    python tools/check_docstrings.py src/repro/campaign src/repro/obs

Exits non-zero listing each violation as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

Violation = Tuple[Path, int, str]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_body(
    path: Path, parent: str, body: Iterable[ast.stmt], out: List[Violation]
) -> None:
    """Check one class or module body (does not recurse into functions)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                out.append(
                    (path, node.lineno, f"public function {parent}{node.name} lacks a docstring")
                )
        elif isinstance(node, ast.ClassDef):
            if _is_public(node.name):
                if ast.get_docstring(node) is None:
                    out.append(
                        (path, node.lineno, f"public class {parent}{node.name} lacks a docstring")
                    )
                _check_body(path, f"{parent}{node.name}.", node.body, out)


def check_file(path: Path) -> List[Violation]:
    """All docstring violations in one Python source file."""
    out: List[Violation] = []
    tree = ast.parse(path.read_text(), filename=str(path))
    if ast.get_docstring(tree) is None:
        out.append((path, 1, "module lacks a docstring"))
    _check_body(path, "", tree.body, out)
    return out


def check_trees(roots: Iterable[Path]) -> List[Violation]:
    """All violations across the given files or directory trees."""
    out: List[Violation] = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            out.extend(check_file(path))
    return out


def main(argv: List[str]) -> int:
    """CLI entry point: check each argument tree, report, set exit code."""
    if not argv:
        print("usage: check_docstrings.py PATH [PATH ...]", file=sys.stderr)
        return 2
    violations = check_trees([Path(arg) for arg in argv])
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"{len(violations)} docstring violation(s)")
        return 1
    print(f"docstrings OK across {len(argv)} tree(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
