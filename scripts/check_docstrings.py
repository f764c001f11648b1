#!/usr/bin/env python
"""Fail on public functions/classes lacking docstrings.

The serving kernel, the MP-Rec core and the hardware cost models are the
repo's API surface; every public module, class, function, and method
there must say what it is for.  "Public" means the name (and every
package segment on the way to it) does not start with an underscore;
dunder methods are exempt, as are trivial overrides consisting solely of
``pass``/``...``.

    python scripts/check_docstrings.py [dir-or-file ...]
    # default: src/repro/serving src/repro/core src/repro/hardware
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = ("src/repro/serving", "src/repro/core", "src/repro/hardware")


def is_public(name: str) -> bool:
    return not name.startswith("_")


def is_trivial(node: ast.AST) -> bool:
    """A body that is only ``pass`` / ``...`` (abstract placeholder)."""
    body = getattr(node, "body", [])
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def missing_docstrings(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, qualified name) of every public definition without a doc."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: list[tuple[int, str]] = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "<module>"))

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                qualified = f"{prefix}{name}"
                dunder = name.startswith("__") and name.endswith("__")
                if is_public(name) and not dunder and not is_trivial(child):
                    if ast.get_docstring(child) is None:
                        missing.append((child.lineno, qualified))
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qualified}.")

    walk(tree, "")
    return missing


def iter_python(paths: list[str]) -> list[pathlib.Path]:
    """Resolve the targets into the .py files they contain."""
    candidates = [
        pathlib.Path(p) for p in (paths or DEFAULT_TARGETS)
    ]
    files: list[pathlib.Path] = []
    for candidate in candidates:
        if not candidate.is_absolute():
            candidate = ROOT / candidate
        if candidate.is_dir():
            files.extend(sorted(candidate.glob("**/*.py")))
        elif candidate.exists():
            files.append(candidate)
        else:
            print(f"warning: {candidate} does not exist", file=sys.stderr)
    return files


def main(argv: list[str]) -> int:
    files = iter_python(argv)
    if not files:
        print("no python files found", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        for lineno, name in missing_docstrings(path):
            rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
            print(f"{rel}:{lineno}: missing docstring on {name}")
            failures += 1
    if failures:
        print(f"\n{failures} public definition(s) lack docstrings",
              file=sys.stderr)
        return 1
    print(
        f"checked {len(files)} file(s): every public definition is documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
