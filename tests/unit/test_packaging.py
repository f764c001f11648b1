"""The package stands on its own: every module imports first, the setup
script carries the package's name and version, and the docs' import
lines name what the package exports."""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

# Runs in a fresh interpreter: for each module, forget every ``repro``
# module loaded so far and import that one first.
_IMPORT_EACH_FIRST = """
import importlib, json, pkgutil, sys
import repro
names = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
]
failed = {}
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"n": len(names), "failed": failed}))
"""


def _run(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        check=True, timeout=300, **kwargs,
    )


def test_every_module_imports_first():
    report = json.loads(_run(["-c", _IMPORT_EACH_FIRST]).stdout)
    assert report["n"] >= 50  # the walk found the package's modules
    assert report["failed"] == {}


def test_setup_script_names_the_package():
    pytest.importorskip("setuptools")
    out = _run(["setup.py", "--name", "--version"], cwd=ROOT).stdout.split()
    assert out[-2:] == ["repro", repro.__version__]


_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_FROM_REPRO = re.compile(r"^from repro[\w.]* import (?:\([^)]*\)|.*)$", re.M)


def _repro_imports(block: str) -> list[ast.ImportFrom]:
    """A code block's ``from repro... import ...`` statements.  A block
    that does not parse (a sketch) contributes its ``from repro`` lines."""
    try:
        tree = ast.parse(block)
    except SyntaxError:
        tree = ast.parse("\n".join(_FROM_REPRO.findall(block)))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "repro"
    ]


def test_docs_import_lines_resolve():
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    blocks = [
        (doc.name, block)
        for doc in docs for block in _PYTHON_BLOCK.findall(doc.read_text())
    ]
    assert len(blocks) >= 8  # the scan found the docs' python blocks
    failed = {}
    for name, block in blocks:
        for node in _repro_imports(block):
            statement = ast.unparse(node)
            try:
                exec(statement, {})
            except ImportError as exc:
                failed[f"{name}: {statement}"] = str(exc)
    assert failed == {}
