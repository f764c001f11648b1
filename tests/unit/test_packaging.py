"""The package stands on its own: every module imports first, and the
setup script carries the package's name and version."""

from __future__ import annotations

import json
import os
import pathlib
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
