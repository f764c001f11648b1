"""Setuptools script for the ``repro`` package (sources under ``src/``).

Where the ``wheel`` package is missing, ``pip install -e .`` cannot build
an editable wheel; ``python setup.py develop`` does the equivalent
editable install with setuptools alone. The version is read as text from
``src/repro/__init__.py``, so installing never imports the package.
"""

import pathlib
import re

from setuptools import find_packages, setup

INIT = pathlib.Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="A reproduction of MP-Rec: multi-path recommendation "
    "serving (ASPLOS 2023)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
