"""Packaging: every third-party import is a declared dependency.

The library's imports must be in ``dependencies`` and the tests' in those or
the ``test`` extra, which CI installs, so the two lists cannot drift apart.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports(directory):
    """Top-level names imported anywhere in the directory's .py files, less
    the standard library and the directory's own modules and packages."""
    files = list((ROOT / directory).rglob("*.py"))
    local = {f.stem for f in files} | {f.parent.name for f in files}
    names = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def declared(requirements):
    """The normalized distribution names of requirement strings."""
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    library = declared(project["dependencies"])
    tests = library | declared(project["optional-dependencies"]["test"])
    assert third_party_imports("src") <= library
    assert third_party_imports("tests") - {"collatzq"} <= tests
    assert {"numpy", "pytest"} <= third_party_imports("tests")  # the scan sees imports
