"""Packaging: every third-party import is a declared dependency, CI tests
the Python version that the package declares as its floor, and the package
root holds only its modules.

The library's imports must be in ``dependencies`` and the tests' in those or
the ``test`` extra, which CI installs, so the two lists cannot drift apart.
"""

import ast
import inspect
import re
import sys
import tomllib
from pathlib import Path

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


def test_ci_runs_the_declared_python_floor():
    # requires-python = ">=3.11" and python-version: "3.11"; the workflow is
    # read as text, as no YAML parser is a dependency
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", project["requires-python"]).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    versions = re.findall(r"""python-version:\s*["']?([\d.]+)["']?""", workflow)
    assert versions == [floor]


def test_census_is_the_module():
    import collatzq.census as c

    assert inspect.ismodule(c)
    assert c.census(2, 6).omega_count == 0


def test_package_root_holds_only_modules_and_the_version():
    # every public name is reached at one path, collatzq.<module>.<name>
    import collatzq

    public = {name: value for name, value in vars(collatzq).items() if not name.startswith("_")}
    assert {"census", "core", "dynamics", "spectral", "words"} <= public.keys()
    assert all(inspect.ismodule(value) for value in public.values()), public
    assert not hasattr(collatzq, "__all__")
    assert isinstance(collatzq.__version__, str)
