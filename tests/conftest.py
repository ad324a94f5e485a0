"""Shared test setup: child interpreters import the collatzq the tests import.

pytest finds the package through ``pythonpath`` in ``pyproject.toml``, which
does not reach a ``python -m collatzq`` subprocess; the session puts the
package's parent directory at the front of ``PYTHONPATH`` for those.
"""

import os
from pathlib import Path

import pytest

import collatzq


@pytest.fixture(autouse=True, scope="session")
def package_on_child_path():
    root = str(Path(collatzq.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", root, prepend=os.pathsep)
        yield
