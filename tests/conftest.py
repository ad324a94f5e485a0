"""Shared test setup: child interpreters import the collatzq the tests import.

pytest finds the package through ``pythonpath`` in ``pyproject.toml``, which
does not reach a ``python -m collatzq`` subprocess; the session puts the
package's parent directory at the front of ``PYTHONPATH`` for those.  No
test may leave Python's int-to-str digit limit changed, so that no test
passes or fails by the order it runs in.
"""

import os
import sys
from pathlib import Path

import pytest

import collatzq


@pytest.fixture(autouse=True, scope="session")
def package_on_child_path():
    root = str(Path(collatzq.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", root, prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def digit_limit_unchanged():
    """Fail a test that leaves the int-to-str digit limit changed."""
    limit = sys.get_int_max_str_digits()
    yield
    if (after := sys.get_int_max_str_digits()) != limit:
        sys.set_int_max_str_digits(limit)
        pytest.fail(f"the test left the int-to-str digit limit at {after}, not {limit}")


@pytest.fixture
def low_digit_limit():
    """The int-to-str digit limit lowered to 640 digits for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)
