"""The slow reference forms stay test oracles, never production paths.

A static scan of ``src/collatzq`` with ``ast``: the stepwise,
repeated-multiplication and Python start-generator oracles are used
nowhere there, and the census
modules reach members through the sieve's leaf alone, never through a word
re-evaluation, a second eigenvalue test, the word enumerator or the
prefilter.  Imports are not uses: ``perfbench/spans.py`` patches some of
these names on ``collatzq.census``, so they stay imported there.
"""

import ast
from pathlib import Path

import pytest

import collatzq

SRC = Path(collatzq.__file__).resolve().parent

ORACLES = {"orbit_pq", "replay_word_pq", "mat_pow", "reduced_fractions"}
NOT_IN_CENSUS = {
    "word_eval",
    "word_eval_general",
    "integer_eigenvalues",
    "enumerate_lambda_block",
    "prefilter_excludes",
}


def uses(path: Path) -> set[str]:
    """Names a module reads as values (calls, arguments, attributes), not
    the names it imports or defines."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_oracles_are_not_used_in_src(path):
    assert uses(path) & ORACLES == set()


@pytest.mark.parametrize("name", ["census.py", "sieve.py"])
def test_census_modules_neither_reevaluate_nor_retest(name):
    assert uses(SRC / name) & NOT_IN_CENSUS == set()
