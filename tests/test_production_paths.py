"""The slow reference forms stay test oracles, never production paths.

A static scan of ``src/collatzq`` with ``ast``: the stepwise,
repeated-multiplication and Python start-generator oracles are used
nowhere there, and the census
modules reach members through the sieve's leaf alone, never through a word
re-evaluation, a second eigenvalue test, the word enumerator or the
prefilter.  Imports are not uses: ``perfbench/spans.py`` patches some of
these names on ``collatzq.census``, so they stay imported there.  Nor does
any module reach for private CPython APIs: no underscore attribute of
``Fraction`` and no underscore keyword argument.
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


def private_uses(source: str) -> list[str]:
    """Underscore attributes of ``Fraction`` (read directly or by
    getattr/hasattr) and underscore keyword arguments, as text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if isinstance(node.value, ast.Name) and node.value.id == "Fraction":
                found.append(f"Fraction.{node.attr}")
        elif isinstance(node, ast.Call):
            found += [f"{kw.arg}=" for kw in node.keywords if kw.arg and kw.arg.startswith("_")]
            if (isinstance(node.func, ast.Name) and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "Fraction"
                    and isinstance(node.args[1], ast.Constant)
                    and str(node.args[1].value).startswith("_")):
                found.append(f"Fraction.{node.args[1].value}")
    return found


def test_private_use_scan_flags_the_private_constructors():
    source = (
        "if hasattr(Fraction, '_from_coprime_ints'):\n"
        "    x = Fraction._from_coprime_ints(n, d)\n"
        "y = Fraction(n, d, _normalize=False)\n"
        "z = Fraction(n, d)\n"
    )
    assert sorted(private_uses(source)) == [
        "Fraction._from_coprime_ints", "Fraction._from_coprime_ints", "_normalize="]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_fraction_api_in_src(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []
