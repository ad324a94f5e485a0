"""The slow reference forms stay test oracles, never production paths.

A static scan of ``src/collatzq`` with ``ast``: the stepwise,
repeated-multiplication and Python start-generator oracles are used
nowhere there, and the census
modules reach members through the sieve's leaf alone, never through a word
re-evaluation, a second eigenvalue test, the word enumerator or the
prefilter.  Imports are not uses: ``perfbench/spans.py`` patches some of
these names on ``collatzq.census``, so they stay imported there.  The leaf
alone builds a member, resumed ones included: ``census.py`` calls no member,
matrix, eigenvalue pair or word constructor, and no digit-limit lift, since
its checkpoints hold no large integer.  Nor does
any module reach for private CPython APIs: no underscore attribute of
``Fraction`` and no underscore keyword argument.  And every public
function, class and method is read somewhere in ``src/collatzq`` (its
re-exports in ``__init__`` aside) or in ``perfbench/``, or is kept on a
list with its reason.
"""

import ast
from pathlib import Path

import pytest

import collatzq

SRC = Path(collatzq.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ORACLES = {"orbit_pq", "replay_word_pq", "mat_pow", "reduced_fractions"}
NOT_IN_CENSUS = {
    "word_eval",
    "word_eval_general",
    "integer_eigenvalues",
    "enumerate_lambda_block",
    "prefilter_excludes",
}


NOT_CALLED_IN_CENSUS = {"OmegaMember", "Mat2", "EigenPair", "Word", "unlimited_int_digits"}


def calls(source: str) -> set[str]:
    """Names a module calls, by name or as an attribute, or decorates with."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        targets = [node.func] if isinstance(node, ast.Call) else []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets += node.decorator_list
        for target in targets:
            if isinstance(target, ast.Name):
                found.add(target.id)
            elif isinstance(target, ast.Attribute):
                found.add(target.attr)
    return found


def uses(source: str, strings: bool = False) -> set[str]:
    """Names a module reads as values (calls, arguments, attributes), not
    the names it imports or defines; with ``strings`` also its string
    constants, for a module that patches functions by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_oracles_are_not_used_in_src(path):
    assert uses(read(path)) & ORACLES == set()


@pytest.mark.parametrize("name", ["census.py", "sieve.py"])
def test_census_modules_neither_reevaluate_nor_retest(name):
    assert uses(read(SRC / name)) & NOT_IN_CENSUS == set()


def test_census_builds_no_member_and_lifts_no_digit_limit():
    assert calls(read(SRC / "census.py")) & NOT_CALLED_IN_CENSUS == set()


def test_call_scan_flags_planted_constructors():
    source = (
        "from .core import EigenPair, Mat2, unlimited_int_digits\n"
        "member: OmegaMember | None = None\n"
        "@unlimited_int_digits()\n"
        "def load(d):\n"
        "    word = words.Word(d['betas'], d['alphas'])\n"
        "    return OmegaMember(word, Mat2(*d['matrix']), EigenPair(d['lambda'], d['mu']))\n"
        "@unlimited_int_digits\n"
        "def save(d):\n"
        "    pass\n"
    )
    assert calls(source) & NOT_CALLED_IN_CENSUS == NOT_CALLED_IN_CENSUS
    # imports and annotations are not calls
    assert calls(source.split("@")[0]) & NOT_CALLED_IN_CENSUS == set()
    assert calls("@unlimited_int_digits\ndef f():\n    pass\n") == {"unlimited_int_digits"}


# public names that neither src/collatzq nor perfbench/ reads, and why they stay
KEPT = {
    "mat_pow": "test oracle: powers by repeated multiplication",
    "word_eval_general": "test oracle: word products over any generator pair",
    "sigma_term": "test oracle: one term of the subset-pair sums",
    "mobius_apply": "test oracle: a matrix acting on a rational",
    "read_members_jsonl": "API: reads back the members JSONL that search and density write",
    "complete_to_sl2": "API: SL2 completion, listed in the README",
    "NkCertificate.product_value": "API: the product witness as a Fraction",
}


def public_names(source: str) -> set[str]:
    """Top-level functions and classes, and methods as ``Class.method``,
    whose names have no leading underscore."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.add(node.name)
            if isinstance(node, ast.ClassDef):
                found |= {f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    return found


def unread(modules: list[str], readers: list[str], patchers: list[str]) -> set[str]:
    """The public names of ``modules`` (a method by its own name) that no
    reader reads and no patcher reads or names in a string."""
    seen = set().union(*map(uses, readers), *(uses(s, strings=True) for s in patchers))
    return {name for source in modules for name in public_names(source)
            if name.rpartition(".")[2] not in seen}


def test_every_public_name_is_read_or_kept():
    modules = {p.name: read(p) for p in SRC.glob("*.py")}
    readers = [source for name, source in modules.items() if name != "__init__.py"]
    patchers = [read(p) for p in PERFBENCH.glob("*.py")]
    assert unread(list(modules.values()), readers, patchers) == set(KEPT)


def test_unread_scan_flags_a_planted_method():
    module = (
        "class Word:\n"
        "    def k(self):\n"
        "        return 1\n"
        "    def in_box(self, M):\n"
        "        return self.k() <= M\n"
        "def _helper():\n"
        "    pass\n"
    )
    caller = "print(Word().k())\n"
    assert unread([module], [module, caller], []) == {"Word.in_box"}
    assert unread([module], [module], []) == {"Word", "Word.in_box"}
    assert unread([module], [caller], ['patch(words, "in_box", wrap)']) == set()


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
