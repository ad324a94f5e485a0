"""Words, closed-form powers, box enumeration, counting, freeness."""

import importlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from collatzq.cli import main
from collatzq.core import Mat2, mat_pow
from collatzq.errors import BudgetExceededError
from collatzq.verify import suite_freeness
from collatzq.words import (
    DEFAULT_GENERATORS,
    R,
    S,
    GeneratorPair,
    Word,
    _exponent_ranges,
    enumerate_lambda,
    enumerate_lambda_block,
    format_word_compact,
    freeness_check,
    lambda_count,
    r_power,
    s_power,
    word_det,
    word_eval,
    word_eval_general,
)

words_mod = importlib.import_module("collatzq.words")
verify_mod = importlib.import_module("collatzq.verify")


def refuse_to_enumerate(k, M):
    raise AssertionError(f"enumerated the (k={k}, M={M}) box")


def random_canonical_word(rng, k, exp_max):
    betas = [rng.randint(0, exp_max)] + [rng.randint(1, exp_max) for _ in range(k - 1)]
    alphas = [rng.randint(1, exp_max) for _ in range(k - 1)] + [rng.randint(0, exp_max)]
    return Word(tuple(betas), tuple(alphas))


def eval_by_single_mults(w):
    m = Mat2.identity()
    for b, a in zip(w.betas, w.alphas):
        for _ in range(b):
            m = m * R
        for _ in range(a):
            m = m * S
    return m


class TestClosedFormPowers:
    def test_examples(self):
        assert r_power(2) == Mat2(9, 4, 0, 1)
        assert s_power(2) == Mat2(1, 0, 3, 4)
        assert r_power(0) == Mat2.identity()
        assert s_power(0) == Mat2.identity()

    def test_against_repeated_multiplication(self):
        for n in range(9):
            assert r_power(n) == mat_pow(R, n)
            assert s_power(n) == mat_pow(S, n)

    def test_general_powers_against_repeated_multiplication(self):
        for pair in (DEFAULT_GENERATORS, GeneratorPair(2, 1, 1, 2), GeneratorPair(5, 3, 2, 4)):
            A = Mat2(pair.a, pair.u, 0, 1)
            B = Mat2(1, 0, pair.v, pair.b)
            for n in range(7):
                assert pair.a_power(n) == mat_pow(A, n)
                assert pair.b_power(n) == mat_pow(B, n)


class TestWordEval:
    def test_examples(self):
        assert word_eval(Word((1, 1), (1, 1))) == Mat2(18, 12, 6, 6)
        assert word_eval(Word((1,), (1,))) == Mat2(4, 2, 1, 2)
        assert word_eval(Word((0,), (0,))) == Mat2.identity()

    def test_three_way_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            w = random_canonical_word(rng, rng.randint(1, 4), 5)
            direct = eval_by_single_mults(w)
            folded = Mat2.identity()
            for b, a in zip(w.betas, w.alphas):
                folded = folded * r_power(b) * s_power(a)
            assert word_eval(w) == direct == folded

    def test_det_closed_form(self):
        rng = random.Random(12)
        for _ in range(100):
            w = random_canonical_word(rng, rng.randint(1, 4), 6)
            m = word_eval(w)
            assert m.det() == word_det(w) == 2 ** sum(w.alphas) * 3 ** sum(w.betas)
            assert min(m.entries()) >= 0

    def test_huge_exponents_stay_exact(self):
        # thousands-of-digits arithmetic: closed forms, det, trace, eigen test
        w = Word((1000,), (1000,))
        m = word_eval(w)
        assert m.det() == word_det(w) == 2**1000 * 3**1000
        assert r_power(1000).a == 3**1000
        from collatzq.core import integer_eigenvalues
        from collatzq.spectral import trace_fast

        assert trace_fast(w) == m.trace()
        assert integer_eigenvalues(m) is None

    def test_quadrant_freeness_witness(self):
        # words starting with an R factor keep the top row dominant; S-led
        # words the bottom row (the geometric freeness argument, as data)
        rng = random.Random(13)
        for _ in range(150):
            w = random_canonical_word(rng, rng.randint(1, 3), 4)
            m = word_eval(w)
            if w.betas[0] >= 1:
                assert m.a >= m.c and m.b >= m.d
            elif w.alphas[0] >= 1:
                assert m.a <= m.c and m.b <= m.d


class TestWordEvalGeneral:
    def test_default_pair_is_s_first(self):
        # B.A = S.R; det must equal det(S)*det(R) = 6
        got = word_eval_general(Word((1,), (1,)), DEFAULT_GENERATORS)
        assert got == S * R == Mat2(3, 1, 3, 3)
        assert got.det() == 6

    def test_small_pair(self):
        got = word_eval_general(Word((1,), (1,)), GeneratorPair(2, 1, 1, 2))
        assert got == Mat2(2, 1, 2, 3)

    def test_zero_word_identity(self):
        for pair in (DEFAULT_GENERATORS, GeneratorPair(7, 2, 3, 5)):
            assert word_eval_general(Word((0, 1), (1, 0)), pair) != Mat2.identity()
            assert word_eval_general(Word((0,), (0,)), pair) == Mat2.identity()

    def test_matches_repeated_multiplication(self):
        rng = random.Random(14)
        pair = GeneratorPair(4, 2, 3, 3)
        A = Mat2(pair.a, pair.u, 0, 1)
        B = Mat2(1, 0, pair.v, pair.b)
        for _ in range(60):
            w = random_canonical_word(rng, rng.randint(1, 3), 4)
            direct = Mat2.identity()
            for b, a in zip(w.betas, w.alphas):
                direct = direct * mat_pow(B, b) * mat_pow(A, a)
            assert word_eval_general(w, pair) == direct

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            GeneratorPair(1, 1, 1, 2)
        with pytest.raises(ValueError):
            GeneratorPair(2, 0, 1, 2)


class TestCounting:
    def test_closed_form_examples(self):
        assert lambda_count(2, 3) == 144
        assert lambda_count(1, 4) == 25
        assert lambda_count(3, 2) == 144

    def test_enumerate_11(self):
        words = list(enumerate_lambda(1, 1))
        assert [(w.betas[0], w.alphas[0]) for w in words] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_enumerate_21(self):
        words = list(enumerate_lambda(2, 1))
        assert len(words) == 4
        assert all(w.alphas[0] == 1 and w.betas[1] == 1 for w in words)

    def test_enumerate_23(self):
        words = list(enumerate_lambda(2, 3))
        assert len(words) == 144
        assert words[0].exponents() == (0, 1, 1, 0)
        assert words[-1].exponents() == (3, 3, 3, 3)
        assert len(set(words)) == 144
        tuples = [w.exponents() for w in words]
        assert tuples == sorted(tuples)  # lexicographic stream

    @pytest.mark.parametrize("k,M", [(1, 5), (2, 2), (3, 2), (2, 4)])
    def test_count_matches_enumeration(self, k, M):
        assert sum(1 for _ in enumerate_lambda(k, M)) == lambda_count(k, M)

    def test_blocks_partition_the_box(self):
        k, M = 3, 2
        by_blocks = []
        first, second = _exponent_ranges(k, M)[:2]
        for b1, a1 in itertools.product(first, second):
            by_blocks.extend(enumerate_lambda_block(k, M, b1, a1))
        assert by_blocks == list(enumerate_lambda(k, M))

    def test_canonical_invariant(self):
        # only the boundary exponents beta_1 and alpha_k may be 0
        ranges = _exponent_ranges(3, 2)
        assert [(r.start, r.stop) for r in ranges] == [(0, 3)] + [(1, 3)] * 4 + [(0, 3)]
        for w in enumerate_lambda(3, 2):
            assert all(e in r for e, r in zip(w.exponents(), ranges, strict=True))


class TestFreeness:
    @pytest.mark.parametrize("k,M", [(2, 3), (1, 5), (3, 2)])
    def test_free_at_desk_scale(self, k, M):
        assert freeness_check(k, M) is True

    def test_budget(self, monkeypatch):
        # refused on the closed-form count, before a word is enumerated
        monkeypatch.setattr(words_mod, "enumerate_lambda", refuse_to_enumerate)
        with pytest.raises(BudgetExceededError):
            freeness_check(3, 30)

    def test_suite_refuses_before_enumerating(self, monkeypatch):
        # an over-budget box is refused before the suite enumerates it
        monkeypatch.setattr(verify_mod, "enumerate_lambda", refuse_to_enumerate)
        monkeypatch.setattr(words_mod, "enumerate_lambda", refuse_to_enumerate)
        with pytest.raises(BudgetExceededError):
            suite_freeness(3, 30)

    def test_collision_is_found(self, monkeypatch, capsys):
        # S^1 evaluated as R^1: two words of the (1, 2) box share a matrix,
        # so the check fails and `verify` reports the collision as a finding
        real = words_mod.word_eval
        monkeypatch.setattr(words_mod, "word_eval",
                            lambda w: real(Word((1,), (0,)) if w == Word((0,), (1,)) else w))
        assert freeness_check(1, 2) is False
        assert main(["verify", "--suite", "freeness", "--k", "2", "--m", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["failures"], report["first_failure_witness"]) == (
            1, {"collision": "duplicate matrix in boxes up to (k=2, M=2)"})


def reduced_blocks(w):
    """(letter, exponent) blocks of w's product: zero exponents dropped and
    equal neighbours merged, so two tuples with the same blocks denote the
    same semigroup word."""
    blocks = []
    for letter, e in zip("RS" * w.k, w.exponents()):
        if e == 0:
            continue
        if blocks and blocks[-1][0] == letter:
            blocks[-1] = (letter, blocks[-1][1] + e)
        else:
            blocks.append((letter, e))
    return tuple(blocks)


# the largest M per k whose union of boxes j <= k stays near 10^4 tuples
BOX_M = {1: 30, 2: 8, 3: 4, 4: 3, 5: 2, 6: 2}


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, BOX_M[k]))))
def test_boxes_name_distinct_reduced_words(km):
    # freeness_check compares the tuples' matrices with no identification
    # step, which is sound because no two tuples reduce to one word
    k, M = km
    words = [w for j in range(1, k + 1) for w in enumerate_lambda(j, M)]
    assert len({reduced_blocks(w) for w in words}) == len(words)


def test_reduced_blocks_identify_tuples_outside_the_boxes():
    # an interior 0 lets two tuples name one word: R^1 S^0 R^2 S^1 = R^3 S^1
    assert reduced_blocks(Word((1, 2), (0, 1))) == reduced_blocks(Word((3,), (1,))) == (
        ("R", 3), ("S", 1))
    assert reduced_blocks(Word((0, 1), (2, 0))) == (("S", 2), ("R", 1))
    assert reduced_blocks(Word((0,), (0,))) == ()


class TestTextFormats:
    def test_format(self):
        w = Word((3, 2), (1, 4))
        assert format_word_compact(w) == "3,1,2,4"

    def test_word_validation(self):
        with pytest.raises(ValueError):
            Word((), ())
        with pytest.raises(ValueError):
            Word((1,), (1, 2))
        with pytest.raises(ValueError):
            Word((-1,), (0,))
