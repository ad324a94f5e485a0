"""Property tests: the raw-integer census leaf against its oracles.

The block walk, the sampled draw and the counterexample search decide
membership on raw integers; ``word_eval``/``word_eval_general`` followed by
``integer_eigenvalues`` is the oracle.  The residue tables may reject only
non-squares.  A fixed derandomized profile keeps these fast and repeatable.
"""

import importlib
import math
import random

from hypothesis import given, settings, strategies as st

from collatzq import (
    GeneratorPair,
    Mat2,
    OmegaMember,
    census_sampled,
    compute_nk,
    integer_eigenvalues,
    search_counterexamples,
    word_eval,
    word_eval_general,
)
from collatzq.words import Word, enumerate_lambda, enumerate_lambda_block, lambda_prefixes

# collatzq.census is shadowed by the function census in the package namespace
census_mod = importlib.import_module("collatzq.census")

PROPS = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def oracle_members(words, evaluate):
    out = []
    for w in words:
        m = evaluate(w)
        eig = integer_eigenvalues(m)
        if eig is not None:
            out.append(OmegaMember(w, m, eig))
    return out


@st.composite
def boxes_and_blocks(draw):
    k = draw(st.integers(1, 3))
    M = draw(st.integers(1, {1: 12, 2: 6, 3: 4}[k]))
    b1, a1 = draw(st.sampled_from(lambda_prefixes(k, M)))
    return k, M, b1, a1


@PROPS
@given(boxes_and_blocks(), st.booleans())
def test_block_leaf_matches_oracle(box, prefilter):
    k, M, b1, a1 = box
    cert = compute_nk(k) if prefilter else None
    tested, members = census_mod._census_block((k, M, b1, a1, cert))
    block = list(enumerate_lambda_block(k, M, b1, a1))
    assert tested == len(block)
    assert members == oracle_members(block, word_eval)


def test_k1_box_hits_found_by_leaf():
    # every one-block word with a zero exponent is a hit: the k=1 box has 2M+1
    M = 9
    found = []
    for b1, a1 in lambda_prefixes(1, M):
        found.extend(census_mod._census_block((1, M, b1, a1, None))[1])
    assert found == oracle_members(enumerate_lambda(1, M), word_eval)
    assert len(found) == 2 * M + 1


words = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 40), min_size=k, max_size=k),
        st.lists(st.integers(0, 40), min_size=k, max_size=k),
    )
)


@PROPS
@given(words)
def test_leaf_test_matches_integer_eigenvalues(exponents):
    w = Word(*map(tuple, exponents))
    m = word_eval(w)
    tr = m.trace()
    hit = census_mod._eigen_hit(tr, tr * tr - 4 * m.det())
    assert hit == (integer_eigenvalues(m) is not None)


big = st.integers(-(10**30), 10**30)


@PROPS
@given(big, big, st.integers(-(10**12), 10**12))
def test_leaf_test_on_triangular_and_general_matrices(lam, mu, x):
    # [lam, x; 0, mu] always has the integer eigenvalues lam and mu
    tr, det = lam + mu, lam * mu
    assert census_mod._eigen_hit(tr, tr * tr - 4 * det)
    # a general matrix is a hit exactly when the oracle says so
    m = Mat2(lam, x, 1, mu)
    tr = m.trace()
    hit = census_mod._eigen_hit(tr, tr * tr - 4 * m.det())
    assert hit == (integer_eigenvalues(m) is not None)


@PROPS
@given(st.integers(1, 3), st.integers(1, 30), st.integers(1, 300), st.integers(0, 2**32))
def test_sampled_matches_oracle(k, M, size, seed):
    row = census_sampled(k, M, size, seed, use_prefilter=False)
    # redraw the same exponents with the same call sequence
    rng = random.Random(seed)
    drawn = []
    for _ in range(size):
        betas, alphas = [], []
        for i in range(k):
            betas.append(rng.randint(0, M) if i == 0 else rng.randint(1, M))
            alphas.append(rng.randint(1, M) if i < k - 1 else rng.randint(0, M))
        drawn.append(Word(tuple(betas), tuple(alphas)))
    assert list(row.omega_members) == oracle_members(drawn, word_eval)
    assert census_sampled(k, M, size, seed, use_prefilter=True) == row


def search_oracle(k, exp_max, g, budget):
    """The word-by-word search: pure powers skipped, budget cut at a word."""
    members, tested, complete = [], 0, True
    for j in range(1, k + 1):
        for w in enumerate_lambda(j, exp_max):
            if w.sum_betas() == 0 or w.sum_alphas() == 0:
                continue
            if tested >= budget:
                complete = False
                break
            tested += 1
            members.extend(oracle_members([w], lambda w: word_eval_general(w, g)))
        if not complete:
            break
    return tuple(members), tested, complete


pairs = st.sampled_from(
    # the default pair has no hits here; the others have hits at k = 1 and 2
    [GeneratorPair(3, 1, 1, 2), GeneratorPair(2, 1, 1, 2), GeneratorPair(3, 2, 2, 3)]
)


@PROPS
@given(st.integers(1, 3), st.integers(1, 4), pairs, st.integers(0, 400))
def test_search_matches_oracle(k, exp_max, g, budget):
    result = search_counterexamples(k, exp_max, g, budget)
    assert (result.members, result.words_tested, result.complete) == search_oracle(
        k, exp_max, g, budget
    )


def test_search_pair_with_hits_in_every_block_count():
    g = GeneratorPair(2, 1, 1, 2)
    result = search_counterexamples(2, 4, g)
    assert (result.members, result.words_tested, result.complete) == search_oracle(
        2, 4, g, 10**6
    )
    assert {m.word.k for m in result.members} == {1, 2}


@PROPS
@given(st.integers(1, 3), st.integers(1, 4), pairs, st.booleans(), st.data())
def test_walk_matches_oracle_on_pairs_with_hits(k, M, g, swap, data):
    # both generator orders, and a limit that may cut the block anywhere
    left, right = (g.a_power, g.b_power) if swap else (g.b_power, g.a_power)
    b1, a1 = data.draw(st.sampled_from(lambda_prefixes(k, M)))
    block = list(enumerate_lambda_block(k, M, b1, a1))
    limit = data.draw(st.integers(0, len(block) + 2))
    walked, hits = census_mod._walk_block(left, right, k, M, b1, a1, M, limit)
    assert walked == min(limit, len(block))

    def evaluate(w):
        m = Mat2.identity()
        for b, a in zip(w.betas, w.alphas):
            m = m * left(b) * right(a)
        return m

    expected = oracle_members(block[:limit], evaluate)
    assert hits == [m.word.exponents() for m in expected]


RESIDUE_TABLES = [
    (64, census_mod._SQ64),
    (63, census_mod._SQ63),
    (65, census_mod._SQ65),
    (11, census_mod._SQ11),
]


def test_residue_tables_admit_every_square_class():
    for m, table in RESIDUE_TABLES:
        assert len(table) == m
        for s in range(m):
            assert table[s * s % m], (m, s)
    for s in range(2 * 45045):
        assert census_mod._may_be_square(s * s)


def test_residue_tables_reject_most_non_squares():
    non_squares = [n for n in range(100_000) if math.isqrt(n) ** 2 != n]
    admitted = sum(census_mod._may_be_square(n) for n in non_squares)
    assert admitted < 0.02 * len(non_squares)


@PROPS
@given(st.integers(0, 2**4000))
def test_residue_tables_admit_large_squares(s):
    assert census_mod._may_be_square(s * s)
