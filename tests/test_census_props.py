"""Property tests: the census leaf pipeline against its oracles.

Census word ranges, sampled draws and the counterexample search go through
the modular sieve and confirm its survivors on raw integers, where the leaf
builds each hit's matrix and eigenvalues.  The oracle is the plain one:
every word of ``enumerate_lambda_block`` (or ``enumerate_lambda``) is
multiplied out (``word_eval``, ``word_eval_general`` or ``product``) and
given to ``integer_eigenvalues``.  A (beta_1, alpha_1) block is one
contiguous word range, so the sieve over that range, cut at a word limit,
is compared with the oracle over the block cut at the same word.  The
exact test ``eigen_from_disc`` is checked against a plain ``math.isqrt``,
and results may not depend on the chunk size or the worker count.  A
density sweep's rows, read off one census of its largest box, must equal
a census per M, and a census must be the sweep's one row, bound included.
A fixed derandomized profile keeps these fast and repeatable.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collatzq.census as census_mod
import collatzq.sieve as sieve_mod
from collatzq.census import (
    census,
    census_sampled,
    density_sweep,
    search_counterexamples,
    theorem_density_bound,
)
from collatzq.core import Mat2, eigen_from_disc, integer_eigenvalues
from collatzq.sieve import OmegaMember
from collatzq.spectral import compute_nk
from collatzq.words import (
    GeneratorPair,
    Word,
    _exponent_ranges,
    enumerate_lambda,
    enumerate_lambda_block,
    lambda_count,
    r_power,
    s_power,
    word_eval,
    word_eval_general,
)

PROPS = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def oracle_members(words, evaluate):
    out = []
    for w in words:
        m = evaluate(w)
        eig = integer_eigenvalues(m)
        if eig is not None:
            out.append(OmegaMember(w, m, eig))
    return out


def product(left, right, exponents):
    """left^e0 right^e1 left^e2 ..., multiplied out."""
    m = Mat2.identity()
    for i, e in enumerate(exponents):
        m = m * (left, right)[i % 2](e)
    return m


def draw_block(draw, k, M):
    """A (b1, a1) block of the (k, M) box."""
    first, second = _exponent_ranges(k, M)[:2]
    return draw(st.sampled_from(first)), draw(st.sampled_from(second))


def block_range(k, M, b1, a1):
    """(start, size): the (b1, a1) block as a range of the box's words."""
    first, second = _exponent_ranges(k, M)[:2]
    size = lambda_count(k, M) // (len(first) * len(second))
    return ((b1 - first.start) * len(second) + a1 - second.start) * size, size


@st.composite
def boxes_and_blocks(draw):
    k = draw(st.integers(1, 3))
    M = draw(st.integers(1, {1: 12, 2: 6, 3: 4}[k]))
    return (k, M, *draw_block(draw, k, M))


def census_range(k, M, start, stop):
    """(words tested, members) of census words start to stop - 1."""
    chunks = list(census_mod._census_words(k, M, start, stop))
    return sum(t for t, _ in chunks), [m for _, found in chunks for m in found]


@PROPS
@given(boxes_and_blocks())
def test_block_leaf_matches_oracle(box):
    k, M, b1, a1 = box
    start, size = block_range(k, M, b1, a1)
    tested, members = census_range(k, M, start, start + size)
    block = list(enumerate_lambda_block(k, M, b1, a1))
    assert tested == len(block)
    assert members == oracle_members(block, word_eval)


def test_k1_box_hits_found_by_leaf():
    # every one-block word with a zero exponent is a hit: the k=1 box has 2M+1
    M = 9
    found = []
    for i in range(lambda_count(1, M)):  # one word at a time
        found.extend(census_range(1, M, i, i + 1)[1])
    assert found == oracle_members(enumerate_lambda(1, M), word_eval)
    assert len(found) == 2 * M + 1


def test_k1_members_are_the_words_with_a_zero_exponent():
    for M in (*range(1, 41), 200):
        members = [m.word.exponents() for m in census(1, M).omega_members]
        zero = [(b, a) for b in range(M + 1) for a in range(M + 1) if 0 in (b, a)]
        assert members == zero and len(members) == 2 * M + 1, M


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 400), st.integers(1, 400))
def test_k1_words_without_a_zero_exponent_are_no_members(beta, alpha):
    """The hand proof that the k = 1 members are the words with a zero exponent.

    With a zero exponent, R^beta S^alpha is triangular and its eigenvalues
    are its diagonal entries.  Otherwise let beta, alpha >= 1 and
    w = R^beta S^alpha, with det = 2^alpha 3^beta and
    2 tr = (3^beta + 1)(2^alpha + 1), checked here.  Integer eigenvalues
    lambda >= mu are positive (their product and sum are), and mu <= 4:
    lambda >= tr/2 > det/4, since 2 tr > 2^alpha 3^beta, so mu = det/lambda < 4.
    But mu is a root of p(x) = 2x^2 - 2 tr x + 2 det, and
    p(1) = (3^beta - 1)(2^alpha - 1) > 0, while p(2) = 6 - 2*3^beta - 2^(alpha+1),
    p(3) = 15 - 2^alpha 3^beta - 3^(beta+1) - 3*2^alpha and
    p(4) = 28 - 2^(alpha+1) 3^beta - 4*3^beta - 2^(alpha+2) are all negative.
    So no mu in 1..4 is a root, and ``integer_eigenvalues`` must say None.
    """
    m = word_eval(Word((beta,), (alpha,)))
    assert 2 * m.trace() == (3**beta + 1) * (2**alpha + 1)
    assert m.det() == 2**alpha * 3**beta
    assert integer_eigenvalues(m) is None


words = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 40), min_size=k, max_size=k),
        st.lists(st.integers(0, 40), min_size=k, max_size=k),
    )
)


def isqrt_eigen(tr, disc):
    """The eigenvalue pair by a plain ``math.isqrt``, or None."""
    s = math.isqrt(max(disc, 0))
    if s * s != disc or (tr - s) % 2:
        return None
    return (tr - s) // 2, (tr + s) // 2


@PROPS
@given(words)
def test_leaf_test_matches_integer_eigenvalues(exponents):
    w = Word(*map(tuple, exponents))
    m = word_eval(w)
    tr = m.trace()
    disc = tr * tr - 4 * m.det()
    assert eigen_from_disc(tr, disc) == isqrt_eigen(tr, disc) == integer_eigenvalues(m)


big = st.integers(-(10**30), 10**30)


@PROPS
@given(big, big, st.integers(-(10**12), 10**12))
def test_leaf_test_on_triangular_and_general_matrices(lam, mu, x):
    # [lam, x; 0, mu] always has the integer eigenvalues lam and mu
    tr, det = lam + mu, lam * mu
    assert eigen_from_disc(tr, tr * tr - 4 * det) == (min(lam, mu), max(lam, mu))
    # a general matrix is a hit exactly when the plain isqrt test says so
    m = Mat2(lam, x, 1, mu)
    tr = m.trace()
    disc = tr * tr - 4 * m.det()
    assert eigen_from_disc(tr, disc) == isqrt_eigen(tr, disc) == integer_eigenvalues(m)


def check_sampled_against_oracle(k, M, size, seed):
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


@PROPS
@given(st.integers(1, 3), st.integers(1, 30), st.integers(1, 300), st.integers(0, 2**32))
def test_sampled_matches_oracle(k, M, size, seed):
    check_sampled_against_oracle(k, M, size, seed)


@settings(PROPS, max_examples=10)
@given(st.integers(1, 3), st.integers(16380, 16390), st.integers(1, 8), st.integers(0, 2**32))
def test_sampled_matches_oracle_past_a_chunk_of_exponents(k, M, size, seed):
    # the power tables then cover each batch's own draws, not 0..M
    check_sampled_against_oracle(k, M, size, seed)


def search_oracle(k, exp_max, g, budget):
    """The word-by-word search: pure powers skipped, budget cut at a word."""
    members, tested, complete = [], 0, True
    for j in range(1, k + 1):
        for w in enumerate_lambda(j, exp_max):
            if sum(w.betas) == 0 or sum(w.alphas) == 0:
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


# ---------------------------------------------------------------------------
# The modular sieve: survivors, chunking, workers, draws
# ---------------------------------------------------------------------------

# boxes small enough that one word per chunk stays fast
SMALL_TOP = {1: 12, 2: 6, 3: 3, 4: 2}
small_boxes = st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, SMALL_TOP[k]))
)


@PROPS
@given(st.integers(1, 4), pairs, st.booleans(), st.data())
def test_sieve_survivors_cover_oracle_hits(k, g, swap, data):
    # both generator orders, and a limit that may cut the block anywhere
    M = data.draw(st.integers(1, {1: 12, 2: 6, 3: 4, 4: 3}[k]))
    left, right = (g.a_power, g.b_power) if swap else (g.b_power, g.a_power)
    b1, a1 = draw_block(data.draw, k, M)
    start, size = block_range(k, M, b1, a1)
    limit = data.draw(st.integers(0, size + 2))
    block = [w.exponents() for w in enumerate_lambda_block(k, M, b1, a1)][:limit]
    # the leaf builds each member: its word, product and eigenvalues
    words = [Word(e[0::2], e[1::2]) for e in block]
    expected = oracle_members(words, lambda w: product(left, right, w.exponents()))

    ranges = _exponent_ranges(k, M)
    leaves = sieve_mod._Leaves(left, right, ranges, 2)
    survivors = sieve_mod._sieve(leaves.tables, np.array([[b1, a1]]), leaves)
    assert {words.index(h.word) for h in expected} <= set(survivors.tolist())

    chunks = list(sieve_mod.sieve_words(left, right, ranges, start, start + len(block)))
    found = [h for _, chunk in chunks for h in chunk]
    assert (sum(t for t, _ in chunks), found) == (len(block), expected)


@PROPS
@given(small_boxes, st.booleans(), st.integers(0, 2**32))
def test_results_independent_of_chunk_size(box, prefilter, seed):
    k, M = box
    default = sieve_mod.SIEVE_CHUNK_WORDS
    total = lambda_count(k, M)
    results = []
    # one word, a few words, one word short of the box (it splits), the default
    for chunk in (1, 7, max(1, total - 1), default):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
            results.append((census(k, M, prefilter), census_sampled(k, M, 50, seed, prefilter)))
    assert all(r == results[-1] for r in results)


@PROPS
@given(small_boxes, st.data())
def test_any_word_range_matches_oracle(box, data):
    # ranges that start and stop anywhere, under chunks of one word up to
    # the default
    k, M = box
    total = lambda_count(k, M)
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, total))
    chunk = data.draw(st.sampled_from([1, 7, 9, sieve_mod.SIEVE_CHUNK_WORDS]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
        tested, members = census_range(k, M, start, stop)
    words = list(enumerate_lambda(k, M))[start:stop]
    assert tested == len(words)
    assert members == oracle_members(words, word_eval)


@PROPS
@given(st.integers(1, 3), st.integers(1, 4), pairs, st.integers(0, 400), st.sampled_from([1, 7, 9]))
def test_search_budget_cut_under_any_chunk_size(k, exp_max, g, budget, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
        result = search_counterexamples(k, exp_max, g, budget)
    assert (result.members, result.words_tested, result.complete) == search_oracle(
        k, exp_max, g, budget
    )


def test_search_on_boxes_without_words_is_complete():
    # exp_max < 1 leaves no word that is not a pure power
    for k in (1, 2, 3):
        for exp_max in (0, -1):
            result = search_counterexamples(k, exp_max)
            assert (result.members, result.words_tested, result.complete) == ((), 0, True)


def test_sieve_builds_only_the_heads_its_limit_reaches(monkeypatch):
    # the (3, 40) box fixes exponents up to the fourth, so a head covers
    # 40 * 41 = 1640 words; the box has 41 * 40^3 heads, 9 to a chunk
    rows = []
    hits = sieve_mod._Leaves.hits

    def counting(self, heads, lo, hi):
        rows.append(len(heads))
        return hits(self, heads, lo, hi)

    monkeypatch.setattr(sieve_mod._Leaves, "hits", counting)
    ranges = _exponent_ranges(3, 40)
    [(tested, found)] = sieve_mod.sieve_words(r_power, s_power, ranges, 0, 5000)
    assert rows == [math.ceil(5000 / 1640)]
    block = itertools.islice(enumerate_lambda_block(3, 40, 0, 1), 5000)
    expected = oracle_members(block, word_eval)
    assert (tested, found) == (5000, expected)
    # words 3,000 to 7,999 of a chunk inside the box: its heads 1 to 4
    rows.clear()
    start = 9 * 1640 * 1000 + 3000
    [(tested, found)] = sieve_mod.sieve_words(r_power, s_power, ranges, start, start + 5000)
    assert tested == 5000 and rows == [4]


@pytest.fixture
def whole_tables(monkeypatch):
    """For each leaf pipeline built, whether it has whole power tables."""
    built = []
    init = sieve_mod._Leaves.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self.tables is not None)

    monkeypatch.setattr(sieve_mod._Leaves, "__init__", recording)
    return built


def table_edges(top):
    """(chunk, whole tables?) about a box's largest exponent ``top``:
    per-call tables at top = chunk + 1, whole ones from top = chunk down."""
    return [(top - 1, False), (top, True), (top + 1, True)]


@pytest.mark.parametrize("k,M", [(1, 9), (2, 5), (3, 3)])
def test_census_same_with_whole_and_per_call_tables(k, M, whole_tables, monkeypatch):
    expected = oracle_members(enumerate_lambda(k, M), word_eval)
    for chunk, whole in table_edges(M):
        monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
        for prefilter in (True, False):
            assert list(census(k, M, prefilter).omega_members) == expected, chunk
        assert whole_tables == [whole, whole]
        whole_tables.clear()


@pytest.mark.parametrize("g", [GeneratorPair(3, 1, 1, 2), GeneratorPair(2, 1, 1, 2)])
@pytest.mark.parametrize("k,exp_max,budget", [(1, 12, 200), (2, 4, 120), (3, 3, 1000)])
def test_search_same_with_whole_and_per_call_tables(
    g, k, exp_max, budget, whole_tables, monkeypatch
):
    expected = search_oracle(k, exp_max, g, budget)
    for chunk, whole in table_edges(exp_max):
        monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
        result = search_counterexamples(k, exp_max, g, budget)
        assert (result.members, result.words_tested, result.complete) == expected, chunk
        assert set(whole_tables) == {whole}
        whole_tables.clear()


@pytest.mark.parametrize("g", [GeneratorPair(3, 1, 1, 2), GeneratorPair(2, 1, 1, 2)])
@pytest.mark.parametrize("exp_max", [16384, 16385])
def test_search_at_a_chunk_of_exponents(g, exp_max, whole_tables):
    # the real chunk: a one-block box of top 16,384 has tails of 16,384
    # words and whole tables; one more exponent and every word is a head
    result = search_counterexamples(1, exp_max, g, 300)
    assert (result.members, result.words_tested, result.complete) == search_oracle(
        1, exp_max, g, 300
    )
    assert whole_tables == [exp_max == sieve_mod.SIEVE_CHUNK_WORDS]


@pytest.mark.parametrize("k,M", [(1, 30), (2, 8), (3, 5)])
def test_sampled_same_with_whole_and_per_call_tables(k, M, whole_tables, monkeypatch):
    for chunk, whole in table_edges(M):
        monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
        check_sampled_against_oracle(k, M, 200, seed=k * M)
        assert whole_tables == [whole, whole]
        whole_tables.clear()


@pytest.mark.parametrize("k,M", [(1, 9), (2, 7), (3, 4)])
def test_census_same_on_one_and_two_workers(k, M):
    for prefilter in (True, False):
        assert census(k, M, prefilter, workers=2) == census(k, M, prefilter, workers=1)


@st.composite
def sweeps(draw):
    k = draw(st.integers(1, 3))
    hi = draw(st.integers(1, {1: 12, 2: 5, 3: 3}[k]))
    return k, (draw(st.integers(1, hi)), hi)


@settings(PROPS, max_examples=30)
@given(sweeps(), st.booleans(), st.sampled_from([1, 2]), st.sampled_from([1, 7, None]))
def test_sweep_rows_match_a_census_per_M(sweep, prefilter, workers, chunk):
    # rows read off the one census of the largest box, against a census of
    # every box with the proof's bound attached
    k, (lo, hi) = sweep
    n = compute_nk(k).n
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
        rows = density_sweep(k, (lo, hi), prefilter, workers=workers)
    assert rows == [
        dataclasses.replace(census(k, M, prefilter), density_bound=theorem_density_bound(k, M, n))
        for M in range(lo, hi + 1)
    ]


@st.composite
def boxes_about_n(draw):
    """(k, M) with M on either side of the prefilter threshold n(k)."""
    k = draw(st.integers(1, 3))
    n = compute_nk(k).n
    return k, draw(st.integers(max(1, n - 2), n + 1))


@PROPS
@given(boxes_about_n(), st.booleans(), st.sampled_from([1, 2]))
def test_census_is_the_one_row_sweep(box, prefilter, workers):
    # a census row carries the proof's bound like every density row
    k, M = box
    row = census(k, M, prefilter, workers=workers)
    assert row == density_sweep(k, (M, M), prefilter, workers=workers)[0]
    assert row.density_bound == theorem_density_bound(k, M, compute_nk(k).n)


def test_sieve_arithmetic_is_exact_in_int64():
    m = sieve_mod.SIEVE_MODULUS
    assert m == math.prod(sieve_mod.SIEVE_FACTORS) == 5 * 7 * 11 * 13 * 17 * 19 * 23
    assert math.gcd(*sieve_mod.SIEVE_FACTORS) == 1
    # the determinant 2^a 3^b is a unit mod m
    assert math.gcd(m, 6) == 1
    # the largest intermediate: a trace, a sum of four products of residues
    assert 4 * (m - 1) ** 2 < 2**63
    # stage 2a in int32 mod q1: a product of two residues, a trace of four,
    # and disc1 = tr1^2 - 4 det1 with tr1 reduced and det1 a product
    q1 = sieve_mod.SIEVE_FACTORS[0]
    assert (q1 - 1) ** 2 < 2**25 and 4 * (q1 - 1) ** 2 < 2**27
    assert -(2**27) < -4 * (q1 - 1) ** 2 and (q1 - 1) ** 2 < 2**25 < 2**31
    for q, squares in zip(sieve_mod.SIEVE_FACTORS, sieve_mod._sieve_squares()):
        assert len(squares) == q
        for s in range(q):
            assert squares[s * s % q], (q, s)


# ---------------------------------------------------------------------------
# The tail product and the small-eigenvalue stage
# ---------------------------------------------------------------------------

tail_pairs = st.sampled_from([GeneratorPair(3, 1, 1, 2), GeneratorPair(5, 3, 2, 7)])


@st.composite
def boxes_and_heads(draw):
    """(ranges, p, heads): a box of 1 to 6 exponent ranges within 0..8 and
    1 to 4 heads fixing its first p exponents; p = len(ranges) leaves heads
    only, as sampled draws and checkpoint words are."""
    ranges = []
    for _ in range(draw(st.integers(1, 6))):
        lo = draw(st.integers(0, 8))
        ranges.append(range(lo, draw(st.integers(lo + 1, 9))))
    p = draw(st.integers(1, len(ranges)))
    heads = draw(st.lists(st.tuples(*map(st.sampled_from, ranges[:p])), min_size=1, max_size=4))
    return ranges, p, np.array(heads, dtype=np.int64).reshape(-1, p)


def residues_by_oracle(left, right, heads, tails):
    """(tr, det) mod m of each word of ``heads`` x ``tails``, multiplied out."""
    m = sieve_mod.SIEVE_MODULUS
    out = []
    for head in heads.tolist():
        for tail in itertools.product(*tails):
            w = product(left, right, [*head, *tail])
            out.append((w.trace() % m, w.det() % m))
    return out


def traces_of_every_word(tables, heads, tail):
    """``_traces`` of every word of ``heads`` x ``tail``, in order."""
    words = np.arange(len(heads) * tail.shape[1])
    return sieve_mod._traces(sieve_mod._head_products(tables, heads), tail, words)


@PROPS
@given(tail_pairs, st.booleans(), boxes_and_heads())
def test_traces_of_heads_and_tails_are_products_mod_m(g, swap, box):
    ranges, p, heads = box
    left, right = (g.a_power, g.b_power) if swap else (g.b_power, g.a_power)
    leaves = sieve_mod._Leaves(left, right, ranges, p)
    assert leaves.tail.shape == (5, math.prod(map(len, ranges[p:])))
    tr, det = traces_of_every_word(leaves.tables, heads, leaves.tail)
    expected = residues_by_oracle(left, right, heads, ranges[p:])
    assert list(zip(tr.tolist(), det.tolist())) == expected


@PROPS
@given(tail_pairs, st.booleans(), st.integers(1, 3), st.data())
def test_traces_of_heads_with_tables_of_their_own_exponents(g, swap, k, data):
    # past a chunk of exponents each call tabulates its heads' exponents
    left, right = (g.a_power, g.b_power) if swap else (g.b_power, g.a_power)
    top = sieve_mod.SIEVE_CHUNK_WORDS + 3000
    row = st.lists(st.integers(0, top), min_size=2 * k, max_size=2 * k)
    heads = np.array(data.draw(st.lists(row, min_size=1, max_size=3)), dtype=np.int64)
    leaves = sieve_mod._Leaves(left, right, [range(top + 1)] * (2 * k), 2 * k)
    assert leaves.tables is None
    values, columns = np.unique(heads.ravel(), return_inverse=True)
    tables = leaves._tables(values)
    tr, det = traces_of_every_word(tables, columns.reshape(heads.shape), leaves.tail)
    assert list(zip(tr.tolist(), det.tolist())) == residues_by_oracle(left, right, heads, [])


def sieve_by_oracle(tables, heads, leaves):
    """Flat indices of the words of ``heads`` x ``leaves.tail_ranges`` that
    pass the square tests mod both factors and, unless ``leaves.mus`` is
    None, the small-eigenvalue congruence.  Each word's tr and det are
    multiplied out from the columns of ``tables`` on Python integers, then
    taken mod m."""
    m = sieve_mod.SIEVE_MODULUS
    squares = [{s * s % q for s in range(q)} for q in sieve_mod.SIEVE_FACTORS]
    mus = [] if leaves.mus is None else leaves.mus.tolist()
    words = (
        h + t for h in map(tuple, heads.tolist()) for t in itertools.product(*leaves.tail_ranges)
    )
    out = []
    for i, word in enumerate(words):
        a, b, c, d, det = 1, 0, 0, 1, 1
        for j, e in enumerate(word):
            ga, gb, gc, gd, gdet = tables[j % 2][:, e].tolist()
            a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
            det *= gdet
        tr, det = (a + d) % m, det % m
        disc = tr * tr - 4 * det
        squared = all(disc % q in sq for q, sq in zip(sieve_mod.SIEVE_FACTORS, squares))
        small = leaves.mus is None or any((mu * (tr - mu) - det) % m == 0 for mu in mus)
        if squared and small:
            out.append(i)
    return out


def leaves_with_tables(left, right, ranges, p, tables):
    """The ``_Leaves`` of the box ``ranges`` with ``tables`` as its power
    tables, its tail product built from them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_mod._Leaves, "_tables", lambda self, exponents: tables)
        return sieve_mod._Leaves(left, right, ranges, p)


M_RESIDUES = st.one_of(
    # small entries make small discriminants, squares more often
    st.integers(0, 2),
    # 5004 mod 5005, m - 1 among them: the largest terms of stage 2a
    st.integers(0, sieve_mod.SIEVE_FACTORS[1] - 1).map(lambda j: 5005 * j + 5004),
    st.integers(0, sieve_mod.SIEVE_MODULUS - 1),
)


@st.composite
def sieve_boxes(draw):
    """(ranges, p, heads) as ``boxes_and_heads`` gives them, with 2 to 4
    exponent ranges of at least 4 exponents and up to 8 heads, so that some
    words pass the square test."""
    ranges = []
    for _ in range(draw(st.integers(2, 4))):
        lo = draw(st.integers(0, 5))
        ranges.append(range(lo, draw(st.integers(lo + 4, 9))))
    p = draw(st.integers(1, len(ranges)))
    heads = draw(st.lists(st.tuples(*map(st.sampled_from, ranges[:p])), min_size=1, max_size=8))
    return ranges, p, np.array(heads, dtype=np.int64).reshape(-1, p)


@settings(PROPS, max_examples=60)
@given(pairs, st.booleans(), sieve_boxes(), st.booleans(), st.booleans(), st.data())
def test_sieve_survivors_match_oracle(g, swap, box, with_mus, residues, data):
    # generator powers, or any residues with 5004 mod 5005 frequent, in the
    # power tables; with and without the small-eigenvalue stage
    ranges, p, heads = box
    left, right = (g.a_power, g.b_power) if swap else (g.b_power, g.a_power)
    if residues:
        column = st.lists(M_RESIDUES, min_size=9, max_size=9)
        tables = tuple(
            np.array(data.draw(st.lists(column, min_size=5, max_size=5)), dtype=np.int64)
            for _ in range(2)
        )
        leaves = leaves_with_tables(left, right, ranges, p, tables)
    else:
        leaves = sieve_mod._Leaves(left, right, ranges, p)
    leaves.mus = sieve_mod.small_eigenvalues((len(ranges) + 1) // 2) if with_mus else None
    survivors = sieve_mod._sieve(leaves.tables, heads, leaves)
    assert survivors.tolist() == sieve_by_oracle(leaves.tables, heads, leaves)


@pytest.mark.parametrize("p", [1, 2])
def test_sieve_survivors_at_the_int32_bounds(p):
    # every entry and determinant of the one-letter heads and tails is
    # 5004 - r mod 5005 for r < 8, so tr1 before its reduction is near
    # 4 * 5004^2 and disc1 after it near -4 * 5004^2
    rng = np.random.default_rng(27)
    q1, q2 = sieve_mod.SIEVE_FACTORS
    tables = tuple(q1 * rng.integers(0, q2, (5, 40)) + q1 - 1 - rng.integers(0, 8, (5, 40))
                   for _ in range(2))
    ranges = [range(40), range(40)]
    heads = np.array(list(itertools.product(*ranges[:p])), dtype=np.int64).reshape(-1, p)
    leaves = leaves_with_tables(r_power, s_power, ranges, p, tables)
    # random residues almost never pass the small-eigenvalue congruence
    leaves.mus = None
    expected = sieve_by_oracle(tables, heads, leaves)
    assert 0 < len(expected) < 1600
    assert sieve_mod._sieve(tables, heads, leaves).tolist() == expected


@pytest.mark.parametrize("dtype,bound", [(np.int32, 2**31), (np.int64, 2**54)])
@settings(PROPS, max_examples=100)
@given(st.data())
def test_reduce_matches_remainder(dtype, bound, data):
    # a C- or F-ordered x, reduced in blocks of one or two entries, a few or
    # the default
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 10))
    values = data.draw(st.lists(st.integers(-bound, bound - 1), min_size=rows * cols,
                                max_size=rows * cols))
    q = data.draw(
        st.one_of(st.sampled_from([*sieve_mod.SIEVE_FACTORS, sieve_mod.SIEVE_MODULUS]),
                  st.integers(1, 2**26))
    )
    order = data.draw(st.sampled_from("CF"))
    x = np.array(np.reshape(values, (rows, cols)), dtype=dtype, order=order)
    expected = x % q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_mod, "REDUCE_BLOCK_BYTES", data.draw(st.sampled_from([8, 56, 1 << 16])))
        out = sieve_mod._reduce(x, q)
    assert out is x and out.dtype == dtype
    assert out.tolist() == expected.tolist()
    assert np.ravel(out).tolist() == [v % q for v in values]


@settings(PROPS, max_examples=300)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.lists(st.integers(0, 12), min_size=2 * k, max_size=2 * k)
    ),
    st.booleans(),
)
def test_det_is_at_most_2_to_the_k_times_the_trace(exponents, s_first):
    # the bound behind the small-eigenvalue stage, on words of k blocks of
    # R and S in either order, zero exponents included
    left, right = (s_power, r_power) if s_first else (r_power, s_power)
    w = product(left, right, exponents)
    assert w.det() <= 2 ** (len(exponents) // 2) * w.trace()


@pytest.mark.parametrize("k,size", [(1, 4), (2, 6), (4, 13), (6, 22), (40, None)])
def test_small_eigenvalues_match_brute_force(k, size):
    top = 2 ** (k + 1)
    brute = [2**a * 3**b for a in range(k + 2) for b in range(k + 2) if 2**a * 3**b <= top]
    residues = sieve_mod.small_eigenvalues(k).tolist()
    assert sorted(residues) == sorted(v % sieve_mod.SIEVE_MODULUS for v in brute)
    assert size is None or len(brute) == size


@pytest.mark.parametrize("M", [1, 2, 7, 40])
def test_hits_of_r_and_s_have_a_small_eigenvalue(M):
    # the k = 1 hits: both orders of R and S, smaller eigenvalue in S(1)
    small = set(sieve_mod.small_eigenvalues(1).tolist())
    ranges = _exponent_ranges(1, M)
    for left, right in ((r_power, s_power), (s_power, r_power)):
        words = [Word(e[0::2], e[1::2]) for e in itertools.product(*ranges)]
        expected = oracle_members(words, lambda w: product(left, right, w.exponents()))
        assert expected and all(h.eigen.lam in small for h in expected)
        chunks = sieve_mod.sieve_words(left, right, ranges, 0, lambda_count(1, M))
        assert [h for _, found in chunks for h in found] == expected


def recorded_exact_tests(monkeypatch):
    """The traces given to the leaf's exact test from now on, in order."""
    tested = []

    def recording(tr, disc):
        tested.append(tr)
        return eigen_from_disc(tr, disc)

    monkeypatch.setattr(sieve_mod, "eigen_from_disc", recording)
    return tested


@pytest.mark.parametrize("k,M,cube", [(1, 1000, 1120), (2, 40, 6)])
def test_cube_survivors_skip_the_exact_test(k, M, cube, monkeypatch):
    # words whose exponents all exceed n(k) pass stage 3: at k = 1 the mod-m
    # tests repeat along each exponent, so 1,120 of the (1, 1000) box do,
    # and all 6 survivors of the (2, 40) box are such words.  None is a
    # member, as the paper's theorem says, and the leaf drops them before
    # the exact test, whose cost grows with the exponents.
    ranges = _exponent_ranges(k, M)
    p, tail = sieve_mod._split(ranges)
    leaves = sieve_mod._Leaves(r_power, s_power, ranges, p)
    heads = sieve_mod._exponents(np.arange(math.prod(map(len, ranges[:p]))), ranges[:p])
    words, in_cube = [], []
    for part in np.array_split(heads, len(heads) // 9):
        index = sieve_mod._sieve(leaves.tables, part, leaves)
        rows = np.concatenate(
            [part[index // tail], sieve_mod._exponents(index % tail, leaves.tail_ranges)], axis=1
        )
        words += [Word(e[0::2], e[1::2]) for e in rows.tolist()]
        in_cube += (rows.min(axis=1) > compute_nk(k).n).tolist()
    assert sum(in_cube) == cube
    assert oracle_members(list(itertools.compress(words, in_cube)), word_eval) == []

    rest = [w for w, c in zip(words, in_cube) if not c]
    tested = recorded_exact_tests(monkeypatch)
    chunks = list(sieve_mod.sieve_words(r_power, s_power, ranges, 0, lambda_count(k, M)))
    assert sum(t for t, _ in chunks) == lambda_count(k, M)
    assert [h for _, found in chunks for h in found] == oracle_members(rest, word_eval)
    assert tested == [word_eval(w).trace() for w in rest]


@pytest.mark.parametrize(
    "g,k,exp_max,size",
    # hits whose smaller eigenvalue lies outside S(j) for their block count
    # j; and a pair whose every word is a hit
    [(GeneratorPair(5, 1, 1, 3), 3, 6, 7), (GeneratorPair(2, 1, 1, 2), 2, 6, 1800)],
)
def test_search_over_other_pairs_skips_the_small_eigenvalue_stage(g, k, exp_max, size):
    result = search_counterexamples(k, exp_max, g)
    assert (result.members, result.words_tested, result.complete) == search_oracle(
        k, exp_max, g, 10**6
    )
    assert len(result.members) == size
    ranges = _exponent_ranges(k, exp_max)
    assert sieve_mod._Leaves(g.b_power, g.a_power, ranges, len(ranges)).mus is None


@pytest.mark.parametrize("g", [GeneratorPair(3, 1, 1, 2), GeneratorPair(5, 3, 2, 7)])
def test_power_tables_are_powers_mod_m(g):
    m = sieve_mod.SIEVE_MODULUS
    for power in (g.a_power, g.b_power):
        table = sieve_mod._power_table(power(1), np.arange(71))
        for e in range(71):
            p = power(e)
            assert table[:, e].tolist() == [v % m for v in (*p.entries(), p.det())]


# M or M + 1 a power of two: randint's rejection loop at its edges; past
# 2^32 an attempt takes two words, and at M + 1 = 2^32 only the end ones do
DRAW_TOPS = [1, 2, 3, 7, 8, 15, 16, 24, 31, 32, 63, 64, 1000, 1023, 1024,
             2**32 - 1, 2**32, 2**32 + 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("M", DRAW_TOPS)
@settings(PROPS, max_examples=15)
@given(st.integers(1, 60), st.integers(0, 2**64))
def test_draws_match_randint(k, M, size, seed):
    rng = random.Random(seed)
    drawn = sieve_mod._draw_exponents(rng, k, M, size)
    ref = random.Random(seed)
    expected = [
        ref.randint(r.start, r.stop - 1) for _ in range(size) for r in _exponent_ranges(k, M)
    ]
    assert drawn.ravel().tolist() == expected
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 7])
def test_draws_over_batches_match_randint(seed):
    # M = 1 rejects half the attempts, so the draws take many rounds, and
    # sample_hits draws them in three batches
    k, M = 3, 1
    size = 2 * (sieve_mod.SIEVE_CHUNK_WORDS // (2 * k)) + 1
    ref = random.Random(seed)
    expected = [
        ref.randint(r.start, r.stop - 1) for _ in range(size) for r in _exponent_ranges(k, M)
    ]
    rng = random.Random(seed)
    assert sieve_mod._draw_exponents(rng, k, M, size).ravel().tolist() == expected
    assert rng.getstate() == ref.getstate()
    rng = random.Random(seed)
    list(sieve_mod.sample_hits(rng, k, M, size))
    assert rng.getstate() == ref.getstate()


def test_sampled_census_skips_the_draws_the_theorem_excludes(monkeypatch):
    # among 400 draws of the (2, 10^9) box, seed 3 draws one word that passes
    # the sieve, every exponent above 10^8: its exact test would multiply
    # out powers of hundreds of millions of digits.  The leaf skips it, with
    # the prefilter on or off.
    k, M, n = 2, 10**9, compute_nk(2).n
    draws = sieve_mod._draw_exponents(random.Random(3), k, M, 400)
    leaves = sieve_mod._Leaves(r_power, s_power, _exponent_ranges(k, M), 2 * k)
    values, columns = np.unique(draws.ravel(), return_inverse=True)
    index = sieve_mod._sieve(leaves._tables(values), columns.reshape(draws.shape), leaves)
    assert len(index) == 1 and draws[index].min() > n

    tested = recorded_exact_tests(monkeypatch)
    rows = [census_sampled(k, M, 400, 3, prefilter) for prefilter in (True, False)]
    assert rows[0] == rows[1] and rows[0].omega_count == 0
    assert tested == []
