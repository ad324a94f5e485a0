"""Subset-sum entry/trace formulas, sandwich bounds, threshold certificates."""

import random
from fractions import Fraction
from itertools import product

import pytest

from collatzq import spectral
from collatzq.core import Mat2, integer_eigenvalues
from collatzq.errors import KMismatchError, SizeLimitError
from collatzq.spectral import (
    NkCertificate,
    SubsetPair,
    bounds_check,
    compute_nk,
    entries_from_u,
    nk_conditions,
    nk_product_value,
    prefilter_excludes,
    sigma_sign,
    sigma_term,
    trace_fast,
    trace_subsetpair,
    u_quantities,
)
from collatzq.verify import random_word
from collatzq.words import Word, word_eval


class TestSigmaSign:
    def test_k1_is_plus(self):
        assert sigma_sign(1, 1, 1) == 1

    def test_k2_all_minus(self):
        for i, j in product((1, 2), repeat=2):
            assert sigma_sign(2, i, j) == -1

    def test_k3_no_match(self):
        assert sigma_sign(3, 1, 3) == 1

    def test_k3_cyclic_wrap(self):
        # j = 1 matches i + 1 for i = 3 (index k+1 wraps to 1)
        assert sigma_sign(3, 3, 1) == -1
        assert sigma_sign(3, 3, 3) == -1
        assert sigma_sign(3, 3, 2) == 1

    def test_index_error(self):
        with pytest.raises(IndexError):
            sigma_sign(3, 0, 1)
        with pytest.raises(IndexError):
            sigma_sign(3, 1, 4)


class TestSigmaTerm:
    def test_empty_subsets(self):
        w = Word((1,), (1,))
        assert sigma_term(w, SubsetPair(0, 0)) == Fraction(1, 2)

    def test_full_subsets_k1(self):
        w = Word((1,), (1,))
        assert sigma_term(w, SubsetPair(1, 1)) == 3

    def test_full_subsets_k2(self):
        w = Word((1, 1), (1, 1))
        assert sigma_term(w, SubsetPair(0b11, 0b11)) == 9

    def test_denominator_is_dyadic(self):
        rng = random.Random(21)
        for _ in range(100):
            k = rng.randint(1, 4)
            w = random_word(rng, k, 4)
            pair = SubsetPair(rng.randrange(1 << k), rng.randrange(1 << k))
            term = sigma_term(w, pair)
            assert 2**k % term.denominator == 0

    def test_mask_bounds(self):
        with pytest.raises(IndexError):
            sigma_term(Word((1,), (1,)), SubsetPair(2, 0))


class TestUQuantities:
    def test_rsrs(self):
        u = u_quantities(Word((1, 1), (1, 1)))
        assert u == (0, 3, 6, 15)

    def test_k1_u10(self):
        u = u_quantities(Word((1,), (1,)))
        assert u.u10 == 1
        assert 2 * u.u10 == word_eval(Word((1,), (1,))).d

    def test_identity_word(self):
        u = u_quantities(Word((0,), (0,)))
        assert sum(u) == 2

    def test_matches_direct_double_sum(self):
        # the bitmask sign trick against literal sigma_term summation
        rng = random.Random(22)
        for _ in range(40):
            k = rng.randint(1, 3)
            w = random_word(rng, k, 3)
            u = u_quantities(w)
            direct = [Fraction(0)] * 4
            top = 1 << (k - 1)
            for a_mask in range(1 << k):
                for b_mask in range(1 << k):
                    idx = (2 if a_mask & top else 0) + (1 if b_mask & 1 else 0)
                    direct[idx] += sigma_term(w, SubsetPair(a_mask, b_mask))
            assert (direct[0], direct[2], direct[1], direct[3]) == u

    def test_size_limit(self):
        w = Word((1,) * 13, (1,) * 13)
        with pytest.raises(SizeLimitError):
            u_quantities(w)


class TestEntriesFromU:
    def test_rsrs(self):
        assert entries_from_u(u_quantities(Word((1, 1), (1, 1)))) == Mat2(18, 12, 6, 6)

    def test_rs(self):
        assert entries_from_u(u_quantities(Word((1,), (1,)))) == Mat2(4, 2, 1, 2)

    def test_identity(self):
        assert entries_from_u(u_quantities(Word((0,), (0,)))) == Mat2.identity()


class TestTraces:
    def test_subsetpair_examples(self):
        assert trace_subsetpair(Word((1, 1), (1, 1))) == 24
        assert trace_subsetpair(Word((1,), (1,))) == 6
        assert trace_subsetpair(Word((2,), (1,))) == 15

    def test_fast_examples(self):
        assert trace_fast(Word((1, 1), (1, 1))) == 24
        assert trace_fast(Word((1,), (1,))) == 6
        assert trace_fast(Word((0,), (0,))) == 2

    def test_subsetpair_size_limit(self):
        with pytest.raises(SizeLimitError):
            trace_subsetpair(Word((1,) * 13, (1,) * 13))

    def test_fast_size_limit(self, monkeypatch):
        # k = 20 reaches the tables; k = 21 and beyond are refused before
        # they are built
        class Tables(Exception):
            pass

        def tables(w):
            raise Tables

        monkeypatch.setattr(spectral, "_pow_tables", tables)
        limit = spectral.FAST_TRACE_LIMIT
        assert limit == 20
        with pytest.raises(Tables):
            trace_fast(Word((1,) * limit, (1,) * limit))
        for k in (limit + 1, 40):
            w = Word((1,) * k, (1,) * k)
            for fn in (trace_fast, bounds_check):
                with pytest.raises(SizeLimitError, match=f"k={k} exceeds fast-trace limit 20"):
                    fn(w)

    def test_fast_handles_larger_k(self):
        w = Word((1,) * 14, (1,) * 14)
        assert trace_fast(w) == word_eval(w).trace()


class TestOracleEquality:
    """The module's central check: formulas against direct products."""

    def test_exhaustive_k1(self):
        for b, a in product(range(5), repeat=2):
            w = Word((b,), (a,))
            m = word_eval(w)
            assert entries_from_u(u_quantities(w)) == m
            assert trace_subsetpair(w) == trace_fast(w) == m.trace()

    def test_exhaustive_k2(self):
        for b1, a1, b2, a2 in product(range(5), repeat=4):
            w = Word((b1, b2), (a1, a2))
            m = word_eval(w)
            assert entries_from_u(u_quantities(w)) == m
            assert trace_subsetpair(w) == trace_fast(w) == m.trace()

    @pytest.mark.parametrize("k", [3, 4])
    def test_sampled_k34(self, k):
        rng = random.Random(1000 + k)
        for _ in range(500):
            w = random_word(rng, k, 5)
            m = word_eval(w)
            assert entries_from_u(u_quantities(w)) == m
            assert trace_subsetpair(w) == trace_fast(w) == m.trace()

    def test_u_denominators_divide_2k(self):
        rng = random.Random(23)
        for _ in range(100):
            k = rng.randint(1, 4)
            w = random_word(rng, k, 5)
            u = u_quantities(w)
            assert all(2**k % x.denominator == 0 for x in u)
            assert sum(u) == trace_fast(w)


class TestBounds:
    def test_rsrs(self):
        witness = bounds_check(Word((1, 1), (1, 1)))
        assert witness == (36, 24, 144, True, True)

    def test_rs_right_bound_tight(self):
        witness = bounds_check(Word((1,), (1,)))
        assert witness.det == 6
        assert 2 * witness.trace == witness.upper == 12
        assert witness.lhs_ok and witness.rhs_ok

    def test_identity_word(self):
        witness = bounds_check(Word((0,), (0,)))
        assert witness == (1, 2, 4, True, True)

    def test_universal_on_small_boxes(self):
        for b1, a1, b2, a2 in product(range(4), repeat=4):
            witness = bounds_check(Word((b1, b2), (a1, a2)))
            assert witness.lhs_ok and witness.rhs_ok


class TestNkCertificate:
    def test_k2_is_three(self):
        cert = compute_nk(2)
        assert cert.n == 3
        # 4 * (16/17 * 81/82)^2 = 1679616/485809 > 3
        assert cert.product_value == Fraction(2**2 * (16 * 81) ** 2, (17 * 82) ** 2)
        assert cert.product_value > 3
        assert cert.det_floor == 6**8 == 1679616
        assert cert.det_threshold == (16 + 4) ** 2 == 400
        assert cert.margin_ok

    def test_k2_fails_at_two(self):
        # 4 * (8/9 * 27/28)^2 < 3
        num, den = nk_product_value(2, 2)
        assert Fraction(num, den) == Fraction(4 * (8 * 27) ** 2, (9 * 28) ** 2)
        assert num < 3 * den
        assert nk_conditions(2, 2)[0] is False

    def test_k1_needs_determinant_floor(self):
        # the product condition alone holds at n = 1 (f(2) = 18/25 > 1/2) but
        # 6^2 = (4+2)^2 fails the strict determinant floor; n = 2 closes both
        assert nk_conditions(1, 1) == (True, False)
        cert = compute_nk(1)
        assert cert.n == 2
        assert cert.margin_ok

    def test_monotone_in_k(self):
        ns = [compute_nk(k).n for k in range(1, 6)]
        assert ns == sorted(ns)
        assert ns[1] == 3

    @staticmethod
    def fraction_conditions(k, n):
        """The two conditions on reduced fractions, as first written."""
        return (
            Fraction(*nk_product_value(k, n)) > 2**k - 1,
            6 ** (k * (n + 1)) > (4**k + 2**k) ** 2,
        )

    def test_cross_products_match_fractions(self):
        for k in range(1, 13):
            for n in range(1, 25):
                assert nk_conditions(k, n) == self.fraction_conditions(k, n), (k, n)
                assert NkCertificate(k, n).margin_ok == all(self.fraction_conditions(k, n))

    def test_bisection_matches_linear_scan(self):
        for k in range(1, 61):
            n = 1
            while not all(self.fraction_conditions(k, n)):
                n += 1
            cert = compute_nk(k)
            assert cert == NkCertificate(k, n)
            # the witnesses, derived from (k, n)
            assert cert.product_value == Fraction(*nk_product_value(k, n))
            assert cert.product_threshold == 2**k - 1
            assert cert.det_floor == 6 ** (k * (n + 1))
            assert cert.det_threshold == (4**k + 2**k) ** 2

    def test_product_value_is_the_reduced_fraction(self):
        # the gcd-free reduction against Fraction's own, for n = 0 to n(k) + 3
        for k in range(1, 61):
            for n in range(0, compute_nk(k).n + 4):
                e = n + 1
                plain = Fraction(2**k * 6 ** (e * k), ((2**e + 1) * (3**e + 1)) ** k)
                assert nk_product_value(k, n) == (plain.numerator, plain.denominator), (k, n)
                assert n == 0 or plain.denominator > 1, (k, n)

    def test_closed_form_is_the_least_n(self):
        # the conditions hold at n and fail at n - 1; both only grow with n
        for k in [*range(1, 301), 511, 512, 513]:
            n = compute_nk(k).n
            assert n == (2 if k == 1 else k + k.bit_length() - 1), k
            assert all(nk_conditions(k, n)) and not all(nk_conditions(k, n - 1)), k

    @pytest.mark.parametrize("least", [1, 2, 5, 45, 46, 47, 700])
    def test_closed_form_is_checked_by_two_tests(self, monkeypatch, least):
        # n(40) = 45: patched conditions with any other least n make
        # compute_nk raise, and it asks them exactly twice, at 44 and 45
        calls = []

        def patched(k, n):
            calls.append(n)
            return n >= least, True

        monkeypatch.setattr(spectral, "nk_conditions", patched)
        if least == 45:
            assert compute_nk(40).n == 45
        else:
            with pytest.raises(AssertionError, match="k = 40"):
                compute_nk(40)
        assert calls == [44, 45]

    def test_k_over_the_limit_is_refused_before_the_tests(self, monkeypatch):
        calls = []
        real = spectral.nk_conditions
        monkeypatch.setattr(spectral, "nk_conditions", lambda k, n: calls.append(n) or real(k, n))
        monkeypatch.setattr(spectral, "MAX_NK_K", 40)
        assert compute_nk(40).n == 45
        with pytest.raises(SizeLimitError, match="k=41 is over the limit 40"):
            compute_nk(41)
        assert calls == [44, 45]


class TestPrefilter:
    def test_excludes_all_large(self):
        cert = compute_nk(2)
        w = Word((4, 4), (4, 4))
        assert prefilter_excludes(w, cert) is True
        assert integer_eigenvalues(word_eval(w)) is None

    def test_small_exponent_not_excluded(self):
        cert = compute_nk(2)
        assert prefilter_excludes(Word((4, 4), (3, 4)), cert) is False

    def test_ten_exponents(self):
        cert = compute_nk(2)
        w = Word((10, 10), (10, 10))
        assert prefilter_excludes(w, cert) is True
        assert integer_eigenvalues(word_eval(w)) is None

    def test_k_mismatch(self):
        with pytest.raises(KMismatchError):
            prefilter_excludes(Word((4,), (4,)), compute_nk(2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_soundness_sampled(self, k):
        cert = compute_nk(k)
        rng = random.Random(31 + k)
        excluded = 0
        for _ in range(400):
            w = Word(
                tuple(rng.randint(1, cert.n + 10) for _ in range(k)),
                tuple(rng.randint(1, cert.n + 10) for _ in range(k)),
            )
            if prefilter_excludes(w, cert):
                excluded += 1
                assert integer_eigenvalues(word_eval(w)) is None
        assert excluded > 40

    def test_eigenvalue_gap_identity(self):
        # any word found with integer eigenvalues satisfies
        # (lam - 2^k)(mu - 2^k) <= 4^k; at desk scale those are pure powers
        for b in range(6):
            for a in range(6):
                w = Word((b,), (a,))
                eig = integer_eigenvalues(word_eval(w))
                if eig is None:
                    continue
                assert (eig.lam - 2) * (eig.mu - 2) <= 4
