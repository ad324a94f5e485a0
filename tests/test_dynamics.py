"""theta/phi orbits, word recovery, SL2 factorization, sweep harness."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collatzq.core import Mat2
from collatzq.dynamics import (
    PHI,
    THETA,
    _lower_half,
    complete_to_sl2,
    mobius_apply,
    orbit,
    orbit_pq,
    phi_monotonicity_sweep,
    phi_runs,
    phi_step_pq,
    reduced_fraction_arrays,
    reduced_fractions,
    replay_runs_pq,
    replay_theta_runs_pq,
    replay_word_pq,
    sl2_factor,
    theta_runs,
    theta_step_pq,
    theta_sweep_full,
    verify_word_recovery,
)
from collatzq.errors import NegativeInputError, NotCoprimeError, NotFactorableError
from collatzq.reports import word_str

F = Fraction


def paper_theta(x):
    """The paper's theta, on Fractions, with the letter of the generator it inverts."""
    return ((x - 1) / 3, "R") if x >= 1 else (2 * x / (1 - x), "S")


def paper_phi(x):
    """The paper's phi, on Fractions, with the letter of the generator it inverts."""
    return (x - 1, "F") if x >= 1 else (x / (1 - x), "G")


def subtractive_factor(m):
    """Reference F/G word of a nonnegative det-1 matrix, one letter per subtraction.

    Peel F = [1,1;0,1] while the top row dominates, else G = [1,0;1,1];
    entry sums strictly decrease, so this terminates.
    """
    word = []
    a, b, c, d = m.entries()
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= c and b >= d:
            word.append("F")
            a, b = a - c, b - d
        else:
            assert c >= a and d >= b, m
            word.append("G")
            c, d = c - a, d - b
    return "".join(word)


def word_matrix(word):
    """Product of the F/G letters of ``word``, left to right."""
    m = Mat2.identity()
    for letter in word:
        m = m * (Mat2(1, 1, 0, 1) if letter == "F" else Mat2(1, 0, 1, 1))
    return m


class TestSteps:
    def test_theta_examples(self):
        assert theta_step_pq(1, 1) == (0, 1, "R")
        assert theta_step_pq(2, 1) == (1, 3, "R")
        assert theta_step_pq(1, 9) == (1, 4, "S")

    def test_phi_examples(self):
        assert phi_step_pq(3, 5) == (3, 2, "G")
        assert phi_step_pq(3, 2) == (1, 2, "F")
        assert phi_step_pq(0, 1) == (0, 1, "G")

    def test_negative_inputs(self):
        # orbit refuses a negative start even when the cap allows no step
        for map_name in (THETA, PHI):
            for x in (F(-1, 2), F(-1)):
                with pytest.raises(NegativeInputError):
                    orbit(x, map_name, 0)

    def test_maps_stay_nonnegative(self):
        # each pair step is the paper's map, and stays a reduced pair >= 0
        rng = random.Random(41)
        for _ in range(300):
            x = F(rng.randint(0, 50), rng.randint(1, 50))
            for step, paper_map in ((theta_step_pq, paper_theta), (phi_step_pq, paper_phi)):
                p, q, letter = step(x.numerator, x.denominator)
                assert p >= 0 and q >= 1 and math.gcd(p, q) == 1
                if x:
                    assert (F(p, q), letter) == paper_map(x)


class TestOrbit:
    def test_orbit_two(self):
        rec = orbit(F(2), THETA, 100)
        assert [str(x) for x in rec.points] == ["2", "1/3", "1", "0"]
        assert rec.stopping_time == 3
        assert rec.terminated

    def test_orbit_five(self):
        rec = orbit(F(5), THETA, 100)
        assert [str(x) for x in rec.points] == ["5", "4/3", "1/9", "1/4", "2/3", "4", "1", "0"]
        assert rec.stopping_time == 7

    def test_orbit_phi(self):
        rec = orbit(F(3, 5), PHI, 100)
        assert [str(x) for x in rec.points] == ["3/5", "3/2", "1/2", "1", "0"]

    def test_zero_start(self):
        rec = orbit(F(0), THETA)
        assert rec.points == (F(0),)
        assert rec.stopping_time == 0
        assert rec.branches == ""

    def test_cap_exhaustion_is_data(self):
        rec = orbit(F(5), THETA, 2)
        assert not rec.terminated
        assert rec.stopping_time is None
        assert rec.branches == "RR"

    def test_points_chain_exactly(self):
        for map_name, paper_map in ((THETA, paper_theta), (PHI, paper_phi)):
            rec = orbit(F(17, 7), map_name, 100)
            assert rec.terminated
            assert len(rec.branches) == len(rec.points) - 1
            for x, y, letter in zip(rec.points, rec.points[1:], rec.branches):
                assert paper_map(x) == (y, letter)


class TestWordRecovery:
    def test_theta_word_two(self):
        # 2 = r(s(r(0))): r(0) = 1, s(1) = 1/3, r(1/3) = 2
        runs = theta_runs(2, 1, 100)
        assert runs == [1, 1, 1, 0]
        assert word_str(runs, "RS") == orbit(F(2), THETA).branches == "RSR"
        assert replay_theta_runs_pq(runs) == replay_word_pq("RSR") == (2, 1)

    def test_theta_word_one(self):
        assert theta_runs(1, 1, 100) == [1, 0]
        assert orbit(F(1), THETA).branches == "R"

    def test_phi_word(self):
        runs = phi_runs(3, 5)
        assert runs == [0, 1, 1, 1, 1]
        assert word_str(runs, "FG") == orbit(F(3, 5), PHI).branches == "GFGF"
        assert replay_runs_pq(runs) == replay_word_pq("GFGF") == (3, 5)

    def test_not_terminated(self):
        assert theta_runs(5, 1, 2) is None
        assert not orbit(F(5), THETA, 2).terminated

    def test_replay_matches_pq_replay(self):
        for p, q in reduced_fractions(30):
            runs = theta_runs(p, q, 10_000)
            word = orbit(F(p, q), THETA).branches
            assert word_str(runs, "RS") == word
            assert replay_theta_runs_pq(runs) == replay_word_pq(word) == (p, q)

    def test_recovery_sweeps(self):
        checked, failures = verify_word_recovery(60, THETA)
        assert failures == []
        assert checked == sum(1 for _ in reduced_fractions(60))
        checked, failures = verify_word_recovery(80, PHI)
        assert failures == []

    def test_recovery_refuses_an_unknown_map(self):
        # an unknown name must not fall through to phi, as orbit refuses it too
        with pytest.raises(ValueError, match="unknown map 'bogus'"):
            verify_word_recovery(6, "bogus")


class TestIntPairPaths:
    @pytest.mark.parametrize("map_name", [THETA, PHI])
    def test_agrees_with_fraction_orbit(self, map_name):
        for p, q in reduced_fractions(40):
            rec = orbit(F(p, q), map_name, 10_000)
            steps, term, branches = orbit_pq(p, q, map_name, 10_000)
            assert term == rec.terminated
            assert steps == rec.stopping_time
            assert branches == rec.branches


def inverse_completion(b, d):
    """The minimal completion of coprime b, d >= 1 by a modular inverse."""
    a = pow(d, -1, b) if b > 1 else 1
    return Mat2(a, b, (a * d - 1) // b, d)


class TestCompleteToSl2:
    def test_examples(self):
        assert complete_to_sl2(1, 1) == Mat2(1, 1, 0, 1)
        assert complete_to_sl2(2, 3) == Mat2(1, 2, 1, 3)
        assert complete_to_sl2(3, 2) == Mat2(2, 3, 1, 2)

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            complete_to_sl2(2, 4)
        with pytest.raises(NegativeInputError):
            complete_to_sl2(0, 1)

    def test_random_pairs(self):
        rng = random.Random(42)
        for _ in range(300):
            b = rng.randint(1, 500)
            d = rng.randint(1, 500)
            if math.gcd(b, d) != 1:
                continue
            m = complete_to_sl2(b, d)
            assert m.det() == 1
            assert min(m.entries()) >= 0
            assert (m.b, m.d) == (b, d)
            assert m.a < b or (b == 1 and m.a <= 1)  # minimal shift

    def test_matches_modular_inverse(self):
        pairs = [(b, d) for b in range(1, 61) for d in range(1, 61) if math.gcd(b, d) == 1]
        rng = random.Random(47)
        small = len(pairs)
        while len(pairs) < small + 200:  # and 200 pairs of up to 3,000 bits
            b, d = (rng.getrandbits(rng.randint(1, 3000)) for _ in range(2))
            if b and d and math.gcd(b, d) == 1:
                pairs.append((b, d))
        for b, d in pairs:
            m = complete_to_sl2(b, d)
            assert m == inverse_completion(b, d), (b, d)
            # the completion is the phi word of b/d, with an empty G tail
            assert sl2_factor(m) == phi_runs(b, d) + [0]


class TestSl2Factor:
    def test_examples(self):
        assert sl2_factor(Mat2(1, 1, 0, 1)) == [1, 0]
        assert sl2_factor(Mat2(2, 1, 1, 1)) == [1, 1]
        assert sl2_factor(Mat2(1, 2, 1, 3)) == [0, 1, 2, 0]
        assert sl2_factor(Mat2.identity()) == [0, 0]

    def test_errors(self):
        with pytest.raises(NotFactorableError):
            sl2_factor(Mat2(2, 1, 1, 2))  # det 3
        with pytest.raises(NotFactorableError):
            sl2_factor(Mat2(1, -1, 0, 1))

    def test_huge_runs_in_closed_form(self):
        # one division per run, however long the word
        assert sl2_factor(Mat2(1, 10**12, 0, 1)) == [10**12, 0]
        assert sl2_factor(Mat2(1, 0, 10**12, 1)) == [0, 10**12]
        assert sl2_factor(Mat2(1, 0, 5, 1)) == [0, 5]

    def test_runs_shape(self):
        # F runs at even positions, G runs at odd ones, ending with the G tail
        rng = random.Random(46)
        for _ in range(200):
            runs = sl2_factor(word_matrix(rng.choices("FG", k=rng.randint(0, 12))))
            assert len(runs) % 2 == 0 and all(n >= 1 for n in runs[1:-1])

    def test_round_trip_and_uniqueness(self):
        rng = random.Random(43)
        for _ in range(200):
            word = "".join(rng.choice("FG") for _ in range(rng.randint(0, 12)))
            m = word_matrix(word)
            recovered = word_str(sl2_factor(m), "FG")
            assert recovered == subtractive_factor(m)
            product = word_matrix(recovered)
            assert product == m
            assert word_str(sl2_factor(product), "FG") == recovered
            # free monoid: the factorization is the original word
            assert recovered == word

    def test_long_runs_match_subtractive_oracle(self):
        rng = random.Random(45)
        for _ in range(100):
            word = "".join(rng.choice("FG") * rng.randint(1, 200)
                           for _ in range(rng.randint(0, 6)))
            m = word_matrix(word)
            assert word_str(sl2_factor(m), "FG") == subtractive_factor(m) == word

    def test_completion_word_reaches_target(self):
        # the Stern-Brocot word of the completed matrix sends 0 to b/d
        rng = random.Random(44)
        for _ in range(100):
            b, d = rng.randint(1, 60), rng.randint(1, 60)
            if math.gcd(b, d) != 1:
                continue
            m = complete_to_sl2(b, d)
            word = word_str(sl2_factor(m), "FG")
            assert replay_word_pq(word) == (b, d)
            assert mobius_apply(m, F(0)) == F(b, d)


class TestReducedFractions:
    def test_enumeration_order_and_reducedness(self):
        pairs = list(reduced_fractions(6))
        assert pairs[0] == (0, 1)
        keys = [(p + q, p) for p, q in pairs]
        assert keys == sorted(keys)
        assert all(math.gcd(p, q) == 1 for p, q in pairs)
        assert len(set(pairs)) == len(pairs)

    def test_count_small(self):
        # heights 1..3 hold 0/1, 1/1, 1/2, 2/1
        assert len(list(reduced_fractions(3))) == 4

    @pytest.mark.parametrize("height", [2, 3, 4, 7, 60, 211])
    def test_lower_half_is_the_starts_p_at_most_q(self, height):
        # the phi sweeps' half, struck in the sieve's triangle, against the
        # start generator: same pairs, same order, 2n - 2 starts in all
        starts = list(reduced_fractions(height))
        ps, qs = _lower_half(height)
        assert ps.dtype == qs.dtype == np.int64
        assert list(zip(ps.tolist(), qs.tolist())) == [(p, q) for p, q in starts if p <= q]
        assert 2 * ps.size - 2 == len(starts)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(st.integers(-3, 200))
    def test_lower_half_matches_the_starts_p_at_most_q_at_generated_heights(self, height):
        ps, qs = _lower_half(height)
        assert ps.dtype == qs.dtype == np.int64
        half = [(p, q) for p, q in reduced_fractions(height) if p <= q]
        assert list(zip(ps.tolist(), qs.tolist())) == half

    @pytest.mark.parametrize("height", [-5, -1, 0])
    def test_no_starts_below_height_one(self, height):
        # as the start generator, which yields nothing there
        assert list(reduced_fractions(height)) == []
        for ps, qs in (reduced_fraction_arrays(height), _lower_half(height)):
            assert ps.dtype == qs.dtype == np.int64
            assert ps.size == qs.size == 0


class TestSweeps:
    def test_sweep_height_three(self):
        rep = theta_sweep_full(3, 100)[0]
        assert rep.total_tested == 4
        assert rep.all_terminated
        assert rep.nonterminated == ()

    def test_sweep_height_two(self):
        rep = theta_sweep_full(2, 100)[0]
        assert rep.total_tested == 2
        assert rep.max_stopping_time == 1
        assert rep.argmax == 1

    def test_cap_exhaustion_reported_not_raised(self):
        rep = theta_sweep_full(40, 3)[0]
        assert not rep.all_terminated
        assert rep.nonterminated  # plenty of starts need more than 3 steps

    def test_rows_match_report(self):
        report, columns = theta_sweep_full(30, 1000)
        rows = list(zip(*(c.tolist() for c in columns)))
        assert len(rows) == report.total_tested
        assert max(st for _, _, st in rows) == report.max_stopping_time
        for p, q, st in rows:
            term = st >= 0
            assert orbit_pq(p, q, THETA, 1000)[:2] == (st if term else 1000, term)

    def test_phi_sweep(self):
        rep = phi_monotonicity_sweep(10)
        assert rep.all_monotone
        assert rep.violations == ()
        # 1/9 -> 1/8 -> ... -> 1 -> 0 is the slowest orbit at this height
        assert rep.max_stopping_time == 9
        assert rep.argmax == F(1, 9)

    def test_phi_terminates_within_height_minus_one(self):
        for p, q in reduced_fractions(60):
            steps, term, _ = orbit_pq(p, q, PHI, p + q)
            assert term and steps <= p + q - 1

    def test_theta_sweep_matches_exact(self):
        rep = theta_sweep_full(50, 10_000)[0]
        assert rep.all_terminated
        for p, q in [(3, 47), (7, 20), (1, 49)]:
            steps, term, _ = orbit_pq(p, q, THETA, 10_000)
            assert term
        exact_max = max(
            orbit_pq(p, q, THETA, 10_000)[0] for p, q in reduced_fractions(50)
        )
        assert rep.max_stopping_time == exact_max
