"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact (zero tolerance) and every
runtime budget is asserted.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from collatzq.census import census
from collatzq.core import FixedPointKind, Mat2, integer_eigenvalues, rational_fixed_points
from collatzq.dynamics import (
    PHI,
    THETA,
    orbit,
    phi_monotonicity_sweep,
    reduced_fractions,
    theta_sweep_full,
    verify_word_recovery,
)
from collatzq.kernels import phi_sweep
from collatzq.spectral import (
    bounds_check,
    compute_nk,
    entries_from_u,
    nk_conditions,
    nk_product_value,
    prefilter_excludes,
    trace_fast,
    trace_subsetpair,
    u_quantities,
)
from collatzq.verify import random_word
from collatzq.words import Word, enumerate_lambda, freeness_check, lambda_count, word_eval


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def announce(num, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} [{elapsed:.2f}s < {limit}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def proposition_words():
    """k=1: all 25 tuples with exponents <= 4.  k=2: the 600 tuples in
    [0,4]^4 whose middle exponents are not both zero (those collapse to
    k=1 words and are already covered there)."""
    k1 = [Word((b,), (a,)) for b, a in product(range(5), repeat=2)]
    k2 = [
        Word((b1, b2), (a1, a2))
        for b1, a1, b2, a2 in product(range(5), repeat=4)
        if not (a1 == 0 and b2 == 0)
    ]
    assert len(k2) == 600
    return k1 + k2


@pytest.fixture(scope="module")
def sampled_words():
    words = []
    for k in (3, 4):
        rng = random.Random(4200 + k)
        words.extend(random_word(rng, k, 5) for _ in range(500))
    return words


def test_criterion_01_proposition_oracle_exhaustive(proposition_words):
    with Timer() as t:
        checked = 0
        for w in proposition_words:
            assert entries_from_u(u_quantities(w)) == word_eval(w), w
            checked += 1
    announce(1, checked == 625, t.elapsed, 10,
             f"entries_from_u == word_eval on all {checked} words (k<=2, exps<=4)")


def test_criterion_02_trace_formula_sampled(sampled_words):
    with Timer() as t:
        pinned = Word((1, 1), (1, 1))
        ok = word_eval(pinned) == Mat2(18, 12, 6, 6)
        ok &= trace_subsetpair(pinned) == trace_fast(pinned) == 24
        for w in sampled_words:
            tr = word_eval(w).trace()
            assert trace_subsetpair(w) == tr, w
            assert trace_fast(w) == tr, w
    announce(2, ok, t.elapsed, 60,
             f"trace_subsetpair == trace_fast == direct trace on {len(sampled_words)} "
             "seeded words (k in {3,4}) plus the pinned RSRS case")


def test_criterion_03_corollary_bounds(proposition_words, sampled_words):
    with Timer() as t:
        for w in proposition_words + sampled_words:
            witness = bounds_check(w)
            assert witness.lhs_ok and witness.rhs_ok, w
        tight = bounds_check(Word((1,), (1,)))
        ok = tight.det == 6 and 2 * tight.trace == tight.upper == 12
    announce(3, ok, t.elapsed, 60,
             f"det <= 2^k tr <= product holds on all {len(proposition_words) + len(sampled_words)} "
             "criterion-1/2 words; RS is tight (12 = 12)")


def test_criterion_04_counting_and_freeness():
    with Timer() as t:
        ok = True
        for k, M in ((2, 3), (1, 5), (3, 2)):
            words = list(enumerate_lambda(k, M))
            ok &= len(words) == lambda_count(k, M)
            ok &= len({word_eval(w) for w in words}) == len(words)
            ok &= freeness_check(k, M)
        ok &= lambda_count(2, 3) == 144
    announce(4, ok, t.elapsed, 5,
             "box sizes match (M+1)^2 M^(2k-2) (144/36/144) and all matrices distinct")


def test_criterion_05_conjecture1_sweep():
    with Timer() as t:
        report, rows = theta_sweep_full(300, 10_000)
        ok = report.all_terminated and report.total_tested == len(rows[0])
        if not report.all_terminated:
            print("CANDIDATE COUNTEREXAMPLES:",
                  [str(x) for x in report.nonterminated])
    announce(5, ok, t.elapsed, 60,
             f"all {report.total_tested} starts with p+q <= 300 reach 0; "
             f"max stopping time {report.max_stopping_time} at {report.argmax}")


def test_criterion_06_phi_monotonicity():
    with Timer() as t:
        rep = phi_monotonicity_sweep(1000)
        ok = rep.all_monotone and not rep.violations
        # the kernel takes whole runs per division; the stepwise Fraction
        # orbit checks every single step (MonotonicityError if p+q grows)
        starts = list(reduced_fractions(60))
        kernel_steps, _ = phi_sweep(np.array([p for p, _ in starts]),
                                    np.array([q for _, q in starts]))
        stepwise = [orbit(Fraction(p, q), PHI, p + q).stopping_time for p, q in starts]
        ok = ok and stepwise == kernel_steps.tolist()
    announce(6, ok, t.elapsed, 60,
             f"p+q non-increasing and termination within p+q steps for all "
             f"{rep.total_tested} starts with p+q <= 1000; stepwise orbits agree "
             f"on all {len(stepwise)} starts with p+q <= 60")


def test_criterion_07_word_recovery_round_trip():
    with Timer() as t:
        checked_t, failures_t = verify_word_recovery(300, THETA)
        checked_p, failures_p = verify_word_recovery(1000, PHI)
        ok = not failures_t and not failures_p
    announce(7, ok, t.elapsed, 120,
             f"word replay reproduces the start exactly for {checked_t} theta "
             f"and {checked_p} phi orbits")


def test_criterion_08_census_desk_scale():
    with Timer() as t:
        ok = True
        for M in range(1, 7):
            row = census(2, M)
            if row.omega_count != 0:
                print("COUNTEREXAMPLE CANDIDATES at k=2, M=%d:" % M,
                      [str(m.word) for m in row.omega_members])
                ok = False
        densities = []
        for M in range(1, 9):
            row = census(1, M)
            ok &= row.omega_count == 2 * M + 1
            ok &= row.density == Fraction(2 * M + 1, (M + 1) ** 2)
            densities.append(row.density)
        ok &= all(a > b for a, b in zip(densities, densities[1:]))
    announce(8, ok, t.elapsed, 120,
             "census(2, 1..6) all empty; census(1, 1..8) = 2M+1 pure powers with "
             "strictly decreasing density (2M+1)/(M+1)^2")


def test_criterion_09_nk_certificate_and_prefilter():
    with Timer() as t:
        cert = compute_nk(2)
        ok = cert.n == 3
        ok &= cert.product_value == Fraction(4 * (16 * 81) ** 2, (17 * 82) ** 2)
        ok &= cert.product_value > 3
        num, den = nk_product_value(2, 2)
        ok &= num < 3 * den and nk_conditions(2, 2)[0] is False
        rng = random.Random(9000)
        excluded = 0
        for _ in range(10_000):
            w = Word(
                (rng.randint(4, 20), rng.randint(4, 20)),
                (rng.randint(4, 20), rng.randint(4, 20)),
            )
            assert prefilter_excludes(w, cert), w
            excluded += 1
            assert integer_eigenvalues(word_eval(w)) is None, w
    announce(9, ok, t.elapsed, 60,
             f"nk(2) = 3 exactly (4*(16/17*81/82)^2 > 3, fails at n=2); exact test "
             f"confirms None for all {excluded} prefilter-excluded words")


def test_criterion_10_fixedpoint_eigenvalue_correspondence():
    with Timer() as t:
        rng = random.Random(1010)
        matched = 0
        for _ in range(10_000):
            while True:
                m = Mat2(*(rng.randint(-20, 20) for _ in range(4)))
                # c != 0 as stated; det != 0 keeps the map a genuine Mobius
                # transformation (for det = 0 the map is constant and the
                # equivalence degenerates)
                if m.c != 0 and m.det() != 0:
                    break
            has_eig = integer_eigenvalues(m) is not None
            has_fp = rational_fixed_points(m).kind is FixedPointKind.POINTS
            assert has_eig == has_fp, m
            matched += 1
        branch_hits = {0: 0, 1: 0, 2: 0}
        for _ in range(2000):
            a = rng.randint(-20, 20)
            d = rng.randint(-20, 20) or 1
            b = rng.randint(-20, 20)
            m = Mat2(a, b, 0, d)
            eig = integer_eigenvalues(m)
            assert eig is not None and {eig.lam, eig.mu} == {a, d}, m
            fp = rational_fixed_points(m)
            if a != d:
                assert fp.points == (Fraction(b, d - a),), m
                branch_hits[0] += 1
            elif b != 0:
                assert fp.kind is FixedPointKind.NONE, m
                branch_hits[1] += 1
            else:
                assert fp.kind is FixedPointKind.ALL, m
                branch_hits[2] += 1
        ok = matched == 10_000 and all(v > 0 for v in branch_hits.values())
    announce(10, ok, t.elapsed, 30,
             f"eigenvalues <=> fixed points on {matched} invertible c!=0 matrices; "
             f"c=0 trichotomy exercised {tuple(branch_hits.values())} times")


def test_criterion_11_determinism_across_threads():
    with Timer() as t:
        outputs = []
        for threads in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "collatzq", "density", "--k", "2",
                 "--m-range", "1..4", "--threads", threads],
                capture_output=True, text=True, check=True,
            )
            outputs.append(proc.stdout)
        ok = outputs[0] == outputs[1] and "2,4,400,0,0,1,exhaustive" in outputs[0]
    announce(11, ok, t.elapsed, 60,
             "density --k 2 --m-range 1..4 is byte-identical at --threads 1 and 8")
