"""Exact primitives: rationals, perfect squares, 2x2 matrices, eigen/fixed-point tests."""

import random
from fractions import Fraction

import pytest

from collatzq.core import (
    EigenPair,
    FixedPointKind,
    Mat2,
    integer_eigenvalues,
    is_perfect_square,
    mat_pow,
    rational_fixed_points,
)
from collatzq.errors import DegenerateMapError

R = Mat2(3, 1, 0, 1)
S = Mat2(1, 0, 1, 2)


def rand_mat(rng, bound=20):
    return Mat2(*(rng.randint(-bound, bound) for _ in range(4)))


class TestIsqrt:
    def test_perfect_square(self):
        assert is_perfect_square(3**40) == (True, 3**20)
        assert is_perfect_square(432)[0] is False
        assert is_perfect_square(-4) == (False, 0)


class TestMat2:
    def test_product(self):
        assert R * S == Mat2(4, 2, 1, 2)

    def test_product_squared(self):
        m = (R * S) * (R * S)
        assert m == Mat2(18, 12, 6, 6)
        assert m.trace() == 24
        assert m.det() == 36

    def test_identity(self):
        m = Mat2(7, -2, 5, 3)
        assert Mat2.identity() * m == m
        assert m * Mat2.identity() == m

    def test_det_multiplicative_and_trace_cyclic(self):
        rng = random.Random(3)
        for _ in range(200):
            x, y = rand_mat(rng), rand_mat(rng)
            assert (x * y).det() == x.det() * y.det()
            assert (x * y).trace() == (y * x).trace()

    def test_mat_pow(self):
        assert mat_pow(R, 0) == Mat2.identity()
        assert mat_pow(R, 3) == R * R * R


class TestIntegerEigenvalues:
    def test_triangular(self):
        assert integer_eigenvalues(R) == EigenPair(1, 3)

    def test_rsrs_not_square(self):
        assert integer_eigenvalues(Mat2(18, 12, 6, 6)) is None  # disc 432

    def test_small_not_square(self):
        assert integer_eigenvalues(Mat2(2, 1, 1, 1)) is None  # disc 5

    def test_pair_invariants(self):
        rng = random.Random(4)
        hits = 0
        for _ in range(3000):
            m = rand_mat(rng)
            eig = integer_eigenvalues(m)
            if eig is None:
                continue
            hits += 1
            assert eig.lam <= eig.mu
            assert eig.lam + eig.mu == m.trace()
            assert eig.lam * eig.mu == m.det()
        assert hits > 50  # sampling actually exercised the Some branch

    def test_c_zero_always_integer(self):
        rng = random.Random(5)
        for _ in range(300):
            a, b, d = (rng.randint(-30, 30) for _ in range(3))
            eig = integer_eigenvalues(Mat2(a, b, 0, d))
            assert eig == EigenPair(min(a, d), max(a, d))


class TestFixedPoints:
    def test_r_matrix(self):
        res = rational_fixed_points(R)
        assert res.kind is FixedPointKind.POINTS
        assert res.points == (Fraction(-1, 2),)

    def test_translation_has_none(self):
        assert rational_fixed_points(Mat2(1, 1, 0, 1)).kind is FixedPointKind.NONE

    def test_rs_none(self):
        assert rational_fixed_points(Mat2(4, 2, 1, 2)).kind is FixedPointKind.NONE

    def test_all_points_fixed(self):
        res = rational_fixed_points(Mat2(5, 0, 0, 5))
        assert res.kind is FixedPointKind.ALL

    def test_degenerate(self):
        with pytest.raises(DegenerateMapError):
            rational_fixed_points(Mat2(1, 2, 0, 0))

    def test_points_are_exact_fixed_points(self):
        rng = random.Random(6)
        found = 0
        for _ in range(3000):
            m = rand_mat(rng)
            if m.c == 0 and m.d == 0:
                continue
            res = rational_fixed_points(m)
            for x in res.points:
                assert m.c * x + m.d != 0
                assert (m.a * x + m.b) / (m.c * x + m.d) == x
                found += 1
        assert found > 100

    def test_singular_spurious_root_filtered(self):
        # constant map (x+1)/(-x-1) = -1: integer eigenvalues (0,0) but no
        # genuine fixed point; the det = 0 family where the converse fails
        m = Mat2(1, 1, -1, -1)
        assert integer_eigenvalues(m) == EigenPair(0, 0)
        assert rational_fixed_points(m).kind is FixedPointKind.NONE

    def test_singular_one_genuine_root(self):
        m = Mat2(1, 1, 1, 1)
        res = rational_fixed_points(m)
        assert res.points == (Fraction(1),)

    def test_equivalence_when_invertible(self):
        # c != 0 and det != 0: integer eigenvalues <=> rational fixed points
        rng = random.Random(7)
        some = none = 0
        for _ in range(4000):
            m = rand_mat(rng)
            if m.c == 0 or m.det() == 0:
                continue
            has_eig = integer_eigenvalues(m) is not None
            has_fp = rational_fixed_points(m).kind is FixedPointKind.POINTS
            assert has_eig == has_fp, m
            some += has_eig
            none += not has_eig
        assert some > 50 and none > 50  # both directions genuinely sampled
