"""Exact arbitrary-precision primitives.

Reduced rationals (``fractions.Fraction``, which already stores gcd-reduced
values with positive denominator), 2x2 integer matrices, and the two spectral
tests everything else is built on: integer eigenvalues via a perfect-square
discriminant, and rational fixed points of x -> (a*x + b)/(c*x + d).

No floating point anywhere; all arithmetic is exact at any magnitude.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateMapError, NegativeInputError


@contextlib.contextmanager
def unlimited_int_digits():
    """Within the block, int <-> str conversion takes integers of any size.

    Python refuses decimal text of more than 4,300 digits by default; exact
    results are printed, saved and parsed in full, so the limit is lifted
    here and the previous value put back on exit.  A function decorated
    with it runs inside the block.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def is_perfect_square(n: int) -> tuple[bool, int]:
    """(True, r) with r*r == n, else (False, floor sqrt).  Negative n never is."""
    if n < 0:
        return False, 0
    r = math.isqrt(n)
    return r * r == n, r


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix [a, b; c, d], row-major, immutable and hashable."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def trace(self) -> int:
        return self.a + self.d

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[{self.a},{self.b};{self.c},{self.d}]"


def mat_pow(m: Mat2, n: int) -> Mat2:
    """n-fold product by repeated multiplication (test oracle, not a fast path)."""
    if n < 0:
        raise NegativeInputError(f"matrix power with negative exponent {n}")
    out = Mat2.identity()
    for _ in range(n):
        out = out * m
    return out


class EigenPair(NamedTuple):
    lam: int
    mu: int  # lam <= mu; lam + mu = trace, lam * mu = det


def integer_eigenvalues(m: Mat2) -> EigenPair | None:
    """Both eigenvalues as integers, or None (see ``eigen_from_disc``)."""
    tr = m.trace()
    return eigen_from_disc(tr, tr * tr - 4 * m.det())


def eigen_from_disc(tr: int, disc: int) -> EigenPair | None:
    """The integer eigenvalues of a matrix with trace ``tr`` and
    discriminant ``disc`` = tr^2 - 4*det, or None.

    Integer iff disc is a perfect square s*s with tr = s (mod 2); then the
    pair is ((tr - s)/2, (tr + s)/2).  The parity test is the exact
    integrality condition forced by lambda = (tr +- s)/2 (for integer
    matrices it is implied by squareness, but it is kept explicit).
    """
    square, s = is_perfect_square(disc)
    if not square or (tr - s) % 2 != 0:
        return None
    return EigenPair((tr - s) // 2, (tr + s) // 2)


class FixedPointKind(Enum):
    NONE = "none"
    POINTS = "points"
    ALL = "all"


@dataclass(frozen=True)
class FixedPointResult:
    """Tagged result of the rational fixed-point solver."""

    kind: FixedPointKind
    points: tuple[Fraction, ...] = ()

    @classmethod
    def none(cls) -> "FixedPointResult":
        return cls(FixedPointKind.NONE)

    @classmethod
    def of(cls, *points: Fraction) -> "FixedPointResult":
        return cls(FixedPointKind.POINTS, tuple(sorted(points)))

    @classmethod
    def all_fixed(cls) -> "FixedPointResult":
        return cls(FixedPointKind.ALL)


def rational_fixed_points(m: Mat2) -> FixedPointResult:
    """All rational solutions of (a*x + b)/(c*x + d) = x, solved exactly.

    Solves c*x^2 + (d - a)*x - b = 0 over Q.  Roots where c*x + d = 0 make
    the map 0/0 and are discarded (possible only when det(m) = 0).  Negative
    fixed points are returned too; restricting to x > 0 is the caller's job.
    """
    a, b, c, d = m.entries()
    if c == 0 and d == 0:
        raise DegenerateMapError(f"{m} maps everything to (a*x+b)/0")
    if c == 0:
        if a != d:
            return FixedPointResult.of(Fraction(b, d - a))
        if b != 0:
            return FixedPointResult.none()
        return FixedPointResult.all_fixed()
    disc = m.trace() ** 2 - 4 * m.det()  # equals (d - a)^2 + 4*b*c
    square, s = is_perfect_square(disc)
    if not square:
        return FixedPointResult.none()
    if s == 0:
        roots = [Fraction(a - d, 2 * c)]
    else:
        roots = [Fraction(a - d - s, 2 * c), Fraction(a - d + s, 2 * c)]
    genuine = [x for x in roots if c * x + d != 0]
    if not genuine:
        return FixedPointResult.none()
    return FixedPointResult.of(*genuine)
