"""Subset-sum formulas for word matrices: entries, trace, bounds, pruning.

A word's matrix entries decompose into four sums U_00, U_10, U_01, U_11 of
signed dyadic terms sigma(A, B) over pairs of subsets of {1..k}; the trace
is the unrestricted double sum, and collapsing the A-side yields a single
2^k-term trace formula.  These are validated against direct matrix products
and power a sound no-integer-eigenvalue prefilter for large exponents.

Sign convention: sigma_{ij} = -1 when j = i or j = i+1 *cyclically and with
multiplicity* (index k+1 wraps to 1), so k = 1 gives +1 everywhere and
k = 2 gives -1 everywhere.  This is the unique reading under which the
entry/trace formulas match direct products; the test suite enforces it.

Subsets are bitmasks: index i in {1..k} is bit i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import Mat2
from .errors import KMismatchError, NonIntegerEntryError, SizeLimitError
from .words import Word, word_det

DEFAULT_SUBSET_LIMIT = 12  # 4^k terms; the reference path refuses beyond this
# largest k `trace_fast` takes: its tables hold 2^k big ints, and a
# `verify --suite bounds` sample at k = 20 takes 2.4-4 s and peaks at 143 MB
# resident (Python 3.11, one core of a 2 vCPU host); each k doubles both
FAST_TRACE_LIMIT = 20
# largest k `compute_nk` certifies: its two exact tests take about 1 s at
# k = 1,000 and 8-11 s at 2,000 (Python 3.11, one core of a 2 vCPU host)
MAX_NK_K = 1_000


class SubsetPair(NamedTuple):
    a_mask: int
    b_mask: int


class UQuadruple(NamedTuple):
    u00: Fraction
    u10: Fraction
    u01: Fraction
    u11: Fraction


def sigma_sign(k: int, i: int, j: int) -> int:
    """(-1)^m where m counts, cyclically, the matches of j against {i, i+1}."""
    if not (1 <= i <= k and 1 <= j <= k):
        raise IndexError(f"indices ({i},{j}) outside 1..{k}")
    m = (j % k == i % k) + (j % k == (i + 1) % k)
    return -1 if m % 2 else 1


def sigma_term(w: Word, pair: SubsetPair) -> Fraction:
    """2^(-k + sum_{i in A} alpha_i) * 3^(sum_{j in B} beta_j) * prod of signs.

    The sign product runs over i not in A, j in B; the result is a dyadic
    rational with denominator dividing 2^k.
    """
    k = w.k
    a_mask, b_mask = pair
    full = (1 << k) - 1
    if a_mask & ~full or b_mask & ~full:
        raise IndexError(f"subset masks ({a_mask:#x},{b_mask:#x}) outside 1..{k}")
    sa = sum(w.alphas[i] for i in range(k) if a_mask >> i & 1)
    sb = sum(w.betas[j] for j in range(k) if b_mask >> j & 1)
    sign = 1
    for i in range(1, k + 1):
        if a_mask >> (i - 1) & 1:
            continue
        for j in range(1, k + 1):
            if b_mask >> (j - 1) & 1:
                sign *= sigma_sign(k, i, j)
    return Fraction(sign * 3**sb * 2**sa, 2**k)


def _pow_tables(w: Word) -> tuple[list[int], list[int]]:
    """For every mask: 2^(sum of alphas in mask) and 3^(sum of betas in mask)."""
    k = w.k
    pow2 = [0] * (1 << k)
    pow3 = [0] * (1 << k)
    pow2[0] = pow3[0] = 1
    for m in range(1, 1 << k):
        low = m & -m
        i = low.bit_length() - 1
        pow2[m] = pow2[m ^ low] * 2 ** w.alphas[i]
        pow3[m] = pow3[m ^ low] * 3 ** w.betas[i]
    return pow2, pow3


def _sign_mask(a_mask: int, k: int) -> int:
    """Mask D with bit j set iff the sign contribution of j in B is odd.

    For fixed A the sigma sign of (A, B) is (-1)^popcount(B & D): the parity
    of matches at j is bit_A(j) xor bit_A(j-1 cyclic).
    """
    full = (1 << k) - 1
    rol = ((a_mask << 1) & full) | (a_mask >> (k - 1))
    return a_mask ^ rol


def u_quantities(w: Word) -> UQuadruple:
    """The four boundary-classified subset-pair sums (4^k terms)."""
    k = w.k
    if k > DEFAULT_SUBSET_LIMIT:
        raise SizeLimitError(f"k={k} exceeds subset-sum limit {DEFAULT_SUBSET_LIMIT}")
    pow2, pow3 = _pow_tables(w)
    top = 1 << (k - 1)  # bit of index k
    acc = [0, 0, 0, 0]  # numerators over 2^k for u00, u10, u01, u11
    for a_mask in range(1 << k):
        d_mask = _sign_mask(a_mask, k)
        base = pow2[a_mask]
        a_bit = 1 if a_mask & top else 0
        for b_mask in range(1 << k):
            term = base * pow3[b_mask]
            if (b_mask & d_mask).bit_count() & 1:
                term = -term
            acc[(a_bit << 1) | (b_mask & 1)] += term
    den = 2**k
    return UQuadruple(
        Fraction(acc[0], den),
        Fraction(acc[2], den),
        Fraction(acc[1], den),
        Fraction(acc[3], den),
    )


def entries_from_u(q: UQuadruple) -> Mat2:
    """Matrix entries from the U quadruple; the dyadic parts must cancel."""
    vals = (
        q.u00 + q.u01 - q.u10 + q.u11,
        q.u11 - q.u10,
        2 * q.u10 - 2 * q.u00,
        2 * q.u10,
    )
    for v in vals:
        if v.denominator != 1:
            raise NonIntegerEntryError(f"non-integer entry {v} from {q}")
    return Mat2(*(int(v) for v in vals))


def trace_subsetpair(w: Word) -> int:
    """Trace as the unrestricted sum of sigma(A, B) over all 4^k subset pairs.

    The four U sums partition the subset pairs, so the trace is their total.
    """
    q = u_quantities(w)
    total = q.u00 + q.u10 + q.u01 + q.u11
    if total.denominator != 1:
        raise NonIntegerEntryError(f"subset-pair trace {total} is not integral")
    return int(total)


def trace_fast(w: Word) -> int:
    """Trace via the collapsed 2^k-term sum.

    2^-k * sum over B of 3^(sum_B betas) * prod_{j in Bbar} (2^alpha_j - 1)
    * prod_{j not in Bbar} (2^alpha_j + 1), where Bbar is the symmetric
    difference of B with its cyclic downshift (0 identified with k).
    A k past ``FAST_TRACE_LIMIT`` is refused before any table is built.
    """
    k = w.k
    if k > FAST_TRACE_LIMIT:
        raise SizeLimitError(f"k={k} exceeds fast-trace limit {FAST_TRACE_LIMIT}")
    _, pow3 = _pow_tables(w)
    minus = [2**a - 1 for a in w.alphas]
    plus = [2**a + 1 for a in w.alphas]
    total = 0
    for b_mask in range(1 << k):
        eta = (b_mask >> 1) | ((b_mask & 1) << (k - 1))
        bbar = b_mask ^ eta
        term = pow3[b_mask]
        for j in range(k):
            term *= minus[j] if bbar >> j & 1 else plus[j]
        total += term
    q, r = divmod(total, 2**k)
    if r:
        raise NonIntegerEntryError(f"fast trace {total}/2^{k} is not integral")
    return q


class BoundsWitness(NamedTuple):
    det: int
    trace: int
    upper: int
    lhs_ok: bool  # det <= 2^k * trace
    rhs_ok: bool  # 2^k * trace <= prod (1 + 3^beta_i)(1 + 2^alpha_i)


def bounds_check(w: Word) -> BoundsWitness:
    """Evaluate the det <= 2^k tr <= product sandwich exactly; a k past
    ``trace_fast``'s limit is refused."""
    det = word_det(w)
    tr = trace_fast(w)
    mid = 2**w.k * tr
    upper = 1
    for b, a in zip(w.betas, w.alphas):
        upper *= (1 + 3**b) * (1 + 2**a)
    return BoundsWitness(det, tr, upper, det <= mid, mid <= upper)


@dataclass(frozen=True)
class NkCertificate:
    """Exponent threshold n for block count k; its exact witnesses are
    computed from (k, n) when read.

    Words whose exponents all exceed n have no integer eigenvalues: the
    product bound pins the small eigenvalue to the impossible value 2^k,
    and the determinant floor closes the bounded-large-eigenvalue branch.
    """

    k: int
    n: int

    @property
    def product_value(self) -> Fraction:
        """2^k * prod of worst-case factors at exponent n+1."""
        return Fraction(*nk_product_value(self.k, self.n))

    @property
    def product_threshold(self) -> int:
        """2^k - 1, must be exceeded."""
        return 2**self.k - 1

    @property
    def det_floor(self) -> int:
        """6^(k*(n+1)), least determinant of an all-large word."""
        return 6 ** (self.k * (self.n + 1))

    @property
    def det_threshold(self) -> int:
        """(4^k + 2^k)^2, must be strictly below the floor."""
        return (4**self.k + 2**self.k) ** 2

    @property
    def margin_ok(self) -> bool:
        return all(nk_conditions(self.k, self.n))


def nk_product_value(k: int, n: int) -> tuple[int, int]:
    """2^k * prod_{i=1..k} 2^(n+1) 3^(n+1) / ((2^(n+1)+1)(3^(n+1)+1)), as the
    coprime pair (numerator, denominator).

    Each factor increases in both exponents, so exponent n+1 (the least
    allowed by ``> n``) is the worst case.  With f = (2^e+1)(3^e+1) and
    e = n+1, the value is 2^(k+ek) 3^(ek) / f^k.  f has at most 2 factors 2
    and at most e factors 3, so the gcd of the two sides is
    2^(k v2(f)) 3^(k v3(f)): the reduced form is built from f with its 2s
    and 3s struck out, with no gcd of the two sides of about 2.6ek bits.
    """
    e = n + 1
    f = (2**e + 1) * (3**e + 1)
    v = [0, 0]
    for i, r in enumerate((2, 3)):
        while f % r == 0:
            f //= r
            v[i] += 1
    return 2 ** (k + e * k - k * v[0]) * 3 ** (e * k - k * v[1]), f**k


def nk_conditions(k: int, n: int) -> tuple[bool, bool]:
    """(product bound exceeded, determinant floor clears the small-mu branch),
    compared as integer cross-products."""
    e = n + 1
    cond_i = 2**k * 6 ** (e * k) > (2**k - 1) * ((2**e + 1) * (3**e + 1)) ** k
    cond_ii = 6 ** (k * e) > (4**k + 2**k) ** 2
    return cond_i, cond_ii


def nk_threshold(k: int) -> int:
    """n(k) = k + L - 1 with L = k.bit_length(), and n(1) = 2: the least
    exponent threshold for k >= 1 blocks, by the proof in ``compute_nk``,
    which also tests it exactly."""
    return 2 if k == 1 else k + k.bit_length() - 1


def compute_nk(k: int) -> NkCertificate:
    """The certificate of the least n making both exclusion conditions hold:
    n = k + L - 1 with L = k.bit_length(), and n = 2 at k = 1.

    Both conditions only get easier as n grows, so holding at n and failing
    at n - 1, both tested exactly below, make n the least.  With e = n + 1
    and x = 2^-k, condition (i) reads ((1+2^-e)(1+3^-e))^k < 1/(1-x).
    - e = k + L: by ln(1+y) <= y, (i) holds as k(2^-e + 3^-e) < x <= -ln(1-x),
      since k < 2^L and (2/3)^(k+L) < 2^-L; (ii) holds for k >= 2 as e >= 3
      and (4^k + 2^k)^2 < 4 * 16^k < 6^(3k).
    - e = k + L - 1, k >= 2: k 2^-e = cx with c = k/2^(L-1) in [1, 2).  By
      ln(1+y) >= y - y^2/2 and -ln(1-x) <= x + x^2/(2(1-x)), (i) fails when
      c > 1, as (c-1)x >= x/k outweighs the x^2 terms; at c = 1 the k 3^-e
      term outweighs them for k >= 8, and the test settles k = 2 and 4.
    - k = 1: (ii) is an equality at n = 1 (6^2 = (4+2)^2); both hold at 2.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > MAX_NK_K:
        raise SizeLimitError(f"k={k} is over the limit {MAX_NK_K} for the n(k) certificate")
    n = nk_threshold(k)
    if [all(nk_conditions(k, m)) for m in (n - 1, n)] != [False, True]:
        raise AssertionError(f"n = {n} is not the least exponent threshold for k = {k}")
    # the trace lower bound also needs 3^(k(n+1)) > 4^k, automatic for n >= 1
    assert 3 ** (k * (n + 1)) > 4**k
    return NkCertificate(k, n)


def prefilter_excludes(w: Word, cert: NkCertificate) -> bool:
    """True only when every exponent of w exceeds cert.n.

    A True answer is a sound certificate that the word's matrix has no
    integer eigenvalues; False makes no claim either way.
    """
    if w.k != cert.k:
        raise KMismatchError(f"certificate is for k={cert.k}, word has k={w.k}")
    return min(w.exponents()) > cert.n
