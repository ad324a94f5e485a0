"""Words over the generators R = [3,1;0,1] and S = [1,0;1,2].

A word (beta_1, alpha_1, ..., beta_k, alpha_k) names the product
R^beta_1 S^alpha_1 ... R^beta_k S^alpha_k.  Evaluation uses closed-form
generator powers (geometric series), so cost is independent of exponent
size; repeated multiplication stays available as the test oracle.

The box of words with interior exponents in [1, M] and boundary exponents
in [0, M] has exactly (M+1)^2 * M^(2k-2) members; enumeration is a lazy
lexicographic stream.  The census addresses it by word ranges [start,
stop) in that order (``sieve.sieve_words``); ``enumerate_lambda_block``
lists the contiguous range with the first two exponents fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import Mat2
from .errors import BudgetExceededError

R = Mat2(3, 1, 0, 1)
S = Mat2(1, 0, 1, 2)

DEFAULT_FREENESS_BUDGET = 2_000_000


@dataclass(frozen=True)
class Word:
    """Alternating exponent vector, a word's one form; value type with structural equality."""

    betas: tuple[int, ...]
    alphas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(int(b) for b in self.betas))
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        if len(self.betas) != len(self.alphas) or not self.betas:
            raise ValueError("need k >= 1 beta/alpha pairs of equal length")
        if any(e < 0 for e in self.betas + self.alphas):
            raise ValueError("exponents must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.betas)

    def exponents(self) -> tuple[int, ...]:
        """Interleaved (beta_1, alpha_1, ..., beta_k, alpha_k)."""
        return tuple(itertools.chain.from_iterable(zip(self.betas, self.alphas)))


def format_word_compact(w: Word) -> str:
    """Compact tuple form ``b1,a1,b2,a2,...``."""
    return ",".join(str(e) for e in w.exponents())


def word_eval(w: Word) -> Mat2:
    """Exact product R^b1 S^a1 ... R^bk S^ak using closed-form powers."""
    m = Mat2.identity()
    for b, a in zip(w.betas, w.alphas):
        m = m * r_power(b) * s_power(a)
    return m


def word_det(w: Word) -> int:
    """det of the word's matrix: 2^(sum alphas) * 3^(sum betas)."""
    return 2 ** sum(w.alphas) * 3 ** sum(w.betas)


@dataclass(frozen=True)
class GeneratorPair:
    """Generalized generators A = [a, u; 0, 1] and B = [1, 0; v, b].

    The default (3, 1, 1, 2) makes A = R and B = S.  General words follow
    the B-first convention B^b1 A^a1 ... B^bk A^ak, so for the default pair
    betas are S-exponents and alphas are R-exponents.
    """

    a: int
    u: int
    v: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 2 or self.b < 2:
            raise ValueError("diagonal entries a, b must be >= 2")
        if self.u < 1 or self.v < 1:
            raise ValueError("off-diagonal entries u, v must be >= 1")

    def a_power(self, n: int) -> Mat2:
        p = self.a**n
        return Mat2(p, self.u * (p - 1) // (self.a - 1), 0, 1)

    def b_power(self, n: int) -> Mat2:
        p = self.b**n
        return Mat2(1, 0, self.v * (p - 1) // (self.b - 1), p)


DEFAULT_GENERATORS = GeneratorPair(3, 1, 1, 2)

# R^n = [3^n, (3^n - 1)/2; 0, 1] and S^n = [1, 0; 2^n - 1, 2^n]
r_power = DEFAULT_GENERATORS.a_power
s_power = DEFAULT_GENERATORS.b_power


def word_eval_general(w: Word, g: GeneratorPair) -> Mat2:
    """Exact product B^b1 A^a1 ... B^bk A^ak for the generalized pair."""
    m = Mat2.identity()
    for b, a in zip(w.betas, w.alphas):
        m = m * g.b_power(b) * g.a_power(a)
    return m


def lambda_count(k: int, M: int) -> int:
    """(M+1)^2 * M^(2k-2): boundary exponents range over [0, M], interior over [1, M]."""
    if k < 1 or M < 1:
        raise ValueError("need k >= 1 and M >= 1")
    return (M + 1) ** 2 * M ** (2 * k - 2)


def _exponent_ranges(k: int, M: int) -> list[range]:
    """beta_1 and alpha_k run over [0, M], the interior exponents over [1, M]."""
    return [range(0, M + 1), *[range(1, M + 1)] * (2 * k - 2), range(0, M + 1)]


def enumerate_lambda(k: int, M: int) -> Iterator[Word]:
    """Every word of the (k, M) box exactly once, lexicographic in the exponent tuple."""
    if k < 1 or M < 1:
        raise ValueError("need k >= 1 and M >= 1")
    for tup in itertools.product(*_exponent_ranges(k, M)):
        yield Word(tup[0::2], tup[1::2])


def enumerate_lambda_block(k: int, M: int, beta1: int, alpha1: int) -> Iterator[Word]:
    """The sub-stream of the box with the first two exponents fixed."""
    ranges = _exponent_ranges(k, M)
    if beta1 not in ranges[0] or alpha1 not in ranges[1]:
        raise ValueError(f"prefix ({beta1},{alpha1}) outside the (k={k}, M={M}) box")
    if k == 1:
        yield Word((beta1,), (alpha1,))
        return
    for tup in itertools.product(*ranges[2:]):
        yield Word((beta1,) + tup[0::2], (alpha1,) + tup[1::2])


def freeness_check(k: int, M: int) -> bool:
    """The tuples of the (j, M) boxes for j <= k give distinct matrices.

    This is the injectivity of the word -> matrix map on those boxes, since
    no two of their tuples denote the same reduced word (zero exponents
    dropped, equal neighbours merged).  Only beta_1 and alpha_j may be 0,
    so reducing drops at most those two and merges nothing: the reduced
    word alternates R and S in 2j - z blocks, z the number of zero
    boundary exponents.  It starts with R exactly when beta_1 > 0 and ends
    with S exactly when alpha_j > 0; that gives z, then j, then the whole
    tuple (the empty word is the tuple (0, 0) alone).
    """
    total = sum(lambda_count(j, M) for j in range(1, k + 1))
    if total > DEFAULT_FREENESS_BUDGET:
        raise BudgetExceededError(f"{total} words exceed budget {DEFAULT_FREENESS_BUDGET}")
    seen: set[Mat2] = set()
    for j in range(1, k + 1):
        for w in enumerate_lambda(j, M):
            m = word_eval(w)
            if m in seen:
                return False
            seen.add(m)
    return True
