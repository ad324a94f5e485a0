"""The census leaf pipeline: an exact modular sieve in numpy, then an exact
test of its few survivors on raw integers.

Census word ranges, sampled draws and search boxes all go through it.  The
sieve works modulo m = 5*7*11*13*17*19*23 = 37,182,145 < 2^26, which is
coprime to the determinant 2^(sum alpha) 3^(sum beta), so the determinant
is a unit mod m.  A chunk of at most ``SIEVE_CHUNK_WORDS`` consecutive words
of a box is a run of exponent prefixes (the heads) times the full ranges of
the remaining positions (the tails); chunks start at multiples of their
size, and heads are made only as far as a word range reaches.  The heads'
products are carried as int64 residues (four entries plus the determinant)
and extended one tail position at a time as outer products with tables of
generator powers mod m, in lexicographic order.  Residues stay below m, so every product is below
2^52 and every sum below 2^55: the int64 arithmetic is exact.  At the last
position only the trace is formed, and disc = tr^2 - 4 det mod m must be a
square mod 5005 = 5*7*11*13 and mod 7429 = 17*19*23.  About 1% of words
survive.  A survivor whose exponents all exceed the prefilter threshold is
dropped; the others are confirmed on raw Python integers: the product is
rebuilt from the exponent tuple and its trace and discriminant go through
``core.eigen_from_disc`` (``isqrt`` and the parity test).  Objects are
built only for a confirmed hit: the leaf makes its ``OmegaMember``, whose
``Mat2`` and ``EigenPair`` come from those integers.

A box whose largest exponent is at most a chunk gets power tables of
every exponent; past that no chunk has tails, and each call's tables cover
its own heads' exponents only, so memory follows the chunk, not the box.
Sampled words (drawn by the ``getrandbits`` calls of ``Random.randint``)
and a checkpoint's stored words are heads with no tails.  The tests' oracle
for the sieve is the plain one: every word of a block, multiplied out and
given to ``core.integer_eigenvalues``.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import EigenPair, Mat2, eigen_from_disc
from .words import Word, _exponent_ranges


def _square_residues(m: int) -> bytes:
    """Byte r is 1 iff r is a square mod m."""
    table = bytearray(m)
    for s in range(m):
        table[s * s % m] = 1
    return bytes(table)


# The sieve modulus, the product of two factors with a square-residue table
# each.  Both are coprime to 6, so the determinant 2^a 3^b is a unit modulo
# each prime, and m < 2^26 keeps every product of two residues below 2^52.
SIEVE_FACTORS = (5 * 7 * 11 * 13, 17 * 19 * 23)
SIEVE_MODULUS = SIEVE_FACTORS[0] * SIEVE_FACTORS[1]


@functools.cache
def _sieve_squares() -> tuple[np.ndarray, ...]:
    """Entry r of table i is True iff r is a square mod ``SIEVE_FACTORS[i]``."""
    return tuple(np.frombuffer(_square_residues(q), dtype=bool) for q in SIEVE_FACTORS)


# Words per sieve chunk: bounds the int64 arrays of one sieve call
SIEVE_CHUNK_WORDS = 1 << 14

# A generator is a function n -> G^n as a Mat2, in closed form.
PowerFn = Callable[[int], Mat2]


@dataclass(frozen=True)
class OmegaMember:
    """A word whose matrix has integer eigenvalues, with its witnesses."""

    word: Word
    matrix: Mat2
    eigen: EigenPair


def _times(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residues of x g: rows a, b, c, d, det of two (5, ...) arrays, broadcast."""
    xa, xb, xc, xd, xdet = x
    ga, gb, gc, gd, gdet = g
    out = np.empty((5, *np.broadcast_shapes(xa.shape, ga.shape)), dtype=np.int64)
    terms = ((xa, ga, xb, gc), (xa, gb, xb, gd), (xc, ga, xd, gc), (xc, gb, xd, gd))
    for row, (u, v, w, z) in zip(out, terms):
        np.multiply(u, v, out=row)
        row += w * z
    np.multiply(xdet, gdet, out=out[4])
    out %= SIEVE_MODULUS
    return out


def _power_table(g: Mat2, exponents: np.ndarray) -> np.ndarray:
    """Rows a, b, c, d, det of g^e mod m for each e of ``exponents``, a
    (5, len(exponents)) int64 array, by square and multiply."""
    table = np.zeros((5, len(exponents)), dtype=np.int64)
    table[[0, 3, 4]] = 1
    step = np.array([[v % SIEVE_MODULUS] for v in (*g.entries(), g.det())], dtype=np.int64)
    e = np.array(exponents, dtype=np.int64)
    while e.any():
        odd = np.flatnonzero(e & 1)
        table[:, odd] = _times(table[:, odd], step)
        step = _times(step, step)
        e >>= 1
    return table


def _discriminants(
    tables: tuple[np.ndarray, np.ndarray], heads: np.ndarray, tails: list[range]
) -> np.ndarray:
    """tr^2 - 4 det mod m of each word of ``heads`` x ``tails``.

    A row of ``heads`` fixes the first exponents of a word and ``tails`` are
    the ranges of the others; words are in lexicographic order, and exponent
    i indexes ``tables[i % 2]``.
    """
    x = tables[0][:, heads[:, 0]]
    for i in range(1, heads.shape[1]):
        x = _times(x, tables[i % 2][:, heads[:, i]])
    if tails:
        i = heads.shape[1]
        for r in tails[:-1]:
            x = _times(x[:, :, None], tables[i % 2][:, None, r.start : r.stop]).reshape(5, -1)
            i += 1
        # the last exponent: only the trace, a sum of four products below 2^54
        xa, xb, xc, xd, xdet = x[:, :, None]
        ga, gb, gc, gd, gdet = tables[i % 2][:, None, tails[-1].start : tails[-1].stop]
        disc = xa * ga
        # one scratch array for the other products, so that few word-sized
        # arrays are alive at once
        term = np.empty_like(disc)
        for u, v in ((xb, gc), (xc, gb), (xd, gd)):
            disc += np.multiply(u, v, out=term)
        det = np.multiply(xdet, gdet, out=term)
    else:
        disc, det = x[0] + x[3], x[4].copy()
    disc %= SIEVE_MODULUS
    disc *= disc
    det <<= 2
    disc -= det
    disc %= SIEVE_MODULUS
    return disc.ravel()


def _sieve(
    tables: tuple[np.ndarray, np.ndarray], heads: np.ndarray, tails: list[range]
) -> np.ndarray:
    """Flat indices of the words of ``heads`` x ``tails`` that pass the sieve.

    No word outside the result is a hit: a perfect square is a square
    modulo every factor of m.
    """
    disc = _discriminants(tables, heads, tails)
    keep = np.ones(disc.shape, dtype=bool)
    for q, squares in zip(SIEVE_FACTORS, _sieve_squares()):
        keep &= squares[disc % q]
    return np.flatnonzero(keep)


class _Leaves:
    """The leaf pipeline for words left^e0 right^e1 left^e2 ... with no
    exponent above ``top``.

    With ``top`` at most a chunk the power tables cover the exponents
    0..top, and a table column is its exponent.  Past a chunk every range
    of a box is longer than a chunk, so no call has tails, and each call
    builds tables for the exponents of its own heads only.
    """

    def __init__(self, left: PowerFn, right: PowerFn, top: int) -> None:
        self.generators = (left(1), right(1))
        self.tables = self._tables(np.arange(top + 1)) if top <= SIEVE_CHUNK_WORDS else None
        powers = [lambda e, g=g: g(e).entries() for g in (left, right)]
        # exponents up to a chunk recur from word to word; past it a cache
        # would grow with the box
        self.powers = tuple(powers if self.tables is None else map(functools.cache, powers))

    def _tables(self, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_power_table(g, exponents) for g in self.generators)

    def hits(
        self, heads: np.ndarray, tails: list[range], n: int, lo: int, hi: int
    ) -> Iterator[OmegaMember]:
        """The hits among words ``lo`` to ``hi - 1`` of ``heads`` x ``tails``,
        in order; a word whose exponents all exceed ``n`` is not tested."""
        if self.tables is None:
            assert not tails, "per-call power tables cover heads only"
            values, columns = np.unique(heads.ravel(), return_inverse=True)
            index = _sieve(self._tables(values), columns.reshape(heads.shape), tails)
        else:
            index = _sieve(self.tables, heads, tails)
        index = index[(index >= lo) & (index < hi)]
        tail = math.prod(map(len, tails))
        words = np.concatenate([heads[index // tail], _exponents(index % tail, tails)], axis=1)
        for exponents in words.tolist():
            if min(exponents) > n:
                continue
            # the exact test, on the raw-integer product of the word
            xa, xb, xc, xd = 1, 0, 0, 1
            for i, e in enumerate(exponents):
                ga, gb, gc, gd = self.powers[i % 2](e)
                xa, xb, xc, xd = (
                    xa * ga + xb * gc, xa * gb + xb * gd, xc * ga + xd * gc, xc * gb + xd * gd
                )
            tr = xa + xd
            if (eigen := eigen_from_disc(tr, tr * tr - 4 * (xa * xd - xb * xc))) is not None:
                word = Word(exponents[0::2], exponents[1::2])
                yield OmegaMember(word, Mat2(xa, xb, xc, xd), eigen)


def _exponents(index: np.ndarray, ranges: list[range]) -> np.ndarray:
    """Row i: the exponents of word ``index[i]`` of ``ranges``, in
    lexicographic order, by its mixed-radix digits."""
    out = np.empty((len(index), len(ranges)), dtype=np.int64)
    for i in reversed(range(len(ranges))):
        index, digit = np.divmod(index, len(ranges[i]))
        out[:, i] = digit + ranges[i].start
    return out


def _split(ranges: list[range]) -> tuple[int, int]:
    """(p, tail): heads fix the first p >= 1 exponents, the fewest that leave
    a tail of at most a chunk's words."""
    p = 1
    while math.prod(map(len, ranges[p:])) > SIEVE_CHUNK_WORDS:
        p += 1
    return p, math.prod(map(len, ranges[p:]))


def chunk_words(ranges: list[range]) -> int:
    """Words per sieve chunk of the box ``ranges``; chunks start at multiples."""
    tail = _split(ranges)[1]
    return SIEVE_CHUNK_WORDS // tail * tail


def sieve_words(
    left: PowerFn, right: PowerFn, ranges: list[range], n: int, start: int, stop: int
) -> Iterator[tuple[int, list[OmegaMember]]]:
    """(words, members) of each sieve chunk of words ``start`` to ``stop - 1``,
    in order.

    Words are left^e0 right^e1 left^e2 ... with exponent i in ``ranges[i]``,
    numbered in lexicographic order of the exponent tuple; ``stop`` is at
    most their number.  A word whose exponents all exceed ``n`` is never a
    hit.
    """
    if start >= stop:
        return
    p, tail = _split(ranges)
    chunk = chunk_words(ranges)
    leaves = _Leaves(left, right, max(r.stop for r in ranges) - 1)
    for first in range(start - start % chunk, stop, chunk):
        lo, hi = max(start, first), min(stop, first + chunk)
        h = lo // tail  # the first head the range reaches in this chunk
        heads = _exponents(np.arange(h, -(-hi // tail)), ranges[:p])
        yield hi - lo, list(leaves.hits(heads, ranges[p:], n, lo - h * tail, hi - h * tail))


def confirm_words(
    left: PowerFn, right: PowerFn, ranges: list[range], n: int, words: list[list[int]]
) -> Iterator[OmegaMember]:
    """The members among ``words``, exponent lists of the box ``ranges``, in
    order, each re-proved and built by the leaf as a sieved word is."""
    heads = np.array(words, dtype=np.int64).reshape(-1, len(ranges))
    return _Leaves(left, right, max(r.stop for r in ranges) - 1).hits(heads, [], n, 0, len(heads))


def _draw_exponents(rng: random.Random, k: int, M: int, size: int) -> np.ndarray:
    """``size`` words of the (k, M) box, one exponent row each, drawn as
    ``rng.randint`` draws them exponent by exponent."""
    # randint(lo, hi) = lo + the first getrandbits(n.bit_length()) below n = hi - lo + 1
    spec = [(r.start, len(r), len(r).bit_length()) for r in _exponent_ranges(k, M)]
    getrandbits = rng.getrandbits
    out = array.array("q")
    append = out.append
    for lo, n, bits in itertools.chain.from_iterable(itertools.repeat(spec, size)):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        append(lo + r)
    return np.frombuffer(out, dtype=np.int64).reshape(size, 2 * k)


def sample_hits(
    left: PowerFn, right: PowerFn, rng: random.Random, k: int, M: int, size: int, n: int
) -> Iterator[OmegaMember]:
    """The members among ``size`` words of the (k, M) box drawn with ``rng``,
    in draw order; a word whose exponents all exceed ``n`` is never a hit."""
    leaves = _Leaves(left, right, M)
    # a batch of draws holds as many exponents as a chunk holds words
    batch = SIEVE_CHUNK_WORDS // (2 * k) or 1
    for start in range(0, size, batch):
        heads = _draw_exponents(rng, k, M, min(batch, size - start))
        yield from leaves.hits(heads, [], n, 0, len(heads))
