"""The census leaf pipeline: an exact modular sieve in numpy, then an exact
test of its few survivors on raw integers.

Census word ranges, sampled draws and search boxes all go through it.  The
sieve works modulo m = 5*7*11*13*17*19*23 = 37,182,145 < 2^26, which is
coprime to the determinant 2^(sum alpha) 3^(sum beta), so the determinant
is a unit mod m.  A chunk of at most ``SIEVE_CHUNK_WORDS`` consecutive words
of a box is a run of exponent prefixes (the heads) times the full ranges of
the remaining positions (the tails); chunks start at multiples of their
size, and heads are made only as far as a word range reaches.  Products are
carried as int64 residues, four entries plus the determinant, built from
tables of generator powers mod m.  Residues stay below m, so every product
of two is below 2^52 and every sum of four below 2^54: the int64 arithmetic
is exact.  A word goes through five stages, and only the last decides:

1. Tail product.  Every chunk of a box has the same tail words, so the
   residues T of their products (at most a chunk of them, in lexicographic
   order) are built once per box, with its power tables, by its one
   ``_Leaves``, mod m and, as int32, mod q1 = 5005.  A chunk builds only
   its heads' products H mod m.
2. Square test.  disc = tr^2 - 4 det must be a square mod
   q1 = 5005 = 5*7*11*13 and mod q2 = 7429 = 17*19*23.
   a. On every word, in int32 mod q1.  H and T reduced mod q1 are below
      5005, so each product of two is below 5005^2 < 2^25, and tr1, the sum
      of the four outer products of tr(H T), is below 2^27.  tr1 is reduced;
      det1, one product, is not, so disc1 = tr1^2 - 4 det1 lies in
      (-2^27, 2^25).  Its residue is looked up in the squares mod 5005.
      About 10% of words survive, (3/5)(4/7)(6/11)(7/13).
   b. On those survivors only, in int64.  Their head and tail columns give
      tr(H T) and det(H T) mod m exactly, and disc mod 7429 must be a
      square.  About 1.5% of words survive both.
   Reductions are x - (x // q) q: numpy's ``%`` by a scalar takes several
   times as long as its ``//``, and floor division gives ``%``'s residue in
   [0, q) for a negative x, such as a disc.
3. Small-eigenvalue congruence, for words of R and S only.  A survivor
   stays only if mu (tr - mu) = det mod m for some mu in S(k), the
   {2, 3}-units up to 2^(k+1); ``small_eigenvalues`` proves that every hit
   passes.  No bound on mu is proved for other generator pairs, so their
   words skip this stage.
4. The paper's theorem, for words of R and S only.  A survivor whose
   exponents all exceed n(k) (``spectral.nk_threshold``) has no integer
   eigenvalues and is dropped by a numpy mask, before its exact test.  At
   k = 1 many such words pass stages 2 and 3, since the mod-m tests repeat
   along each exponent, and their exact tests grow with the exponents.
5. Exact confirmation.  The product is rebuilt from the exponent tuple on
   raw Python integers, and its trace and discriminant go through
   ``core.eigen_from_disc`` (``isqrt`` and the parity test).  Objects are
   built only for a confirmed hit: the leaf makes its ``OmegaMember``,
   whose ``Mat2`` and ``EigenPair`` come from those integers.

The stages form a conjunction of tests, each of which every hit passes, so
the order and the split of stage 2 do not change which words survive.
A box whose largest exponent is at most a chunk gets power tables of
every exponent; past that no chunk has tails, and each call's tables cover
its own heads' exponents only, so memory follows the chunk, not the box.
Sampled words are ``Random.randint``'s exponents, read in bulk as blocks
of the generator's 32-bit words (``_draw_exponents``); they and a
checkpoint's stored words are heads whose one tail word is empty, with the
identity as its product.  The tests' oracle for the sieve is the
plain one: every word of a block, multiplied out and given to
``core.integer_eigenvalues``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import EigenPair, Mat2, eigen_from_disc
from .spectral import nk_threshold
from .words import Word, _exponent_ranges, r_power, s_power


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


# Bytes per scratch array of ``_reduce``: below glibc's default mmap
# threshold of 128 KiB, and a whole chunk of int32 residues
REDUCE_BLOCK_BYTES = 1 << 16


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q, in [0, q), in place as x - (x // q) q; x is contiguous.

    Floor division rounds toward minus infinity, so a negative x gets the
    residue that ``%`` gives.  Where (x // q) q overflows the dtype it
    wraps, and the subtraction, whose exact value fits, wraps back.  The
    quotients go to one scratch array per block of ``REDUCE_BLOCK_BYTES``:
    scratch as large as x can take the heap past glibc's trim threshold,
    so that every call faults its pages in afresh.
    """
    assert x.flags.forc, "reduced in place through a flat view"
    flat = x.ravel(order="K")
    step = REDUCE_BLOCK_BYTES // x.itemsize
    for i in range(0, len(flat), step):
        part = flat[i : i + step]
        y = part // q
        y *= q
        part -= y
    return x


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
    return _reduce(out, SIEVE_MODULUS)


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


def small_eigenvalues(k: int) -> np.ndarray:
    """Residues mod m of S(k) = {2^a 3^b <= 2^(k+1)}: every value the
    smaller eigenvalue of a hit of at most k blocks of R and S can take.

    Let W = R^b1 S^a1 ... R^bk S^ak, with exponents >= 0 and integer
    eigenvalues lambda >= mu.  Then lambda mu = det = 2^A 3^B > 0 and
    lambda + mu = tr > 0, so both are positive and mu = 2^a 3^b.  The trace
    formula (``spectral.trace_fast``) writes 2^k tr as a sum of one
    non-negative term per subset of the blocks; the term of all blocks is
    3^B prod_j (2^aj + 1) >= 3^B 2^A = det.  The formula is an identity of
    polynomials in the 2^aj and 3^bj, which take infinitely many values
    with exponents >= 1, so it holds for zero exponents too.  Hence
    det <= 2^k tr, lambda >= tr / 2 and mu = det / lambda <= 2 det / tr
    <= 2^(k+1).  As mu (tr - mu) = mu lambda = det, a hit satisfies
    mu (tr - mu) = det mod m for some mu in S(k).  An S-first word
    S^a0 R^b1 S^a1 ... R^bk is conjugate to the R-first word
    R^b1 S^a1 ... R^bk S^a0, so it has the same tr and det.
    """
    top = 1 << (k + 1)
    pow2 = np.array([pow(2, a, SIEVE_MODULUS) for a in range(k + 2)], dtype=np.int64)
    out, p3 = [], 1
    while p3 <= top:
        # the a with 2^a 3^b <= 2^(k+1), for p3 = 3^b
        out.append(pow2[: (top // p3).bit_length()] * (p3 % SIEVE_MODULUS) % SIEVE_MODULUS)
        p3 *= 3
    return np.concatenate(out)


def _has_small_eigenvalue(tr: np.ndarray, det: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """True where mu (tr - mu) = det mod m for some residue mu of ``mus``."""
    keep = np.zeros(tr.shape, dtype=bool)
    # blocks of mus that pair with every word in about a chunk of entries
    step = max(1, SIEVE_CHUNK_WORDS // max(1, len(tr)))
    for i in range(0, len(mus) if len(tr) else 0, step):
        mu = mus[i : i + step, None]
        keep |= (_reduce(mu * (tr - mu) - det, SIEVE_MODULUS) == 0).any(axis=0)
    return keep


def _tail_product(
    tables: tuple[np.ndarray, np.ndarray] | None, first: int, tails: list[range]
) -> np.ndarray:
    """Rows a, b, c, d, det mod m of the product of each word of ``tails``,
    in lexicographic order, a (5, words) array; its exponent i indexes
    ``tables[(first + i) % 2]``.  With no tails, the one empty word's
    product is the identity."""
    x = np.array([[1], [0], [0], [1], [1]], dtype=np.int64)
    for i, r in enumerate(tails, first):
        x = _times(x[:, :, None], tables[i % 2][:, None, r.start : r.stop]).reshape(5, -1)
    return x


def _head_products(tables: tuple[np.ndarray, np.ndarray], heads: np.ndarray) -> np.ndarray:
    """Rows a, b, c, d, det mod m of the product of each row of ``heads``, a
    (5, len(heads)) array; exponent i of a row indexes ``tables[i % 2]``."""
    x = tables[0][:, heads[:, 0]]
    for i in range(1, heads.shape[1]):
        x = _times(x, tables[i % 2][:, heads[:, i]])
    return x


def _traces(
    head: np.ndarray, tail: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(tr, det) mod m of the words at flat ``index`` of the words
    ``head`` x ``tail``, numbered in lexicographic order; both are products
    mod m, a ``_head_products`` and a ``_tail_product``."""
    h = index // tail.shape[1]
    t = index - h * tail.shape[1]
    xa, xb, xc, xd, xdet = head.take(h, axis=1)
    ta, tb, tc, td, tdet = tail.take(t, axis=1)
    # a sum of four products below 2^54
    tr = xa * ta
    tr += xb * tc
    tr += xc * tb
    tr += xd * td
    return _reduce(tr, SIEVE_MODULUS), _reduce(xdet * tdet, SIEVE_MODULUS)


def _sieve(
    tables: tuple[np.ndarray, np.ndarray], heads: np.ndarray, leaves: _Leaves
) -> np.ndarray:
    """Flat indices of the words of ``heads`` x the tails of ``leaves`` that
    pass the square test and, unless ``leaves.mus`` is None, the
    small-eigenvalue congruence.

    No word outside the result is a hit: a perfect square is a square
    modulo every factor of m, and ``small_eigenvalues`` shows that a hit
    of R and S passes the congruence.
    """
    (q1, q2), (squares1, squares2) = SIEVE_FACTORS, _sieve_squares()
    head = _head_products(tables, heads)
    # 2a, every word in int32 mod q1: products below 2^25, tr1 below 2^27
    xa, xb, xc, xd, xdet = _reduce(head.astype(np.int32), q1)[:, :, None]
    ta, tb, tc, td, tdet = leaves.tail_q1[:, None, :]
    tr = xa * ta
    # one scratch array for the other products, so that few word-sized
    # arrays are alive at once
    term = np.empty_like(tr)
    for u, v in ((xb, tc), (xc, tb), (xd, td)):
        tr += np.multiply(u, v, out=term)
    det = np.multiply(xdet, tdet, out=term)
    det <<= 2
    # disc1 = tr1^2 - 4 det1 in (-2^27, 2^25)
    disc = _reduce(tr, q1)
    disc *= disc
    disc -= det
    index = np.flatnonzero(squares1.take(_reduce(disc, q1)))
    # 2b, the survivors in int64 mod m
    tr, det = _traces(head, leaves.tail, index)
    keep = squares2.take(_reduce(tr * tr - (det << 2), q2))
    index, tr, det = index[keep], tr[keep], det[keep]
    if leaves.mus is not None:
        index = index[_has_small_eigenvalue(tr, det, leaves.mus)]
    return index


class _Leaves:
    """The leaf pipeline of one box: words left^e0 right^e1 left^e2 ... with
    exponent i in ``ranges[i]``, whose heads fix the first ``p`` exponents.

    Built once per box: the power tables, the ``_tail_product`` of the
    tail words (``tail_ranges``), mod m and as int32 mod
    ``SIEVE_FACTORS[0]``, ``small_eigenvalues`` of the block count when
    that stage applies, else None, and the threshold ``n`` of stage 4:
    n(k) for R and S, else the largest exponent, which drops nothing.
    With a largest exponent of at most a chunk the power tables cover the
    exponents 0 up to it, and a table column is its exponent.  Past a
    chunk every range of a box is longer than a chunk, so no word has tail
    exponents, and each call builds tables for the exponents of its own
    heads only.
    """

    def __init__(self, left: PowerFn, right: PowerFn, ranges: list[range], p: int) -> None:
        top = max(r.stop for r in ranges) - 1
        self.generators = (left(1), right(1))
        self.tables = self._tables(np.arange(top + 1)) if top <= SIEVE_CHUNK_WORDS else None
        assert p == len(ranges) or self.tables is not None, "per-call tables cover heads only"
        self.tail_ranges = ranges[p:]
        self.tail = _tail_product(self.tables, p, self.tail_ranges)
        self.tail_q1 = _reduce(self.tail.astype(np.int32), SIEVE_FACTORS[0])
        # the small-eigenvalue bound and the paper's theorem are proved for
        # R and S, in either order (an S-first word is conjugate to an
        # R-first one)
        small = set(self.generators) == {r_power(1), s_power(1)}
        k = (len(ranges) + 1) // 2
        self.mus = small_eigenvalues(k) if small else None
        self.n = nk_threshold(k) if small else top
        powers = [lambda e, g=g: g(e).entries() for g in (left, right)]
        # exponents up to a chunk recur from word to word; past it a cache
        # would grow with the box
        self.powers = tuple(powers if self.tables is None else map(functools.cache, powers))

    def _tables(self, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_power_table(g, exponents) for g in self.generators)

    def hits(self, heads: np.ndarray, lo: int, hi: int) -> Iterator[OmegaMember]:
        """The hits among words ``lo`` to ``hi - 1`` of ``heads`` x the tails,
        in order; a word whose exponents all exceed ``n`` is not tested."""
        if self.tables is None:
            values, columns = np.unique(heads.ravel(), return_inverse=True)
            tables, rows = self._tables(values), columns.reshape(heads.shape)
        else:
            tables, rows = self.tables, heads
        index = _sieve(tables, rows, self)
        index = index[(index >= lo) & (index < hi)]
        tail = self.tail.shape[1]
        words = np.concatenate(
            [heads[index // tail], _exponents(index % tail, self.tail_ranges)], axis=1
        )
        for exponents in words[words.min(axis=1) <= self.n].tolist():
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
    left: PowerFn, right: PowerFn, ranges: list[range], start: int, stop: int
) -> Iterator[tuple[int, list[OmegaMember]]]:
    """(words, members) of each sieve chunk of words ``start`` to ``stop - 1``,
    in order.

    Words are left^e0 right^e1 left^e2 ... with exponent i in ``ranges[i]``,
    numbered in lexicographic order of the exponent tuple; ``stop`` is at
    most their number.
    """
    if start >= stop:
        return
    p, tail = _split(ranges)
    chunk = chunk_words(ranges)
    leaves = _Leaves(left, right, ranges, p)
    for first in range(start - start % chunk, stop, chunk):
        lo, hi = max(start, first), min(stop, first + chunk)
        h = lo // tail  # the first head the range reaches in this chunk
        heads = _exponents(np.arange(h, -(-hi // tail)), ranges[:p])
        yield hi - lo, list(leaves.hits(heads, lo - h * tail, hi - h * tail))


def confirm_words(ranges: list[range], words: list[list[int]]) -> Iterator[OmegaMember]:
    """The members among ``words``, exponent lists of the census box
    ``ranges``, in order, each re-proved and built by the leaf as a sieved
    word is."""
    heads = np.array(words, dtype=np.int64).reshape(-1, len(ranges))
    return _Leaves(r_power, s_power, ranges, len(ranges)).hits(heads, 0, len(heads))


# The largest M whose box can be sampled: exponents are drawn as int64, and
# the size M + 1 of the range 0..M must fit a C ssize_t
MAX_SAMPLED_M = 2**63 - 2


def _draw_exponents(rng: random.Random, k: int, M: int, size: int) -> np.ndarray:
    """``size`` words of the (k, M) box, one exponent row each: the exponents
    that ``rng.randint`` draws exponent by exponent, read from the stream in
    bulk, and ``rng`` left where those draws leave it.

    Three facts of CPython 3.11's ``Random``, an MT19937 generator, make a
    bulk read exact:

    - ``randint(lo, hi)`` is lo + r, where r is the first ``getrandbits(b)``
      below n = hi - lo + 1, with b = n.bit_length().
    - For b <= 32, ``getrandbits(b)`` takes one 32-bit word w and returns
      w >> (32 - b).  For b > 32 it takes ceil(b/32) words, least
      significant first, and shifts the last right by 32 ceil(b/32) - b.
    - ``getrandbits(32 N).to_bytes(4 N, "little")`` holds N words in the
      order they were generated.

    A box has two kinds of range: 0..M at both ends of a word and 1..M
    inside it.  A round reads one attempt's words per missing exponent, up
    to the first position whose attempts take another number of words (for
    int64 exponents the kinds differ in it only at M + 1 = 2^32).  Every
    missing exponent takes at least one attempt, so no round reads past the
    words that the ``randint`` loop reads.  An attempt accepted at every
    position of the round, or rejected at every one, is resolved in bulk;
    one whose fate depends on its position is walked in order, carrying the
    position.  The j-th accepted attempt of a round fills the j-th missing
    position, so each value is lo + r of that position's kind, as arrays.
    """
    ranges = _exponent_ranges(k, M)
    # 0..M, then 1..M for k > 1: kind i is the range that starts at i
    kinds = list(dict.fromkeys(ranges))
    kind = [kinds.index(r) for r in ranges]
    bits = [len(r).bit_length() for r in kinds]
    words = [-(-b // 32) for b in bits]
    period, out = len(ranges), np.empty(size * len(ranges), dtype=np.int64)
    # the kinds of the missing positions, from any first one of the period
    cycle = np.tile(np.array(kind, dtype=np.int8), size + 1)
    done = 0
    while done < len(out):
        o = done % period
        c = words[kind[o]]
        change = (j for j in range(1, period) if words[kind[(o + j) % period]] != c)
        attempts = min(next(change, len(out)), len(out) - done)
        w = np.frombuffer(
            rng.getrandbits(32 * c * attempts).to_bytes(4 * c * attempts, "little"), dtype="<u4"
        ).reshape(attempts, c)
        # r of every attempt at each kind of the round, and where it is taken
        present = sorted(set(cycle[o : o + min(attempts, period)].tolist()))
        r = {}
        for b in {bits[i] for i in present}:
            r[b] = w[:, -1] >> (32 * c - b)
            for j in range(c - 2, -1, -1):
                r[b] = r[b].astype(np.uint64) << 32 | w[:, j]
        fate = [r[bits[i]] < len(kinds[i]) for i in present]
        taken = fate[0] & fate[-1]
        walked = np.flatnonzero(fate[0] ^ fate[-1])
        if len(walked):
            # taken at the ends of a word or inside it, not both.  Its
            # position is o plus the attempts taken before it, in bulk and
            # (e) by the walk; the table's half for its fate says, byte by
            # position mod period, whether the position takes it.
            span = period + len(walked)
            inner = np.resize(np.array(kind, dtype=np.uint8), span)
            table = np.concatenate([inner, 1 - inner]).tobytes()
            x = (o + np.cumsum(taken)[walked]) % period + fate[0][walked] * span
            e, seen = 0, []
            for i in x.tolist():
                e += table[i + e]
                seen.append(e)
            taken[walked] = np.diff(seen, prepend=0)
        index = np.flatnonzero(taken)
        at = cycle[o : o + len(index)]
        first, last = r[bits[present[0]]], r[bits[present[-1]]]
        got = first[index]
        if first is not last:
            got = np.where(at == present[0], got, last[index])
        # lo + r, with lo the kind and taken r below 2^63
        np.add(got, at, out=out[done : done + len(index)], dtype=np.int64, casting="unsafe")
        done += len(index)
    return out.reshape(size, 2 * k)


def sample_hits(rng: random.Random, k: int, M: int, size: int) -> Iterator[OmegaMember]:
    """The members among ``size`` words of the (k, M) census box drawn with
    ``rng``, in draw order."""
    leaves = _Leaves(r_power, s_power, _exponent_ranges(k, M), 2 * k)
    # a batch of draws holds as many exponents as a chunk holds words
    batch = SIEVE_CHUNK_WORDS // (2 * k) or 1
    for start in range(0, size, batch):
        heads = _draw_exponents(rng, k, M, min(batch, size - start))
        yield from leaves.hits(heads, 0, len(heads))
