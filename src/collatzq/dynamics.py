"""Piecewise linear-fractional dynamics on nonnegative rationals.

Two maps, each inverting a pair of generators:

  theta: (x-1)/3 for x >= 1, 2x/(1-x) for x < 1   (inverts r = 3x+1, s = x/(x+2))
  phi:   x-1     for x >= 1, x/(1-x)  for x < 1   (inverts f = x+1,  g = x/(x+1))

The branch taken at each orbit step names the generator that undoes it
(R/S for theta, F/G for phi), so a terminated orbit x_0 -> ... -> 0 recovers
x_0 = w_1(w_2(...w_n(0))) where the word w is the branch string in orbit
order (the first step's letter applied last).  phi strictly decreases p+q
of reduced p/q until reaching 0, so its orbits provably terminate; for
theta termination is the open question the sweep harness probes.

A word is carried as its run list, the exponents of alternating branch
runs.  A phi orbit is the Stern-Brocot descent of p/q: its runs
F^a0 G^a1 ... are the continued-fraction partial quotients, so phi stopping
times, words and replays, and the minimal completion and F/G
factorization of SL2 matrices, are computed one Euclid division per run
(`phi_runs`, `replay_runs_pq`, `complete_to_sl2`, `sl2_factor`).  A theta
orbit is likewise R^b1 S^a1 ... R^bk: the upper branch contracts x + 1/2
by 3 and the lower one contracts t + 1 by 2 in t = 1/x, so each run's
length and end point are one exact big-int step (`theta_runs`,
`replay_theta_runs_pq`).  Letters appear only when a run list is rendered
as text (`reports.word_str`).

Word recovery runs those run formulas in the int64 kernels
`kernels.theta_recovery` and `kernels.phi_recovery`, the sweeps' loops with
a check: each run's inverse, by the replay formulas, is taken right after
the run and must give back the run's start, and the rows leave on the
sweeps' stopping-time table.  The per-start big-int functions are the
tests' oracle and redo the theta rows the kernel's guard stops.

Sweeps run on raw reduced (p, q) integer pairs in the int64 numpy kernels
(see `kernels`), in bands of rows that bound their working memory.  The
starts come from a row sieve, a bool mask with one row per height p + q,
as arrays in (p+q, p) order (`reduced_fraction_arrays`), so a theta row
that first drops below its start mostly lands on a start whose stopping
time is already in the kernel's table, and ends there.  A theta row that
could overflow is redone here by `theta_runs`.  A phi orbit depends only
on its start's unordered pair, so p/q and its twin q/p have the same
stopping time and the same recovered-word check: the phi sweep and phi
recovery run only the starts p <= q, in sweep order, and build only
those: their sieve's rows hold only the columns p <= q (`_lower_half`).
Only 0/1 and 1/1 are their own twins.  The counts are the full sweep's,
and each failed start's twin is added back to the failures, which are
re-sorted in sweep order (`_with_twins`).  Both sweep reports are array
code over the kernel's (steps, flags): one first-maximum helper gives the
longest orbit, the first in sweep order, which for phi is a p <= q twin.
The theta sweep's per-start rows stay those arrays up to the CSV writer,
which renders them as digits with no per-row Python.  The stepwise forms
on reduced pairs, `orbit` (which records each point as a `Fraction`),
`orbit_pq` and `replay_word_pq`, and the start generator
`reduced_fractions` are the reference paths the tests check the run and
array forms against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import kernels
from .core import Mat2
from .errors import (
    MonotonicityError,
    NegativeInputError,
    NotCoprimeError,
    NotFactorableError,
    SizeLimitError,
)

THETA = "theta"
PHI = "phi"

DEFAULT_STEP_CAP = 10_000

# the highest sweep height: its (p+q, p) triangle holds H(H+1)/2 pairs,
# within 10^8, and the start sieve's mask of H rows holds H^2 bools (200 MB)
# for the theta starts and H(H/2 + 1) (100 MB) for phi's half.  A higher
# one is refused before anything is allocated.  At this one `sweep` took
# 14-16 s and peaked at 1.89 GB resident, and `phi_monotonicity_sweep`
# 2.5-3.1 s and 922 MB (2 vCPUs, x86-64 Linux, numpy 2.4)
MAX_SWEEP_HEIGHT = 14_141


# ---------------------------------------------------------------------------
# Stepwise orbits on reduced pairs: `orbit`, and the reference forms of the
# run paths below
# ---------------------------------------------------------------------------


def theta_step_pq(p: int, q: int) -> tuple[int, int, str]:
    """One theta step on reduced p/q >= 0; stays reduced.

    Upper branch (p-q)/(3q): gcd(p-q, 3q) = gcd(p-q, 3).  Lower branch
    2p/(q-p): gcd(2p, q-p) = gcd(2, q-p).
    """
    if p >= q:
        p2 = p - q
        if p2 == 0:
            return 0, 1, "R"
        if p2 % 3 == 0:
            return p2 // 3, q, "R"
        return p2, 3 * q, "R"
    q2 = q - p
    if p == 0:
        return 0, 1, "S"
    if q2 % 2 == 0:
        return p, q2 // 2, "S"
    return 2 * p, q2, "S"


def phi_step_pq(p: int, q: int) -> tuple[int, int, str]:
    """One phi step on reduced p/q >= 0; stays reduced with no divisions."""
    if p >= q:
        return p - q, q, "F"
    return p, q - p, "G"


@dataclass(frozen=True)
class OrbitRecord:
    map_name: str
    points: tuple[Fraction, ...]  # starting value first
    branches: str  # one letter per step

    @property
    def terminated(self) -> bool:
        """Reached 0, which ends an orbit."""
        return self.points[-1] == 0

    @property
    def stopping_time(self) -> int | None:
        """Index of the first 0 when terminated."""
        return len(self.points) - 1 if self.terminated else None


def orbit(x: Fraction, map_name: str = THETA, step_cap: int = DEFAULT_STEP_CAP) -> OrbitRecord:
    """Iterate until 0 or the cap, recording every point and branch.

    The reduced pair takes the steps, and each recorded point becomes a
    Fraction.  Cap exhaustion is data (terminated=False), not an error.
    For phi the non-increase of p+q is asserted at every step.
    """
    if map_name not in (THETA, PHI):
        raise ValueError(f"unknown map {map_name!r}")
    if step_cap < 0:
        raise ValueError("step_cap must be >= 0")
    x = Fraction(x)
    if x < 0:
        raise NegativeInputError(f"{map_name} is defined on x >= 0, got {x}")
    step = theta_step_pq if map_name == THETA else phi_step_pq
    p, q = x.numerator, x.denominator
    points = [x]
    branches: list[str] = []
    while p and len(branches) < step_cap:
        p2, q2, letter = step(p, q)
        if map_name == PHI and p2 + q2 > p + q:
            raise MonotonicityError(f"p+q increased at {x} -> {Fraction(p2, q2)}")
        p, q = p2, q2
        x = Fraction(p, q)
        points.append(x)
        branches.append(letter)
    return OrbitRecord(map_name=map_name, points=tuple(points), branches="".join(branches))


def orbit_pq(p: int, q: int, map_name: str, step_cap: int) -> tuple[int, bool, str]:
    """(steps, terminated, branch string) for reduced p/q, one step at a time."""
    step = theta_step_pq if map_name == THETA else phi_step_pq
    branches: list[str] = []
    while p != 0 and len(branches) < step_cap:
        p, q, letter = step(p, q)
        branches.append(letter)
    return len(branches), p == 0, "".join(branches)


def replay_word_pq(word: str) -> tuple[int, int]:
    """Replay a branch string from 0, exactly, as a reduced pair."""
    p, q = 0, 1
    for letter in reversed(word):
        if letter == "R":  # r: (3p + q)/q, reducible only by 3
            p = 3 * p + q
            if q % 3 == 0:
                p, q = p // 3, q // 3
        elif letter == "S":  # s: p/(p + 2q), reducible only by 2
            q = 1 if p == 0 else p + 2 * q
            if p and p % 2 == 0:
                p, q = p // 2, q // 2
        elif letter == "F":  # f: (p + q)/q, already reduced
            p = p + q
        else:  # g: p/(p + q), already reduced
            q = 1 if p == 0 else p + q
    return p, q


def phi_runs(p: int, q: int) -> list[int]:
    """Run-length phi word of reduced p/q >= 0: [a0, a1, ...] for F^a0 G^a1 ...

    Even positions are F runs and odd positions G runs; a0 is 0 when p < q,
    and the list always ends with the F run that reaches 0.  One division
    per run: from p >= q, phi takes p // q F steps to (p mod q)/q; from
    0 < p < q it takes (q-1) // p G steps to p/(q - n*p), which is q mod p
    except for p = 1.  These are the continued-fraction partial quotients
    of p/q with the last one split as (a_n - 1, 1) when it is a G run.
    Rendered as letters, the runs are `orbit_pq(p, q, PHI, ...)`'s branch
    string, and their sum is the stopping time.
    """
    runs = [p // q]
    p %= q
    while p:
        n = (q - 1) // p
        q -= n * p
        runs.append(n)
        n = p // q
        p -= n * q
        runs.append(n)
    return runs


def replay_runs_pq(runs: list[int], p: int = 0, q: int = 1) -> tuple[int, int]:
    """Replay a run-length phi word from p/q (0 by default), exactly, as a
    reduced pair.

    F^n maps p/q to (p + n*q)/q and G^n maps it to p/(q + n*p); both stay
    reduced, so no gcd is taken.  The word's product sends 0/1 to its right
    column and 1/0 to its left column.
    """
    for i in range(len(runs) - 1, -1, -1):
        if i & 1:
            q += runs[i] * p
        else:
            p += runs[i] * q
    return p, q


def theta_runs(p: int, q: int, step_cap: int) -> list[int] | None:
    """Run-length theta word of reduced p/q >= 0: [b1, a1, ..., bk, 0].

    The word is R^b1 S^a1 ... R^bk: even positions are R runs and odd
    positions S runs.  b1 is 0 when p < q, and the list ends with an empty S
    run after the R run that reaches 0, so `Word(runs[0::2], runs[1::2])` is
    the word.  None when the stopping time `sum(runs)` exceeds step_cap.
    One exact big-int step per run:

      R run from p >= q: n steps take x + 1/2 to (x + 1/2)/3^n, and x stays
        >= 1 while 3^(i+1) <= 2x + 1, so n is the largest n with
        3^n <= (2p + q) // q and the run ends at
        (p - q*(3^n - 1)/2) / (3^n*q), reducible only by 3s.
      S run from 0 < p < q: in t = q/p the steps take t + 1 to (t + 1)/2^n,
        and x stays < 1 while 2^(i+1) < (p + q)/p, so
        n = ((p + q - 1) // p).bit_length() - 1 and the run ends at
        2^n*p / (p + q - 2^n*p), reducible only by 2s.

    Rendered as letters, the runs are `orbit_pq(p, q, THETA, ...)`'s branch
    string.
    """
    runs = [0] if p < q else []
    total = 0
    while p:
        if p >= q:
            m = (2 * p + q) // q
            # 1.584963 > log2(3), so 3^n <= 2^(bit_length - 1) <= m to start
            # and the exact comparisons below add at most a few more 3s
            n = (m.bit_length() - 1) * 1_000_000 // 1_584_963
            t = 3**n
            while 3 * t <= m:
                t *= 3
                n += 1
            p -= q * (t >> 1)
            g = math.gcd(p, t)  # gcd(p, q) stays 1, so only 3s are common
            p //= g
            q *= t // g
        else:
            n = ((p + q - 1) // p).bit_length() - 1
            t = 1 << n
            q += p - t * p
            g = math.gcd(q, t)  # only 2s are common
            p *= t // g
            q //= g
        runs.append(n)
        total += n
        if total > step_cap:
            return None
    runs.append(0)
    return runs


def replay_theta_runs_pq(runs: list[int]) -> tuple[int, int]:
    """Replay a run-length theta word from 0, exactly, as a reduced pair.

    R^n maps p/q to (3^n*p + q*(3^n - 1)/2)/q, reducible only by gcd(q, 3^n),
    and S^n maps it to p/((2^n - 1)*p + 2^n*q), reducible only by gcd(p, 2^n).
    """
    p, q = 0, 1
    for i in range(len(runs) - 1, -1, -1):
        n = runs[i]
        if i & 1:
            t = 1 << n
            q = (t - 1) * p + t * q
            g = math.gcd(p, t)
        else:
            t = 3**n
            p = t * p + q * (t >> 1)
            g = math.gcd(q, t)
        p //= g
        q //= g
    return p, q


# ---------------------------------------------------------------------------
# SL2 completion and Stern-Brocot factorization
# ---------------------------------------------------------------------------

def complete_to_sl2(b: int, d: int) -> Mat2:
    """Minimal nonnegative [a, b; c, d] with a*d - b*c = 1 for coprime b, d >= 1.

    It is the product of the phi word of b/d: that word sends 0 to b/d, and
    its left column (a, c) is the word replayed from 1/0.
    """
    if b < 1 or d < 1:
        raise NegativeInputError(f"need b, d >= 1, got ({b}, {d})")
    if math.gcd(b, d) != 1:
        raise NotCoprimeError(f"gcd({b}, {d}) != 1")
    a, c = replay_runs_pq(phi_runs(b, d), 1, 0)
    return Mat2(a, b, c, d)


def sl2_factor(m: Mat2) -> list[int]:
    """Run list [a0, a1, ..., x] of the unique F/G word of a nonnegative SL2 matrix.

    F runs sit at even positions and G runs at odd ones, as in `phi_runs`;
    the list has even length and ends with the G run x, which may be 0.  A
    word's product sends 0 to the ratio of its right column, and G fixes
    0, so the word of [a, b; c, d] is the phi word of b/d (`phi_runs`, one
    division per run) followed by G^x.  The phi word ends in F; its product
    U is the minimal completion of (b, d) (`complete_to_sl2`; the identity
    when b = 0), whose entry U.c comes from replaying the same runs from
    1/0.  U times G^x = [U.a + x*b, b; U.c + x*d, d] gives x = (c - U.c) / d.
    """
    if min(m.entries()) < 0 or m.det() != 1:
        raise NotFactorableError(f"{m} is not a nonnegative SL2 matrix")
    runs = phi_runs(m.b, m.d)
    uc = replay_runs_pq(runs, 1, 0)[1]
    return runs + [(m.c - uc) // m.d]


def mobius_apply(m: Mat2, x: Fraction) -> Fraction:
    """(a*x + b)/(c*x + d)."""
    return (m.a * x + m.b) / (m.c * x + m.d)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def reduced_fractions(height_bound: int) -> Iterator[tuple[int, int]]:
    """Reduced (p, q), p >= 0, q >= 1, p + q <= bound, ordered by (p+q, p).

    0/1 is the unique p = 0 member, so x = 0 is tested exactly once.
    """
    for s in range(1, height_bound + 1):
        for p in range(0, s):
            q = s - p
            if math.gcd(p, q) == 1:
                yield p, q


def reduced_fraction_arrays(height_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """`reduced_fractions(height_bound)` as int64 arrays (ps, qs), same order.

    The starts are the kept entries of the row sieve (`_sieve_pairs`).  A
    bound over MAX_SWEEP_HEIGHT is refused with SizeLimitError, and one
    below 1 gives empty arrays.
    """
    return _sieve_pairs(height_bound, half=False)


def _sieve_pairs(height_bound: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """The reduced (p, q) with p + q <= bound, and with p <= q when half,
    as int64 arrays in (p+q, p) order.

    A prime sieve on a bool mask of one row per height s = p + q: row s - 1
    holds p = 0..W-1, where W = bound for all starts and bound // 2 + 1 for
    the half, and starts as p < s (or p <= s // 2, which is p <= q).  For
    each prime r <= bound one strided write strikes every (s, p) that r
    divides both of, p = 0 included, so what is left is gcd(p, s) =
    gcd(p, s - p) = 1, and 0/1.  The mask's kept entries, in row-major
    order, are the starts in sweep order: each row's count repeats its
    base and its height, which turn the flat indices into p and q.  A bound
    over MAX_SWEEP_HEIGHT is refused before anything is allocated.
    """
    if height_bound > MAX_SWEEP_HEIGHT:
        raise SizeLimitError(
            f"height {height_bound} is over the sweep height limit {MAX_SWEEP_HEIGHT}"
        )
    h = max(height_bound, 0)
    width = h // 2 + 1 if half else h
    # the limit's heights fit int16, which keeps the broadcast compare small
    s = np.arange(1, h + 1, dtype=np.int16)
    keep = np.arange(width, dtype=np.int16) <= (s >> 1 if half else s - 1)[:, None]
    for r in _primes(h).tolist():
        keep[r - 1::r, ::r] = False
    counts = np.count_nonzero(keep, axis=1)
    p = np.flatnonzero(keep)
    del keep  # before the repeats: at the limit the mask is 200 MB
    p -= np.repeat(width * np.arange(h, dtype=np.int64), counts)
    q = np.repeat(np.arange(1, h + 1, dtype=np.int64), counts)
    q -= p
    return p, q


def _primes(bound: int) -> np.ndarray:
    """The primes <= bound, by the sieve of Eratosthenes."""
    is_prime = np.ones(bound + 1, dtype=bool)
    is_prime[:2] = False
    for r in range(2, math.isqrt(bound) + 1):
        if is_prime[r]:
            is_prime[r * r::r] = False
    return np.flatnonzero(is_prime)


@dataclass(frozen=True)
class SweepReport:
    height_bound: int
    step_cap: int
    total_tested: int
    max_stopping_time: int
    argmax: Fraction
    nonterminated: tuple[Fraction, ...]

    @property
    def all_terminated(self) -> bool:
        return not self.nonterminated


@dataclass(frozen=True)
class PhiSweepReport:
    height_bound: int
    total_tested: int
    max_stopping_time: int
    argmax: Fraction
    violations: tuple[Fraction, ...]

    @property
    def all_monotone(self) -> bool:
        """Every orbit lowered p+q each run and reached 0 in at most p+q steps."""
        return not self.violations


def _first_maximum(
    ps: np.ndarray, qs: np.ndarray, stopping_times: np.ndarray
) -> tuple[int, Fraction]:
    """(max stopping time, its first row as p/q).

    stopping_times is -1 on the rows that failed.  The first maximum is the
    least (p+q, p) among ties in sweep order.  With no row at 0 or more the
    maximum is -1 and the argmax 0.
    """
    i = int(np.argmax(stopping_times))
    best = int(stopping_times[i])
    return best, Fraction(int(ps[i]), int(qs[i])) if best >= 0 else Fraction(0)


def _lower_half(height_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts p <= q of the sweep up to height_bound, one per pair
    {p/q, q/p}, as int64 arrays (ps, qs) in sweep order.

    A phi orbit depends only on its start's unordered pair, so a start's
    twin q/p has its stopping time, flag and recovered-word check.  The row
    sieve holds only the columns p <= s // 2, so the half's arrays are all
    that is built.  0/1 and 1/1, the half's first two rows, are their own
    twins, so the sweep has 2n - 2 starts for a half of n.
    """
    return _sieve_pairs(height_bound, half=True)


def _with_twins(ps: np.ndarray, qs: np.ndarray) -> list[Fraction]:
    """Starts p/q of a lower half, each with its twin q/p added (for 0 < p
    < q), as Fractions in (p+q, p) order."""
    twin = (ps > 0) & (ps < qs)
    p = np.concatenate((ps, qs[twin]))
    q = np.concatenate((qs, ps[twin]))
    order = np.lexsort((p, p + q))
    return list(map(Fraction, p[order].tolist(), q[order].tolist()))


def theta_sweep_full(
    height_bound: int, step_cap: int = DEFAULT_STEP_CAP
) -> tuple[SweepReport, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Report plus the per-start columns (ps, qs, stopping_times).

    The columns are the kernel's arrays, one entry per start in sweep order,
    and `reports.write_sweep_csv` formats them as they are.  A nonterminated
    start (under the cap) is a candidate counterexample and lands in the
    report rather than raising; its stopping time is -1.  The int64 kernel
    does the bulk; rows it flags as overflowing are redone exactly by
    `theta_runs`, so results never depend on the kernel's word size.
    """
    if height_bound < 2 or step_cap < 1:
        raise ValueError("need height_bound >= 2 and step_cap >= 1")
    ps, qs = reduced_fraction_arrays(height_bound)
    steps, flags = kernels.theta_sweep(ps, qs, step_cap)
    steps[flags != kernels.FLAG_DONE] = -1  # now the stopping-time column
    for i in np.flatnonzero(flags == kernels.FLAG_OVERFLOW).tolist():
        runs = theta_runs(int(ps[i]), int(qs[i]), step_cap)
        steps[i] = -1 if runs is None else sum(runs)
    max_stop, argmax = _first_maximum(ps, qs, steps)
    miss = steps < 0
    report = SweepReport(
        height_bound=height_bound,
        step_cap=step_cap,
        total_tested=int(ps.size),
        max_stopping_time=max_stop,
        argmax=argmax,
        nonterminated=tuple(map(Fraction, ps[miss].tolist(), qs[miss].tolist())),
    )
    return report, (ps, qs, steps)


def phi_monotonicity_sweep(height_bound: int) -> PhiSweepReport:
    """Check strict decrease of p+q and termination within p+q steps for phi.

    The kernel runs one start per twin pair {p/q, q/p} (`_lower_half`); the
    first maximum is a p <= q twin, and each violation's twin is added back.
    """
    if height_bound < 2:
        raise ValueError("need height_bound >= 2")
    ps, qs = _lower_half(height_bound)
    steps, flags = kernels.phi_sweep(ps, qs)
    steps[flags != kernels.FLAG_DONE] = -1
    max_stop, argmax = _first_maximum(ps, qs, steps)
    miss = steps < 0
    return PhiSweepReport(
        height_bound=height_bound,
        total_tested=2 * int(ps.size) - 2,
        max_stopping_time=max_stop,
        argmax=argmax,
        violations=tuple(_with_twins(ps[miss], qs[miss])),
    )


def verify_word_recovery(
    height_bound: int, map_name: str, step_cap: int = DEFAULT_STEP_CAP
) -> tuple[int, list[Fraction]]:
    """Replay the recovered word of every terminated orbit; exact comparison.

    Returns (orbits checked, starts whose replay failed or that never
    terminated under the cap), in sweep order; a start over the cap is not
    checked.  A `height_bound` below 2 is refused, as the sweeps refuse it,
    and a negative `step_cap`, as `orbit` refuses it.  The int64 kernels
    `kernels.theta_recovery` and `kernels.phi_recovery` take the words in
    array waves, one run per wave, with the run formulas of `theta_runs`
    and `phi_runs`, and check each run right after it with the replay
    formulas of `replay_theta_runs_pq` and `replay_runs_pq`.  Theta rows
    the kernel's guard stops are redone one by one on big-int pairs by
    `theta_runs` / `replay_theta_runs_pq`, so results never depend on the
    word size; phi rows never overflow.  phi runs one start per twin pair
    {p/q, q/p}, as its sweep does: each twin of a p <= q start but 0/1 and
    1/1 counts again, and fails with it.
    """
    if map_name not in (THETA, PHI):
        raise ValueError(f"unknown map {map_name!r}")
    if height_bound < 2:
        raise ValueError("need height_bound >= 2")
    if step_cap < 0:
        raise ValueError("step_cap must be >= 0")
    if map_name == PHI:
        ps, qs = _lower_half(height_bound)
        flags = kernels.phi_recovery(ps, qs, step_cap)
        failed = flags != kernels.FLAG_DONE
        uncapped = flags != kernels.FLAG_CAP
        # 0/1 and 1/1, the half's first two rows, are their own twins
        checked = 2 * int(np.count_nonzero(uncapped)) - int(np.count_nonzero(uncapped[:2]))
        return checked, _with_twins(ps[failed], qs[failed])
    ps, qs = reduced_fraction_arrays(height_bound)
    flags = kernels.theta_recovery(ps, qs, step_cap)
    for i in np.flatnonzero(flags == kernels.FLAG_OVERFLOW).tolist():
        p, q = int(ps[i]), int(qs[i])
        runs = theta_runs(p, q, step_cap)
        if runs is None:
            flags[i] = kernels.FLAG_CAP
        elif replay_theta_runs_pq(runs) != (p, q):
            flags[i] = kernels.FLAG_MISMATCH
        else:
            flags[i] = kernels.FLAG_DONE
    failed = flags != kernels.FLAG_DONE
    checked = int(np.count_nonzero(flags != kernels.FLAG_CAP))
    return checked, list(map(Fraction, ps[failed].tolist(), qs[failed].tolist()))
