"""int64 numpy sweep and word recovery kernels.

The kernels run on raw (p, q) pairs in int64, in vectorized waves over at
most BAND_ROWS rows at a time, and take one whole branch run per wave, never
single steps.  There is one loop per map: `theta_sweep` and `theta_recovery`
share theta's, `phi_sweep` and `phi_recovery` share phi's.  The live rows
ride along as compacted arrays (their row numbers, steps so far and orbit
point), each wave advances all of them, and the rows that finish leave.
Every compaction, of the live rows, the leaving rows and the table hits, is
one np.flatnonzero of its mask and a take per array: a random mask costs
several times a take per element.  A flatnonzero that keeps all n rows is
arange(n), so then the arrays are used as they are, with no take
(`_rows`), and a band that enters with no row live is not concatenated
(`_join`).  In height order nearly every phi row leaves on its first
wave: at H = 2,000, 35 of the phi sweep's 40 waves let every row leave,
so they copy none of their rows.  Besides those arrays a kernel allocates
only its outputs and its stopping-time table, so its working memory does
not grow with the number of rows.

theta takes one R or S run per wave with `_theta_run`.  Waves alternate R
and S, and rows enter only on R waves (a start below 1 with its first S run
already taken), in input order, a band at a time: whenever at most half of
BAND_ROWS rows are live, the next band tops them up to BAND_ROWS.  Every
start that leaves enters its result in a stopping-time table indexed by
(p, p+q), so an entry is final.  Each wave a live row looks up the point y
its run ended at: if y has an entry, the row's orbit from y on is y's, so
the row leaves with steps(y) added to its own, or with y's flag if y left
flagged, or capped if the sum passes the cap.  Results depend on neither
the order of the rows nor the band size; in height order an orbit's first
drop below its start mostly lands on a finished start.  A theta orbit can
grow, so a row whose entries pass INT64_GUARD is flagged FLAG_OVERFLOW, for
callers to redo in big-int arithmetic, and the table never holds such a
start.

The run step reads a run's length n from a table of floor logs
(`_floor_log`, searchsorted past it), and the quotient it looks up is the
run's only division of one array by another.  The pair a run ends at is
divided by the run's gcd, 3^e for an R run and 2^e for an S run, and so is
the pair its inverse gives back (`_theta_inverse`), without a division.  e
is read from a table of 3-adic valuations (`_pow3_exponent`, np.gcd past
it) or as the floor log of the lowest set bit (`_pow2_exponent`).
Then x // 2^e is x >> e, 2^n // 2^e and 3^n // 3^e are 2^(n-e) and
3^(n-e), and x // 3^e is x times the inverse of 3^e modulo 2^64, in uint64
wrap-around (`_times_inverse3`).
That is exact: 3^e is odd, so it has an inverse modulo 2^64; the gcd
divides x, so x = 3^e y for an integer y; and as 0 <= x < 2^63, also
0 <= y < 2^63, so the product, which is y modulo 2^64, is y.  The guard
keeps x in that range for every run, and for every inverse that the check
keeps (`theta_recovery`); an inverse that could leave it belongs to a row
that leaves overflowed, whatever the inverse gives.

phi has the same shape and the same kind of table.  Under phi a reduced p/q
descends the Stern-Brocot tree: its orbit is a run of F steps (x -> x-1)
then a run of G steps (x -> x/(1-x)), alternating, and the run lengths are
the continued-fraction partial quotients of p/q, so its stopping time is
the quotient sum.  A phi row advances one branch run per wave, by one
`np.divmod` of its point's unordered pair (x, y) = (max, min), on which
alone the rest of its orbit depends; the table is keyed by that pair, in
the slot of (y, x+y).  As y <= (x+y)/2, the slots are laid out on that
half of the (p, p+q) triangle (`_phi_slot`): its 2n entries cover every
height of a sweep of n starts that holds one start per twin pair.  A run
ends at (y, x mod y): at 0, or on a smaller pair, so a row leaves as soon
as that pair's start has finished.  Every run of every orbit is then the
first run of some start, and in height order nearly every row leaves after
its first wave.  phi rows never grow, so they cannot overflow, and no row
reads past the highest start.  A start p/q and its twin q/p have the same
pair and so the same steps and flags, in the sweep and in recovery alike:
`dynamics` runs only the p <= q twin of each sweep start through `_phi`.

Word recovery is the loop with the check on.  Right after each run, the
run's inverse is taken from its end point, by the replay formulas of
`dynamics.replay_theta_runs_pq` (`_theta_inverse`) and, on phi's unordered
pair, x = quot*y + rem, which is what F^n and G^n undo to (`_phi_inverse`).
A run whose inverse does not give back the run's start marks its row, and so
does an end at 0 other than 0/1, where a replay starts.  A marked row that
reaches 0 within the cap, or lands within it on a finished start, leaves as
FLAG_MISMATCH and enters _MISMATCH in the table, just as a capped row enters
that it was capped; a row that lands on a _MISMATCH entry is mismatched
whatever its steps, as that entry keeps none.  This is exact.  Let a row's runs take its
start s_0 through s_1, ..., to s_m, with U_i the replay of run i.  If every
inverse holds, U_i(s_i) = s_(i-1), and s_m = 0/1, then the whole word
replayed from 0/1, U_1(...U_m(0/1)), is s_0.  Conversely, if that replay
r_0 = U_1(r_1), ..., r_m = 0/1 gives s_0, then r_i and s_i have the same
value for every i, since the runs' Mobius maps are injective and U_i undoes
run i; both are reduced, so r_i = s_i and every inverse holds.  A row that
lands on a finished start y = s_k replays to s_0 exactly when its first k
runs' inverses hold and y's word replays to y, which y's entry records.
Only the flags are kept: one int8 per row, and the table.
"""

from __future__ import annotations

import functools
import math

import numpy as np

FLAG_DONE = 0  # reached 0
FLAG_CAP = 1  # step cap exhausted without terminating
FLAG_OVERFLOW = 2  # values left the int64-safe range; redo exactly
FLAG_VIOLATION = 3  # phi: a run failed to lower p+q, or steps exceeded p+q
FLAG_MISMATCH = 4  # recovery: the replayed word did not give the start back

# 3*q and 2*p must stay below 2^63; one shared conservative guard
INT64_GUARD = (2**63 - 1) // 3

# rows per band: the kernels' working arrays hold at most this many rows
BAND_ROWS = 1 << 14

# a table entry is a finished start's steps, or -1 less the flag it left
# with (-2 capped, -4 violated, -5 mismatched); an overflowed start enters
# nothing
_UNKNOWN = -1  # no start at this pair has finished, or it overflowed
_MISMATCH = -1 - FLAG_MISMATCH
_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max

# run-length tables: 3^39 and 2^62 are the largest powers below 2^63
_POW3 = 3 ** np.arange(40, dtype=np.int64)
_POW2 = 1 << np.arange(63, dtype=np.int64)
# the run step reads floor logs of m < _LOG_TOP from a table (`_floor_log`)
_LOG_TOP = 1 << 12


def theta_sweep(ps: np.ndarray, qs: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row theta stopping times.  Returns (steps, flags) int64 arrays.

    A row's orbit ends when it reaches 0 (FLAG_DONE), else when the cap is
    spent (FLAG_CAP), else when p or q is past the guard (FLAG_OVERFLOW), in
    that order, with the steps taken to there (0 for a start past the
    guard).  The table covers the heights below `_table_top(n)`.

    A row takes a whole R or S run per wave, and the wave tests the point
    the run ended at, in this order: 0 with steps <= cap is done; steps >=
    cap is capped, with the cap as its steps; then the guard; then the
    table.  That gives every row the stepwise orbit's result, because:
      - every point of an R run but the last has q <= p <= p0, and of an S
        run p < q <= q0, so the guard can be crossed only at a run's end;
      - the table holds only starts whose whole orbit (up to the cap, if
        capped) stayed inside the guard, so a run that passes a finished
        start ends as that start's entry says;
      - 0 too is met only at a run's end, so the cap test made there,
        after the test for 0, keeps the per-step precedence.
    A start below 1 inside the guard enters with its first S run taken
    (`acc` = its length) and joins the R wave at that run's end, instead of
    spending a wave on an empty R run.  That is exact because the tests are
    made at run ends and a start is the end of its empty R run: the start
    is not 0 and is inside the guard, a cap of 0 is met at the S run's end
    as well (steps >= 1 > 0, capped at the cap), and an entry at the start
    itself is a duplicate's, with the result the row's own orbit reaches.
    """
    return _theta(ps, qs, min(max(cap, 0), _INT64_MAX), False)


def theta_recovery(ps: np.ndarray, qs: np.ndarray, cap: int) -> np.ndarray:
    """Per-row theta word recovery.  Returns int8 flags.

    Rows are reduced p/q with p >= 0 and q >= 1.  FLAG_DONE: the orbit
    reached 0 within the cap and its word, replayed from 0, gave p/q back.
    FLAG_MISMATCH: it reached 0 within the cap, but the replay did not.
    FLAG_CAP: its stopping time exceeds the cap.  FLAG_OVERFLOW: the guard
    stopped it; redo the row in big-int arithmetic.

    It is `theta_sweep`'s loop with the check (see the module docstring),
    and with a guard that covers the replay.  The guard comes before the
    cap: a row is capped once its steps pass the cap, so a row whose steps
    equal it and that the guard stops overflows (the redo caps it), and a
    start past the guard overflows whatever the cap.  A cap below 0 caps
    every other start, 0/1 too.  The guard covers each run's inverse, with
    G = INT64_GUARD = (2^63-1)//3:
      forward: a row takes a run only from p, q <= G.  Then 2p + q and
        p + q - 1 are at most 3G < 2^63, and so are the run's products:
        3^n q <= 2p + q, and 2^n p <= p + q - 1.
      inverse: undoing a run from its end point (p', q') back to its start
        (p, q), the replay holds, before dividing by its gcd g, the start
        scaled by the end point's ratio to it: g*p = 3^n p' + q'(3^n-1)/2
        for an R run (g = q'/q), g*q = (2^n-1)p' + 2^n q' for an S run
        (g = p'/p); every term is at most that, and g <= 3^n or 2^n.  So a
        row leaves as overflowed after an R run unless p <= 3G // 3^n, and
        after an S run unless q <= 3G // 2^n.  The run that reaches 0 is
        exempt: undoing it from 0/1 gives g = 1 and holds only the start.
    The forward arithmetic is then exact, so the runs are the orbit's, and
    so is every inverse the check keeps.
    """
    if cap < 0:
        p, q = np.asarray(ps), np.asarray(qs)
        big = (p > INT64_GUARD) | (q > INT64_GUARD)
        return np.where(big, FLAG_OVERFLOW, FLAG_CAP).astype(np.int8)
    return _theta(ps, qs, min(cap, _INT64_MAX), True)[1]


def _theta(ps, qs, cap, check):
    """theta's loop for a cap >= 0, with the check or without: (steps, flags).

    With the check, the flags are int8 and no steps are kept (an empty
    array); a live row's flag is FLAG_MISMATCH once one of its runs fails
    the check, and it stays so if the row leaves done.
    """
    p_in = np.asarray(ps, dtype=np.int64)
    q_in = np.asarray(qs, dtype=np.int64)
    n = p_in.shape[0]
    steps = np.zeros(0 if check else n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.int8 if check else np.int64)
    top = _table_top(n)
    # a finished start's steps are at most the cap, so they fit the entries
    table = np.full(top * (top - 1) // 2, _UNKNOWN, np.int32 if cap <= _INT32_MAX else np.int64)

    def run(which, p, q, r_wave):
        """The rows' R or S runs.  With the check, the rows `which` whose
        run's inverse fails are marked, and a row whose inverse could pass 3G
        is moved past the guard, unless its run reached 0."""
        length, p1, q1 = _theta_run(p, q, r_wave)
        if check:
            a, b = _theta_inverse(length, p1, q1, r_wave)
            flags[which[(a != p) | (b != q)]] = FLAG_MISMATCH
            limit = (3 * INT64_GUARD // (_POW3 if r_wave else _POW2)).take(length)
            p1[((p if r_wave else q) > limit) & (p1 != 0)] = INT64_GUARD + 1
        return length, p1, q1

    # live rows: row number, table slot of its start (-1 when it has none),
    # steps so far, and orbit point
    rows = slot = acc = p = q = np.zeros(0, dtype=np.int64)
    entered, r_wave = 0, True
    while rows.size or entered < n:
        if r_wave and rows.size <= BAND_ROWS // 2 and entered < n:
            band = np.arange(entered, min(n, entered + BAND_ROWS - rows.size))
            entered += band.size
            bp, bq = p_in[band], q_in[band]
            bh = bp + bq
            at = np.where((bp > 0) & (bp < bh) & (bh < top), _slot(bp, bh), -1)
            ba = np.zeros(band.size, dtype=np.int64)
            # a start below 1 inside the guard takes its first S run now
            low = np.flatnonzero((bp > 0) & (bp < bq) & (bq <= INT64_GUARD))
            ba[low], bp[low], bq[low] = run(band[low], bp[low], bq[low], False)
            rows, slot, acc, p, q = _join((rows, slot, acc, p, q), (band, at, ba, bp, bq))
        done = (p == 0) & (acc <= cap)
        if check:  # a word replays from 0/1, so any other end at 0 fails
            flags[rows[done & (q != 1)]] = FLAG_MISMATCH
            capped = acc > cap  # the guard comes first at the cap
        else:
            capped = (acc >= cap) & ~done
        stop = capped | (p > INT64_GUARD) | (q > INT64_GUARD)
        out = done | stop
        i = np.flatnonzero(stop)
        if i.size:
            flags[rows.take(i)] = np.where(capped.take(i), FLAG_CAP, FLAG_OVERFLOW)
        # a row that stays has p > 0, as p = 0 leaves done or capped, and
        # q >= 1, so 0 < p < h: below top, its point has a slot
        h = p + q
        near = np.flatnonzero((h < top) & ~out)
        found = table.take(_slot(*_rows(near, out.size, p, h)))
        near, found = _rows(np.flatnonzero(found != _UNKNOWN), found.size, near, found)
        total = acc.take(near) + np.maximum(found, 0)
        acc[near] = total
        lost = np.flatnonzero((total > cap) | (found < 0))
        if lost.size:
            f = np.where(total.take(lost) > cap, FLAG_CAP, -1 - found.take(lost))
            flags[rows.take(near.take(lost))] = f
        out[near] = True
        i = np.flatnonzero(out)
        if i.size:
            # every leaving start is final: enter it, unless it overflowed
            gone, sl, total = _rows(i, out.size, rows, slot, acc)
            f = flags[gone]
            total = np.where(f == FLAG_CAP, cap, total)
            if not check:
                steps[gone] = total
            put = np.flatnonzero((sl >= 0) & (f != FLAG_OVERFLOW))
            sl, f, total = _rows(put, sl.size, sl, f, total)
            table[sl] = np.where(f == FLAG_DONE, total, -1 - f)
            live = i[:0] if i.size == out.size else np.flatnonzero(~out)  # none stays
            rows, slot, acc, p, q = (a.take(live) for a in (rows, slot, acc, p, q))
        # the guard makes the run's arithmetic exact for every live row
        n_run, p, q = run(rows, p, q, r_wave)
        acc += n_run
        r_wave = not r_wave
    return steps, flags


def phi_sweep(ps: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row phi stopping times with the monotonicity/termination check.

    Rows are reduced p/q with p >= 0, q >= 1 and p + q < 2^63.  Returns
    (steps, flags) int64 arrays; steps equal the stepwise orbit's.

    Each wave is one Euclid division on the orbit point's unordered pair
    (x, y) = (max(p, q), min(p, q)), so x + y is the point's p+q: the
    quotient is the length of the next branch run, and (y, x mod y) is the
    point the run ends at.  The last wave, on (k, 1), also covers the final
    F step when the point is 1/k (a G run of k-1 steps, then F).  A row is
    flagged FLAG_VIOLATION if a wave takes no step or fails to strictly
    lower p+q, or if its steps exceed p+q.  A row leaves when its run ends
    at 0, when its run is flagged, or when the run's end pair has an entry
    in the table: it adds that entry's steps, or is flagged too if that
    start was.  Every leaving row enters its steps, or that it was flagged,
    under its start's pair.  Rows enter in bands as in `theta_sweep`, but on
    any wave; the results depend on neither their order nor the band size.
    The table covers the heights up to the highest start, within 2n entries
    on the half triangle of `_phi_slot`.
    """
    return _phi(ps, qs, _INT64_MAX, False)


def phi_recovery(ps: np.ndarray, qs: np.ndarray, cap: int) -> np.ndarray:
    """Per-row phi word recovery, flagged as `theta_recovery`'s rows.

    It is `phi_sweep`'s loop with the check (see the module docstring): a
    row is capped if its steps pass the cap.  phi rows never grow, and each
    inverse is at most the pair it undoes to, so no row is flagged
    FLAG_OVERFLOW.  The start 0/1 takes no wave; its empty word is capped
    only by a cap below 0, which caps every start.
    """
    if cap < 0:
        return np.full(np.shape(ps)[0], FLAG_CAP, dtype=np.int8)
    return _phi(ps, qs, min(cap, _INT64_MAX), True)[1]


def _phi(ps, qs, cap, check):
    """phi's loop for a cap >= 0, with the check or without, as `_theta`."""
    p_in = np.asarray(ps, dtype=np.int64)
    q_in = np.asarray(qs, dtype=np.int64)
    n = p_in.shape[0]
    steps = np.zeros(0 if check else n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.int8 if check else np.int64)
    bands = [slice(lo, lo + BAND_ROWS) for lo in range(0, n, BAND_ROWS)]
    highest = max((int((p_in[b] + q_in[b]).max()) for b in bands), default=0)
    # the heights below top have (top-1)^2/4 <= 2n slots (`_phi_slot`), and
    # any rows at least one, for take
    top = min(1 + math.isqrt(8 * n + 3), max(3, highest + 1))
    # an entry is a pair's quotient sum, at most its max < top: int32 holds it
    table = np.full((top - 1) ** 2 // 4, _UNKNOWN, np.int32)
    # live rows: row number, table slot of its start (-1 when it has none),
    # steps so far, and orbit point as its pair (x, y)
    rows = slot = acc = x = y = np.zeros(0, dtype=np.int64)
    entered = 0
    while rows.size or entered < n:
        if rows.size <= BAND_ROWS // 2 and entered < n:
            band = slice(entered, min(n, entered + BAND_ROWS - rows.size))
            bp, bq = p_in[band], q_in[band]
            go = np.flatnonzero(bp)  # 0/q is the end already: 0 steps
            if check:  # a replay starts from 0/1
                flags[np.flatnonzero((bp == 0) & (bq != 1)) + entered] = FLAG_MISMATCH
            bp, bq = _rows(go, bp.size, bp, bq)
            bx, by = np.maximum(bp, bq), np.minimum(bp, bq)
            at, tabled = _phi_slot(by, bx + by, top)
            rows, slot, acc, x, y = _join(
                (rows, slot, acc, x, y),
                (go + entered, np.where(tabled, at, -1), np.zeros(go.size, np.int64), bx, by),
            )
            entered = band.stop
        quot, rem = np.divmod(x, y)
        acc += quot
        if check:
            flags[rows[(_phi_inverse(quot, y, rem) != x) | (rem == 0) & (y != 1)]] = FLAG_MISMATCH
        # the next pair (y, rem) has the lower sum iff rem < x.  A wave that
        # passes this check lowers a positive sum, so every row leaves.
        bad = (quot < 1) | (rem >= x)
        at, tabled = _phi_slot(rem, y + rem, top)
        found = np.where(tabled, table.take(at, mode="clip"), _UNKNOWN)
        out = bad | (rem == 0) | (found != _UNKNOWN)
        i = np.flatnonzero(out)
        if i.size:
            gone, sl, found, total, violated = _rows(i, out.size, rows, slot, found, acc, bad)
            total = total + np.maximum(found, 0)
            if not check:
                steps[gone] = total
            # the rows that leave flagged: violated, over the cap, or on a
            # flagged entry; the rest keep their flag, marked or done
            lost = np.flatnonzero(violated | (found < _UNKNOWN) | (total > cap))
            f = np.where(total.take(lost) > cap, FLAG_CAP, -1 - found.take(lost))
            f[violated.take(lost)] = FLAG_VIOLATION
            flags[gone.take(lost)] = f
            total[lost] = -1 - f  # now each row's table entry
            if check:
                total[flags[gone] == FLAG_MISMATCH] = _MISMATCH
            sl, total = _rows(np.flatnonzero(sl >= 0), sl.size, sl, total)
            table[sl] = total
            live = i[:0] if i.size == out.size else np.flatnonzero(~out)  # none stays
            rows, slot, acc, y, rem = (a.take(live) for a in (rows, slot, acc, y, rem))
        x, y = y, rem
    if not check:
        for b in bands:
            flags[b][steps[b] > p_in[b] + q_in[b]] = FLAG_VIOLATION
    return steps, flags


def _rows(i, n, *arrays):
    """The rows i of arrays of n rows, where i is the flatnonzero of a mask
    over them.  i keeps all n rows only as arange(n), so then the arrays
    are their own rows and are returned as they are, with nothing copied.
    """
    if i.size == n:
        return arrays
    return tuple(a.take(i) for a in arrays)


def _join(live, band):
    """The live rows' arrays with a band's rows appended: the band's own
    arrays, with nothing copied, when no row is live."""
    if live[0].size == 0:
        return band
    return tuple(np.concatenate(pair) for pair in zip(live, band))


def _table_top(n: int) -> int:
    """The height `top` at which the stopping-time table of n rows stops.

    The heights below it have top*(top-1)/2 <= 2n slots: every height of a
    full sweep, and O(n) memory on any input.
    """
    return (1 + math.isqrt(1 + 16 * n)) // 2


def _slot(p, h):
    """The theta table slots of the pairs (p, h).

    The slots are the triangle 0 < p < h < top, laid out by rows of h; the
    callers keep to pairs inside it.  p = 0 is an orbit's end, which no row
    looks up.
    """
    return (h * (h - 1) >> 1) + p


def _phi_slot(y, h, top):
    """A phi table slot of the pairs (y, h) = (min, max + min), and whether
    each has one.

    A pair's min is at most half its sum, so the slots are the half
    triangle 0 < y <= h/2, h < top, laid out by rows of h: row h starts
    after the (h-1)^2/4 slots of the rows below it.  y = 0 is an orbit's
    end, which no row looks up, and y < 0 only a start below 0, which its
    first run flags.
    """
    return ((h - 1) * (h - 1) >> 2) + y - 1, (y > 0) & (h < top)


def _theta_run(p, q, r_wave):
    """(n, p, q): each row's R run (r_wave; empty from p < q) or S run, and
    the pair it ends at, by `dynamics.theta_runs`'s formulas.  n is read by
    `_floor_log`, and the exponent e of the run's gcd, 3^e or 2^e, by
    `_pow3_exponent` or `_pow2_exponent`; the gcd is divided out by an
    inverse or a shift (see the module docstring).  Exact for p, q <=
    INT64_GUARD.
    """
    if r_wave:
        n = _floor_log((2 * p + q) // q, 3)
        p = p - q * (_POW3.take(n) >> 1)
        e = _pow3_exponent(p, n)  # only 3s are common
        return n, _times_inverse3(p, e), q * _POW3.take(n - e)
    n = _floor_log((p + q - 1) // p, 2)
    q = q + p - (p << n)
    e = _pow2_exponent(q, n)  # only 2s are common
    return n, p << (n - e), q >> e


@functools.cache
def _lookups():
    """The run step's tables, built on first use from _POW3 and _POW2.

    logs[b - 2][m] is the searchsorted of m in 3^j (b = 3) or 2^j (b = 2),
    less 1, for m < _LOG_TOP.  v3[r] is the 3-adic valuation of r < 3^7,
    capped at 7 (so 7 at r = 0).  inv3[e] is the inverse of 3^e modulo
    2^64, as uint64.
    """
    m = np.arange(_LOG_TOP)
    logs = np.stack([np.searchsorted(pows, m, side="right") - 1 for pows in (_POW2, _POW3)])
    logs = logs.astype(np.int8)
    v3 = np.zeros(_POW3[7], dtype=np.int8)
    for j in range(1, 8):
        v3[:: _POW3[j]] += 1
    inv3 = np.array([pow(3, -e, 1 << 64) for e in range(_POW3.size)], dtype=np.uint64)
    return logs, v3, inv3


def _floor_log(m, b):
    """floor(log_b m) for b = 3 or 2, row by row: the searchsorted of m in
    _POW3 or _POW2, less 1, which gives -1 for m < 1.  A table answers m <
    _LOG_TOP (m < 0 reads its entry at 0); searchsorted runs on the rest.
    """
    n = _lookups()[0][b - 2].take(m, mode="clip")
    far = np.flatnonzero(m >= _LOG_TOP)
    if far.size:
        n[far] = np.searchsorted(_POW3 if b == 3 else _POW2, m[far], side="right") - 1
    return n


def _pow3_exponent(x, n):
    """min(v3(x), n) row by row, for 0 <= n <= 39: gcd(x, 3^n) = 3^e.

    v3(x), capped at 7, is read from x mod 3^7, computed as x - (x // 3^7)
    3^7 (a division by a constant); np.gcd runs only on the rows where the
    cap is reached and n > 7, and its power of 3 is looked up in _POW3.
    """
    v = _lookups()[1].take(x - x // _POW3[7] * _POW3[7])
    e = np.minimum(v, n)
    far = np.flatnonzero((v == 7) & (n > 7))
    if far.size:
        e[far] = np.searchsorted(_POW3, np.gcd(x[far], _POW3.take(n[far])))
    return e


def _pow2_exponent(x, n):
    """min(v2(x), n) row by row, for 0 < |x| < 2^63 and 0 <= n <= 62:
    gcd(x, 2^n) = 2^e.  x & -x is 2^v2(x), whose floor log is v2(x)."""
    return np.minimum(_floor_log(x & -x, 2), n)


def _times_inverse3(x, e):
    """x // 3^e row by row, for x a multiple of 3^e in [0, 2^63): x times the
    inverse of 3^e modulo 2^64, in uint64 wrap-around."""
    return (x.view(np.uint64) * _lookups()[2].take(e)).view(np.int64)


def _theta_inverse(n, p, q, r_wave):
    """(p, q): the start of each row's R run (r_wave) or S run of n steps
    that ended at p/q, by `dynamics.replay_theta_runs_pq`'s formulas.
    """
    if r_wave:  # R^n: (3^n p + q(3^n - 1)/2)/q, reducible only by gcd(q, 3^n)
        t = _POW3.take(n)
        e = _pow3_exponent(q, n)
        return _times_inverse3(t * p + q * (t >> 1), e), _times_inverse3(q, e)
    # S^n: p/((2^n - 1)p + 2^n q), reducible only by gcd(p, 2^n)
    e = _pow2_exponent(p, n)
    return p >> e, ((p << n) - p + (q << n)) >> e


def _phi_inverse(quot, y, rem):
    """x of each pair (x, y) whose division gave (quot, rem): F^n and G^n
    undo a run to it, by `dynamics.replay_runs_pq`'s formulas."""
    return quot * y + rem
