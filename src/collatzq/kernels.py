"""int64 numpy sweep and word recovery kernels.

The kernels run on raw (p, q) pairs in int64, in vectorized waves over at
most BAND_ROWS rows at a time, and all four take one whole branch run per
wave (phi recovery a G run and then an F run), never single steps.  The
sweeps have one shape: the live rows ride along as compacted arrays (their
row numbers, steps so far and orbit point), each wave advances all of them,
and the rows that finish leave through one mask.  Besides those arrays a
sweep kernel allocates only its (steps, flags) outputs and its stopping-time
table, so its working memory does not grow with the number of rows.

theta takes one R or S run per wave with `_theta_run`, the run step of
word recovery too.  It reads a run's length from a table of floor logs and
an R run's gcd from a table of 3-adic valuations (`_floor_log`,
`_gcd_pow3`), with searchsorted and np.gcd only past those tables.  Waves
alternate R and S, and rows enter only on R waves (a start below 1 with its
first S run already taken), in input order, a band at a time: whenever at
most half of BAND_ROWS rows are live, the next band tops them up to
BAND_ROWS.  Every start that leaves enters its result in a
stopping-time table indexed by (p, p+q), so an entry is final.  Each wave a
live row looks up the point y its run ended at: if y has an entry, the
row's orbit from y on is y's, so the row leaves with steps(y) added to its
own, or capped if that sum passes the cap or y was capped.  Results depend
on neither the order of the rows nor the band size; in height order an
orbit's first drop below its start mostly lands on a finished start.  A
theta orbit can grow, so a row whose entries pass INT64_GUARD is flagged
FLAG_OVERFLOW, for callers to redo in big-int arithmetic, and the table
never holds such a start.

phi has the same shape and the same kind of table.  Under phi a reduced p/q
descends the Stern-Brocot tree: its orbit is a run of F steps (x -> x-1)
then a run of G steps (x -> x/(1-x)), alternating, and the run lengths are
the continued-fraction partial quotients of p/q, so its stopping time is
the quotient sum.  A phi row advances one branch run per wave, by one
`np.divmod` of its point's unordered pair (x, y) = (max, min), on which
alone the rest of its orbit depends; the table is keyed by that pair, in
the slot of (y, x+y).  A run ends at (y, x mod y): at 0, or on a smaller
pair, so a row leaves as soon as that pair's start has finished.  Every run
of every orbit is then the first run of some start, and in height order
nearly every row leaves after its first wave.  phi rows never grow, so they
cannot overflow, and no row reads past the highest start.

Word recovery (`theta_recovery`, `phi_recovery`) runs in consecutive
bands, on one stopping-time table for the whole call, laid out as the
sweeps' tables.  A forward pass advances every live row by one whole run
per wave and keeps each wave's record: its row numbers (int32) and run
lengths (int8 for theta).  A row leaves when it reaches 0, at the cap or
the guard, or when its run ends on a start with an entry.  There it lands:
it is capped if its steps plus the entry's pass the cap or the entry is
capped, and otherwise pending, and it keeps the slot it landed on and the
point.  Every start that leaves, unless it overflowed, enters its steps or
that it was capped.  A backward pass walks the band's records from the last
wave to the first and replays every pending row's word from the point it
left at: 0/1, or its landing point.  The replayed pairs must equal the
starts.  Then, in leave order, a row is FLAG_MISMATCH if its own replay
failed or the entry it landed on is _MISMATCH, and its own entry becomes
_MISMATCH.  This is exact: the word of x is a prefix followed by the word
of the point y it landed on, and Mobius maps are injective, so x's whole
word replays to x exactly when the prefix takes y to x and y's word
replays to y.  A row that lands on a mismatched start is mismatched
whatever its steps, as that entry keeps none.  The records and every other
working array hold one band; only the table grows with the rows.
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

# table entries besides a finished start's steps
_UNKNOWN = -1  # no start at this pair has finished, or it overflowed
_CAPPED = -2  # theta: the start spent the cap
_VIOLATED = -2  # phi: the start was flagged FLAG_VIOLATION
_MISMATCH = -3  # recovery: the start's replay, or one it landed on, failed
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
    p_in = np.asarray(ps, dtype=np.int64)
    q_in = np.asarray(qs, dtype=np.int64)
    n = p_in.shape[0]
    steps = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.int64)
    cap = min(max(cap, 0), _INT64_MAX)  # below 0 acts as 0; above is never reached
    top = _table_top(n)
    # a finished start's steps are at most the cap, so they fit the entries
    table = np.full(top * (top - 1) // 2, _UNKNOWN, np.int32 if cap <= _INT32_MAX else np.int64)
    # live rows: row number, table slot of its start (-1 when it has none),
    # steps so far, and orbit point
    rows = slot = acc = p = q = np.zeros(0, dtype=np.int64)
    entered, r_wave = 0, True
    while rows.size or entered < n:
        if r_wave and rows.size <= BAND_ROWS // 2 and entered < n:
            band = np.arange(entered, min(n, entered + BAND_ROWS - rows.size))
            entered += band.size
            bp, bq = p_in[band], q_in[band]
            at, tabled = _slot(bp, bp + bq, top)
            ba = np.zeros(band.size, dtype=np.int64)
            # a start below 1 inside the guard takes its first S run now
            low = np.flatnonzero((bp > 0) & (bp < bq) & (bq <= INT64_GUARD))
            ba[low], bp[low], bq[low] = _theta_run(bp[low], bq[low], False)
            rows = np.concatenate((rows, band))
            slot = np.concatenate((slot, np.where(tabled, at, -1)))
            acc = np.concatenate((acc, ba))
            p = np.concatenate((p, bp))
            q = np.concatenate((q, bq))
        done = (p == 0) & (acc <= cap)
        capped = (acc >= cap) & ~done
        out = done | capped | (p > INT64_GUARD) | (q > INT64_GUARD)
        if out.any():
            gone = rows[out]
            steps[gone] = np.where(capped[out], cap, acc[out])
            flags[gone] = np.where(done[out], FLAG_DONE, np.where(capped[out], FLAG_CAP, FLAG_OVERFLOW))
        h = p + q
        near = np.flatnonzero((h < top) & ~out)
        at, tabled = _slot(p[near], h[near], top)
        found = table.take(at, mode="clip")
        known = (found != _UNKNOWN) & tabled
        near, found = near[known], found[known]
        total = acc[near] + found
        fin = (found >= 0) & (total <= cap)
        hit = rows[near]
        steps[hit] = np.where(fin, total, cap)
        flags[hit] = np.where(fin, FLAG_DONE, FLAG_CAP)
        out[near] = True
        if out.any():
            # every leaving start is final: enter it, unless it overflowed
            gone, sl = rows[out], slot[out]
            f = flags[gone]
            put = (sl >= 0) & (f != FLAG_OVERFLOW)
            table[sl[put]] = np.where(f[put] == FLAG_CAP, _CAPPED, steps[gone[put]])
            live = ~out
            rows, slot, acc, p, q = rows[live], slot[live], acc[live], p[live], q[live]
        # the guard makes the run's arithmetic exact for every live row
        run, p, q = _theta_run(p, q, r_wave)
        acc += run
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
    The table covers the heights up to the highest start, within 2n entries.
    """
    p_in = np.asarray(ps, dtype=np.int64)
    q_in = np.asarray(qs, dtype=np.int64)
    n = p_in.shape[0]
    steps = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.int64)
    bands = [slice(lo, lo + BAND_ROWS) for lo in range(0, n, BAND_ROWS)]
    highest = max((int((p_in[b] + q_in[b]).max()) for b in bands), default=0)
    top = min(_table_top(n), max(2, highest + 1))  # one slot at least, for take
    # an entry is a pair's quotient sum, at most its max < top: int32 holds it
    table = np.full(top * (top - 1) // 2, _UNKNOWN, np.int32)
    # live rows: row number, table slot of its start (-1 when it has none),
    # steps so far, and orbit point as its pair (x, y)
    rows = slot = acc = x = y = np.zeros(0, dtype=np.int64)
    entered = 0
    while rows.size or entered < n:
        if rows.size <= BAND_ROWS // 2 and entered < n:
            band = slice(entered, min(n, entered + BAND_ROWS - rows.size))
            bp, bq = p_in[band], q_in[band]
            go = np.flatnonzero(bp)  # 0/q is the end already: 0 steps
            bp, bq = bp[go], bq[go]
            bx, by = np.maximum(bp, bq), np.minimum(bp, bq)
            at, tabled = _slot(by, bx + by, top)
            rows = np.concatenate((rows, go + entered))
            slot = np.concatenate((slot, np.where(tabled, at, -1)))
            acc = np.concatenate((acc, np.zeros(go.size, dtype=np.int64)))
            x = np.concatenate((x, bx))
            y = np.concatenate((y, by))
            entered = band.stop
        quot, rem = np.divmod(x, y)
        acc += quot
        # the next pair (y, rem) has the lower sum iff rem < x.  A wave that
        # passes this check lowers a positive sum, so every row leaves.
        bad = (quot < 1) | (rem >= x)
        at, tabled = _slot(rem, y + rem, top)
        found = np.where(tabled, table.take(at, mode="clip"), _UNKNOWN)
        out = bad | (rem == 0) | (found != _UNKNOWN)
        if out.any():
            gone, sl, f = rows[out], slot[out], found[out]
            violated = bad[out] | (f == _VIOLATED)
            total = acc[out] + np.maximum(f, 0)
            steps[gone] = total
            flags[gone[violated]] = FLAG_VIOLATION  # the rest stay FLAG_DONE
            put = sl >= 0
            table[sl[put]] = np.where(violated[put], _VIOLATED, total[put])
            live = ~out
            rows, slot, acc, y, rem = rows[live], slot[live], acc[live], y[live], rem[live]
        x, y = y, rem
    for b in bands:
        flags[b][steps[b] > p_in[b] + q_in[b]] = FLAG_VIOLATION
    return steps, flags


def _table_top(n: int) -> int:
    """The height `top` at which the stopping-time table of n rows stops.

    The heights below it have top*(top-1)/2 <= 2n slots: every height of a
    full sweep, and O(n) memory on any input.
    """
    return (1 + math.isqrt(1 + 16 * n)) // 2


def _slot(p, h, top):
    """A table slot of the pairs (p, h), and whether each has one.

    The slots are the triangle 0 < p < h < top, laid out by rows of h.
    p = 0 is an orbit's end, which no row looks up.
    """
    return h * (h - 1) // 2 + p, (p > 0) & (p < h) & (h < top)


def theta_recovery(ps: np.ndarray, qs: np.ndarray, cap: int) -> np.ndarray:
    """Per-row theta word recovery.  Returns int8 flags.

    Rows are reduced p/q with p >= 0 and q >= 1.  FLAG_DONE: the orbit
    reached 0 within the cap and its word, replayed from 0, gave p/q back.
    FLAG_MISMATCH: it reached 0 within the cap, but the replay did not.
    FLAG_CAP: its stopping time exceeds the cap.  FLAG_OVERFLOW: the guard
    stopped it; redo the row in big-int arithmetic.

    The forward pass takes one whole run per wave with `_theta_run`, as
    the sweep does: R runs on even waves, S runs on odd ones, and a row
    below 1 opens with an empty R run, so a run's kind is its wave's
    parity.  A row leaves when it reaches 0, when its run total passes the
    cap, at the guard, or on a finished start (see the module docstring).
    The start 0/1 takes no wave, and with a cap below 0 it is capped, as in
    `phi_recovery`.  The replay then walks the band's waves backwards from
    the point each row left at, with the formulas of
    `dynamics.replay_theta_runs_pq`.

    The guard, with G = INT64_GUARD = (2^63-1)//3:
      forward: a row takes a run only from p, q <= G.  Then 2p + q and
        p + q - 1 are at most 3G < 2^63, and so are the run's products:
        3^n q <= 2p + q, and 2^n p <= p + q - 1.
      replay: undoing a run from its end point (p', q') back to its start
        (p, q), the replay holds, before dividing by its gcd g, the start
        scaled by the end point's ratio to it: g*p = 3^n p' + q'(3^n-1)/2
        for an R run (g = q'/q), g*q = (2^n-1)p' + 2^n q' for an S run
        (g = p'/p); every term is at most that, and g <= 3^n or 2^n.  So
        the forward pass also stops a row, before it takes an R run, unless
        p <= 3G // 3^n, and before an S run unless q <= 3G // 2^n.  The
        run that reaches 0 is exempt: undoing it from 0/1 gives g = 1 and
        holds only the start itself.  A replay from a landing point undoes
        only runs of the row's own forward pass, and each of them passed
        that test, the run that landed too, so it stays within 3G as well.
    The forward arithmetic is then exact, so the recorded runs are the
    orbit's, and the replay's pairs are the forward pass's, within bounds.
    """
    return _recovery(ps, qs, cap, _theta_wave, _theta_replay, INT64_GUARD)


def phi_recovery(ps: np.ndarray, qs: np.ndarray, cap: int) -> np.ndarray:
    """Per-row phi word recovery, flagged as `theta_recovery`'s rows.

    Each wave takes a G run and then an F run, with the two divisions of
    `dynamics.phi_runs`: n = (q-1)//p G steps to p/(q - n p), then
    (n', p) = divmod(p, q) F steps.  From p >= q the G run is empty, so a
    row's word is its waves' runs in order.  The replay undoes them with the
    formulas of `dynamics.replay_runs_pq`.  phi rows never grow, and the
    replay's pairs are the forward pass's, so no row is flagged
    FLAG_OVERFLOW.  The start 0/1 takes no wave; its empty word is capped
    only by a cap below 0.
    """
    return _recovery(ps, qs, cap, _phi_wave, _phi_replay, _INT64_MAX)


def _recovery(ps, qs, cap, wave, replay, guard) -> np.ndarray:
    """Recover a band of consecutive rows at a time, on one table.  A start
    with p or q past `guard` is flagged FLAG_OVERFLOW and takes no wave.
    """
    p = np.asarray(ps, dtype=np.int64)
    q = np.asarray(qs, dtype=np.int64)
    n = p.shape[0]
    flags = np.empty(n, dtype=np.int8)
    cap = max(-1, min(cap, _INT64_MAX))  # run totals are >= 0 and below 2^63
    top = _table_top(n)
    # an entry is a start's steps, at most the cap, or a sentinel
    table = np.full(top * (top - 1) // 2, _UNKNOWN, np.int32 if cap <= _INT32_MAX else np.int64)
    for lo in range(0, n, BAND_ROWS):
        band = slice(lo, lo + BAND_ROWS)
        flags[band] = _recover_band(p[band], q[band], cap, table, top, wave, replay, guard)
    return flags


def _recover_band(p0, q0, cap, table, top, wave, replay, guard):
    """The int8 flags of one band: forward pass, replay, then mismatches."""
    size = p0.shape[0]
    big = (p0 > guard) | (q0 > guard)
    # 0/1 takes no wave: its empty word is within any cap >= 0
    flags = np.where(big, FLAG_OVERFLOW, FLAG_DONE if cap >= 0 else FLAG_CAP).astype(np.int8)
    # the table slot each row landed on (-1: none), and the point it left at
    landed = np.full(size, -1, dtype=np.int64)
    lp, lq = np.zeros(size, dtype=np.int64), np.ones(size, dtype=np.int64)
    rows = np.flatnonzero((p0 != 0) & ~big).astype(np.int32)
    p, q = p0[rows], q0[rows]
    total = np.zeros(rows.size, dtype=np.int64)
    waves, left = [], []
    while rows.size:
        record, n, p, q, unsafe = wave(p, q, len(waves))
        waves.append((rows, *record))
        total += n
        capped = total > cap
        ended = p == 0
        out = capped | ended | unsafe
        # a row whose run ended on a finished start leaves with that start
        h = p + q
        near = np.flatnonzero((h < top) & ~out)
        at, tabled = _slot(p[near], h[near], top)
        found = table.take(at, mode="clip")
        hit = tabled & (found != _UNKNOWN)
        near, at, found = near[hit], at[hit], found[hit]
        total[near] += np.maximum(found, 0)
        capped[near] = (found == _CAPPED) | (total[near] > cap)
        ended[near] = out[near] = True
        if out.any():
            gone, steps = rows[out], total[out]
            f = np.where(capped[out], FLAG_CAP, np.where(ended[out], FLAG_DONE, FLAG_OVERFLOW))
            flags[gone] = f
            hits = rows[near]
            landed[hits], lp[hits], lq[hits] = at, p[near], q[near]
            # every leaving start gets an entry, unless it overflowed
            sl, tabled = _slot(p0[gone], p0[gone] + q0[gone], top)
            put = tabled & (f != FLAG_OVERFLOW)
            table[sl[put]] = np.where(f[put] == FLAG_CAP, _CAPPED, steps[put])
            left.append(gone[f == FLAG_DONE])
            live = ~out
            rows, p, q, total = rows[live], p[live], q[live], total[live]
    done = flags == FLAG_DONE
    rp, rq = replay(waves, lp, lq, done)
    bad = done & ((rp != p0) | (rq != q0))
    # in leave order, a row that landed on a mismatched start is mismatched
    # too, and a mismatched row marks its entry; with none, nothing changes
    if (bad | (landed >= 0) & (table.take(landed, mode="clip") == _MISMATCH)).any():
        for rows in left:
            sl = landed[rows]
            bad[rows] |= (sl >= 0) & (table.take(sl, mode="clip") == _MISMATCH)
            mis = rows[bad[rows]]
            sl, tabled = _slot(p0[mis], p0[mis] + q0[mis], top)
            table[sl[tabled]] = _MISMATCH
        flags[bad] = FLAG_MISMATCH
    return flags


def _theta_wave(p, q, w):
    """Recovery wave w on theta's live rows: (record, run lengths, the end
    points, unsafe).  R runs on even waves, S runs on odd ones; a row is
    unsafe where its run's replay or its end point may pass the guard.
    """
    guard = INT64_GUARD
    r_wave = not w & 1
    n, p1, q1 = _theta_run(p, q, r_wave)
    unsafe = p > (3 * guard // _POW3).take(n) if r_wave else q > (3 * guard // _POW2).take(n)
    return (n,), n, p1, q1, unsafe | (p1 > guard) | (q1 > guard)


def _theta_run(p, q, r_wave):
    """(n, p, q): each row's R run (r_wave; empty from p < q) or S run, and
    the pair it ends at, by `dynamics.theta_runs`'s formulas.  n is read by
    `_floor_log` and an R run's gcd by `_gcd_pow3`.  Exact for p, q <=
    INT64_GUARD.
    """
    if r_wave:
        n = _floor_log((2 * p + q) // q, 3)
        t = _POW3.take(n)
        p = p - q * (t >> 1)
        g = _gcd_pow3(p, n)  # only 3s are common
        return n, p // g, q * (t // g)
    n = _floor_log((p + q - 1) // p, 2)
    t = _POW2.take(n)
    q = q + p - t * p
    g = np.minimum(q & -q, t)  # only 2s are common
    return n, p * (t // g), q // g


@functools.cache
def _lookups():
    """The run step's tables, built on first use from _POW3 and _POW2.

    logs[b - 2][m] is the searchsorted of m in 3^j (b = 3) or 2^j (b = 2),
    less 1, for m < _LOG_TOP.  v3[r] is the 3-adic valuation of r < 3^7,
    capped at 7 (so 7 at r = 0).
    """
    m = np.arange(_LOG_TOP)
    logs = np.stack([np.searchsorted(pows, m, side="right") - 1 for pows in (_POW2, _POW3)])
    logs = logs.astype(np.int8)
    v3 = np.zeros(_POW3[7], dtype=np.int8)
    for j in range(1, 8):
        v3[:: _POW3[j]] += 1
    return logs, v3


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


def _gcd_pow3(x, n):
    """gcd(x, 3^n) row by row, for x >= 0 and 0 <= n <= 39.

    It is 3^min(v3(x), n).  v3(x), capped at 7, is read from x mod 3^7,
    computed as x - (x // 3^7) 3^7; np.gcd runs only on the rows where the
    cap is reached and n > 7.
    """
    v = _lookups()[1].take(x - x // _POW3[7] * _POW3[7])
    g = _POW3.take(np.minimum(v, n))
    far = np.flatnonzero((v == 7) & (n > 7))
    if far.size:
        g[far] = np.gcd(x[far], _POW3.take(n[far]))
    return g


def _theta_replay(waves, p, q, done):
    """The band's waves replayed, last first, on its `done` rows from the
    points (p, q) they left at, in place; returns (p, q).
    """
    for w in range(len(waves) - 1, -1, -1):
        rows, n = waves[w]
        keep = done[rows]
        rows, n = rows[keep], n[keep]
        a, b = p[rows], q[rows]
        if w & 1:  # S^n: a/((2^n - 1)a + 2^n b), reducible only by gcd(a, 2^n)
            t = _POW2.take(n)
            g = np.minimum(a & -a, t)
            p[rows] = a // g
            q[rows] = ((t - 1) * a + t * b) // g
        else:  # R^n: (3^n a + b(3^n - 1)/2)/b, reducible only by gcd(b, 3^n)
            t = _POW3.take(n)
            g = _gcd_pow3(b, n)
            p[rows] = (t * a + b * (t >> 1)) // g
            q[rows] = b // g
    return p, q


def _phi_wave(p, q, w):
    """Recovery wave w on phi's live rows, as `_theta_wave`: a G run of
    (q-1)//p steps, then an F run, by two divisions.  Never unsafe.
    """
    g_run = (q - 1) // p
    q = q - g_run * p
    f_run, p = np.divmod(p, q)
    return (g_run, f_run), g_run + f_run, p, q, False


def _phi_replay(waves, p, q, done):
    """The band's waves replayed as `_theta_replay` does."""
    for rows, g_run, f_run in reversed(waves):
        keep = done[rows]
        rows = rows[keep]
        a = p[rows] + f_run[keep] * q[rows]  # F^n: (a + n b)/b
        q[rows] += g_run[keep] * a  # G^n: a/(b + n a)
        p[rows] = a
    return p, q
