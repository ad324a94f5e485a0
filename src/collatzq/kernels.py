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
word recovery too.  Waves alternate R and S, and rows enter only on R waves
(a row below 1 opens with an empty R run), in input order, a band at a
time: whenever at most half of BAND_ROWS rows are live, the next band tops
them up to BAND_ROWS.  Every start that leaves enters its result in a
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

Word recovery (`theta_recovery`, `phi_recovery`) also runs in consecutive
bands.  A forward pass advances every live row by one whole run per wave
and keeps each wave's record: its row numbers (int32) and run lengths (int8
for theta).  A backward pass walks the band's records from the last wave to
the first, replaying every finished row's word from 0/1, and the replayed
pairs must equal the starts.  The records hold the band's runs, so this
memory too is bounded by the band.
"""

from __future__ import annotations

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
_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max

# run-length tables: 3^39 and 2^62 are the largest powers below 2^63
_POW3 = 3 ** np.arange(40, dtype=np.int64)
_POW2 = 1 << np.arange(63, dtype=np.int64)


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
            rows = np.concatenate((rows, band))
            slot = np.concatenate((slot, np.where(tabled, at, -1)))
            acc = np.concatenate((acc, np.zeros(band.size, dtype=np.int64)))
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
    cap, or at the guard.  The start 0/1 takes no wave.  The replay then
    walks the band's waves backwards from 0/1 with the formulas of
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
        holds only the start itself.
    The forward arithmetic is then exact, so the recorded runs are the
    orbit's, and the replay's pairs are the forward pass's, within bounds.
    """
    return _recovery(ps, qs, cap, _theta_forward, _theta_replay)


def phi_recovery(ps: np.ndarray, qs: np.ndarray, cap: int) -> np.ndarray:
    """Per-row phi word recovery, flagged as `theta_recovery`'s rows.

    Each wave takes a G run and then an F run, with the two divisions of
    `dynamics.phi_runs`: n = (q-1)//p G steps to p/(q - n p), then
    (n', p) = divmod(p, q) F steps.  From p >= q the G run is empty, so a
    row's word is its waves' runs in order.  The replay undoes them with the
    formulas of `dynamics.replay_runs_pq`.  phi rows never grow, and the
    replay's pairs are the forward pass's, so no row is flagged
    FLAG_OVERFLOW.  The start 0/1 takes no wave; its word is empty.
    """
    return _recovery(ps, qs, cap, _phi_forward, _phi_replay)


def _recovery(ps, qs, cap, forward, replay) -> np.ndarray:
    """Run forward and replay a band of consecutive rows at a time."""
    p = np.asarray(ps, dtype=np.int64)
    q = np.asarray(qs, dtype=np.int64)
    flags = np.empty(p.shape[0], dtype=np.int8)
    cap = max(-1, min(cap, _INT64_MAX))  # run totals are >= 0 and below 2^63
    for lo in range(0, p.shape[0], BAND_ROWS):
        band = slice(lo, lo + BAND_ROWS)
        bp, bq = p[band], q[band]
        f, waves = forward(bp, bq, cap)
        rp, rq = replay(waves, f == FLAG_DONE)
        f[(f == FLAG_DONE) & ((rp != bp) | (rq != bq))] = FLAG_MISMATCH
        flags[band] = f
    return flags


def _theta_forward(p0, q0, cap):
    """(flags, waves) of one band; a wave is (row numbers, run lengths)."""
    guard = INT64_GUARD
    r_limit = 3 * guard // _POW3
    s_limit = 3 * guard // _POW2
    big = (p0 > guard) | (q0 > guard)
    flags = np.where(big, FLAG_OVERFLOW, FLAG_DONE).astype(np.int8)
    rows = np.flatnonzero((p0 != 0) & ~big).astype(np.int32)
    p, q = p0[rows], q0[rows]
    total = np.zeros(rows.size, dtype=np.int64)
    waves = []
    while rows.size:
        r_wave = not len(waves) & 1
        n, p1, q1 = _theta_run(p, q, r_wave)
        unsafe = p > r_limit[n] if r_wave else q > s_limit[n]
        p, q = p1, q1
        waves.append((rows, n.astype(np.int8)))
        total += n
        capped = total > cap
        finished = p == 0
        out = capped | unsafe | finished | (p > guard) | (q > guard)
        if out.any():
            ended = np.where(finished, FLAG_DONE, FLAG_OVERFLOW)
            flags[rows[out]] = np.where(capped, FLAG_CAP, ended)[out]
            live = ~out
            rows, p, q, total = rows[live], p[live], q[live], total[live]
    return flags, waves


def _theta_run(p, q, r_wave):
    """(n, p, q): each row's R run (r_wave; empty from p < q) or S run, and
    the pair it ends at, by `dynamics.theta_runs`'s formulas with n looked up
    in _POW3 or _POW2.  Exact for p, q <= INT64_GUARD.
    """
    if r_wave:
        n = np.searchsorted(_POW3, (2 * p + q) // q, side="right") - 1
        t = _POW3[n]
        p = p - q * (t >> 1)
        g = np.gcd(p, t)  # only 3s are common
        return n, p // g, q * (t // g)
    n = np.searchsorted(_POW2, (p + q - 1) // p, side="right") - 1
    t = _POW2[n]
    q = q + p - t * p
    g = np.minimum(q & -q, t)  # only 2s are common
    return n, p * (t // g), q // g


def _theta_replay(waves, done):
    """The band's pairs replayed from 0/1 on its `done` rows (0/1 elsewhere)."""
    p = np.zeros(done.shape[0], dtype=np.int64)
    q = np.ones(done.shape[0], dtype=np.int64)
    for w in range(len(waves) - 1, -1, -1):
        rows, n = waves[w]
        keep = done[rows]
        rows, n = rows[keep], n[keep]
        a, b = p[rows], q[rows]
        if w & 1:  # S^n: a/((2^n - 1)a + 2^n b), reducible only by gcd(a, 2^n)
            t = _POW2[n]
            g = np.minimum(a & -a, t)
            p[rows] = a // g
            q[rows] = ((t - 1) * a + t * b) // g
        else:  # R^n: (3^n a + b(3^n - 1)/2)/b, reducible only by gcd(b, 3^n)
            t = _POW3[n]
            g = np.gcd(b, t)
            p[rows] = (t * a + b * (t >> 1)) // g
            q[rows] = b // g
    return p, q


def _phi_forward(p0, q0, cap):
    """(flags, waves) of one band; a wave is (row numbers, G runs, F runs)."""
    # 0/1 takes no wave: its empty word is within any cap >= 0
    flags = np.full(p0.shape[0], FLAG_DONE if cap >= 0 else FLAG_CAP, dtype=np.int8)
    rows = np.flatnonzero(p0).astype(np.int32)
    p, q = p0[rows], q0[rows]
    total = np.zeros(rows.size, dtype=np.int64)
    waves = []
    while rows.size:
        g_run = (q - 1) // p
        q = q - g_run * p
        f_run, p = np.divmod(p, q)
        waves.append((rows, g_run, f_run))
        total += g_run + f_run
        capped = total > cap
        out = capped | (p == 0)
        if out.any():
            flags[rows[out]] = np.where(capped[out], FLAG_CAP, FLAG_DONE)
            live = ~out
            rows, p, q, total = rows[live], p[live], q[live], total[live]
    return flags, waves


def _phi_replay(waves, done):
    """The band's pairs replayed from 0/1 on its `done` rows (0/1 elsewhere)."""
    p = np.zeros(done.shape[0], dtype=np.int64)
    q = np.ones(done.shape[0], dtype=np.int64)
    for rows, g_run, f_run in reversed(waves):
        keep = done[rows]
        rows = rows[keep]
        a = p[rows] + f_run[keep] * q[rows]  # F^n: (a + n b)/b
        q[rows] += g_run[keep] * a  # G^n: a/(b + n a)
        p[rows] = a
    return p, q
