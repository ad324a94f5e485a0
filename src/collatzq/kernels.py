"""int64 numpy sweep kernels.

The sweep inner loops run on raw reduced (p, q) pairs in int64, all rows at
once in vectorized waves.  Both kernels have one shape: the live rows ride
along as compacted arrays (their row numbers and orbit state), each wave
advances all of them, and the rows that finish leave through one mask.

theta advances one step per wave with the same step rule as
`dynamics.theta_step_pq`.  A theta orbit can grow, so any row whose values
approach the int64 range is flagged FLAG_OVERFLOW instead of stepped;
callers redo those rows in big-int arithmetic.

phi advances one branch run per wave.  Under phi a reduced p/q descends the
Stern-Brocot tree: its orbit is a run of F steps (x -> x-1) then a run of G
steps (x -> x/(1-x)), alternating, and the run lengths are the
continued-fraction partial quotients of p/q.  One `np.divmod` per wave takes
a whole run, so a row needs about as many waves as its continued fraction
has terms, not p+q steps, and its stopping time is the quotient sum.  phi
rows never grow, so they cannot overflow.
"""

from __future__ import annotations

import numpy as np

FLAG_DONE = 0  # reached 0
FLAG_CAP = 1  # step cap exhausted without terminating
FLAG_OVERFLOW = 2  # values left the int64-safe range; redo exactly
FLAG_VIOLATION = 3  # phi: a run failed to lower p+q, or steps exceeded p+q

# 3*q and 2*p must stay below 2^63; one shared conservative guard
INT64_GUARD = (2**63 - 1) // 3


def theta_sweep(ps: np.ndarray, qs: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row theta stopping times.  Returns (steps, flags) int64 arrays.

    The live rows ride along as compacted (rows, p, q) arrays.  Every live
    row takes one step per wave, so a row's steps are the wave it leaves at.
    A row leaves when it reaches 0 (FLAG_DONE), else when the cap is spent
    (FLAG_CAP), else when p or q is past the guard (FLAG_OVERFLOW), in that
    order; a row over the guard at its start leaves with steps 0.
    """
    p = np.asarray(ps, dtype=np.int64)
    q = np.asarray(qs, dtype=np.int64)
    n = p.shape[0]
    steps = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    wave = 0
    while rows.size:
        done = p == 0
        capped = wave >= cap
        out = done | capped | (p > INT64_GUARD) | (q > INT64_GUARD)
        if out.any():
            gone = rows[out]
            steps[gone] = wave
            flags[gone] = np.where(done[out], FLAG_DONE, FLAG_CAP if capped else FLAG_OVERFLOW)
            live = ~out
            rows, p, q = rows[live], p[live], q[live]
        ge = p >= q
        # the guard makes 3*q and 2*p exact for every live row
        p2 = np.where(ge, p - q, 2 * p)
        q2 = np.where(ge, 3 * q, q - p)
        red3 = ge & (p2 % 3 == 0)
        p2 = np.where(red3, p2 // 3, p2)
        q2 = np.where(red3, q, q2)
        zero = ge & (p2 == 0)
        q2 = np.where(zero, 1, q2)
        red2 = ~ge & (q2 % 2 == 0)
        q2 = np.where(red2, q2 // 2, q2)
        p, q = np.where(red2, p, p2), q2
        wave += 1
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
    lower p+q, or if its steps exceed p+q.
    """
    p = np.asarray(ps, dtype=np.int64)
    q = np.asarray(qs, dtype=np.int64)
    n = p.shape[0]
    steps = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.int64)
    rows = np.flatnonzero(p != 0)
    x = np.maximum(p[rows], q[rows])
    y = np.minimum(p[rows], q[rows])
    while rows.size:
        quot, rem = np.divmod(x, y)
        steps[rows] += quot
        # the next pair (y, rem) has the lower sum iff rem < x.  A wave that
        # passes this check lowers a positive sum, so the loop terminates.
        bad = (quot < 1) | (rem >= x)
        if bad.any():
            flags[rows[bad]] = FLAG_VIOLATION
            rem[bad] = 0  # end the flagged rows here
        live = np.flatnonzero(rem)
        rows, x, y = rows[live], y[live], rem[live]
    flags[steps > p + q] = FLAG_VIOLATION
    return steps, flags
