"""Property tests: theta kernels, report and run-length words against stepwise orbits.

The fast paths are the banded kernel ``kernels.theta_sweep`` with its
stopping-time table, the array report of ``theta_sweep_full``, the
run-length word ``theta_runs`` with its replay, and word recovery by the
wave kernel ``kernels.theta_recovery``.  Their oracles are the stepwise
big-int ``orbit_pq(..., THETA)``, whose branch string the runs must render
to, and ``replay_word_pq``, a stepwise orbit that stops at the kernel's
int64 guard, the per-start first-maximum loop, the right column of
``word_eval``, the per-start recovery loop over ``theta_runs``, and for
recovery's flags also the sweep kernel, whose loop recovery shares.  Rows
are drawn both small and around ``INT64_GUARD``.  The kernels are also run
with their band size patched to 1 and 7 rows, under caps below the longest
orbit and under a low guard, so rows end capped and overflowed; the sweep
kernel also on shuffled rows with duplicates, and on runs that spend the
cap or pass a finished start partway.  A fixed derandomized profile
keeps these fast and repeatable.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collatzq import kernels
from collatzq.dynamics import (
    DEFAULT_STEP_CAP,
    THETA,
    SweepReport,
    orbit_pq,
    reduced_fraction_arrays,
    reduced_fractions,
    replay_theta_runs_pq,
    replay_word_pq,
    theta_runs,
    theta_step_pq,
    theta_sweep_full,
    verify_word_recovery,
)
from collatzq.kernels import (
    FLAG_CAP,
    FLAG_DONE,
    FLAG_MISMATCH,
    FLAG_OVERFLOW,
    INT64_GUARD,
    theta_recovery,
    theta_sweep,
)
from collatzq.reports import word_str
from collatzq.words import Word, word_eval

PROPS = settings(max_examples=25, derandomize=True, deadline=None, database=None)

# entries small or within a few thousand of the guard, always below 2^63
entries = st.one_of(st.integers(0, 2000), st.integers(INT64_GUARD - 3000, INT64_GUARD + 3000))


@st.composite
def pairs(draw):
    """Reduced (p, q) with p >= 0 and q >= 1."""
    p = draw(entries)
    q = draw(entries.filter(bool))
    g = math.gcd(p, q)
    return p // g, q // g


def guarded_orbit(p, q, cap):
    """(steps, flag) of the stepwise big-int orbit, stopped where the kernel stops.

    At each point: 0 is FLAG_DONE, else a spent cap is FLAG_CAP, else an entry
    past the guard is FLAG_OVERFLOW; otherwise take one theta step.  The
    guard is read at each call, so a patched ``kernels.INT64_GUARD`` applies.
    """
    steps = 0
    while True:
        if p == 0:
            return steps, FLAG_DONE
        if steps >= cap:
            return steps, FLAG_CAP
        if p > kernels.INT64_GUARD or q > kernels.INT64_GUARD:
            return steps, FLAG_OVERFLOW
        p, q, _ = theta_step_pq(p, q)
        steps += 1


def stepwise_sweep(height, cap):
    """theta_sweep_full's (report, rows), one orbit and one comparison per start."""
    rows = []
    best, argmax = -1, Fraction(0)
    nonterminated = []
    for p, q in reduced_fractions(height):
        steps, term, _ = orbit_pq(p, q, THETA, cap)
        rows.append((p, q, steps if term else -1, term))
        if not term:
            nonterminated.append(Fraction(p, q))
        elif steps > best:
            best, argmax = steps, Fraction(p, q)
    report = SweepReport(
        height_bound=height,
        step_cap=cap,
        total_tested=len(rows),
        max_stopping_time=best,
        argmax=argmax,
        nonterminated=tuple(nonterminated),
    )
    return report, rows


def assert_sweep_matches_stepwise(height, cap):
    """theta_sweep_full's report and columns, as (p, q, st, term) rows, equal the oracle's."""
    report, columns = theta_sweep_full(height, cap)
    rows = [(p, q, st_, st_ >= 0) for p, q, st_ in zip(*(c.tolist() for c in columns))]
    assert (report, rows) == stepwise_sweep(height, cap)


def arrays(rows):
    return (np.array([p for p, _ in rows], dtype=np.int64),
            np.array([q for _, q in rows], dtype=np.int64))


def assert_matches_stepwise(rows, cap):
    """theta_sweep on rows equals guarded_orbit, and orbit_pq where nothing overflowed."""
    steps, flags = theta_sweep(*arrays(rows), cap)
    assert steps.dtype == flags.dtype == np.int64
    for (p, q), st_, flag in zip(rows, steps.tolist(), flags.tolist()):
        assert guarded_orbit(p, q, cap) == (st_, flag)
        if flag != FLAG_OVERFLOW:
            exact, term, _ = orbit_pq(p, q, THETA, cap)
            assert (exact, term) == (st_, flag == FLAG_DONE)


@PROPS
@given(st.lists(pairs(), min_size=1, max_size=30), st.integers(0, 50))
def test_kernel_matches_stepwise_orbit(rows, cap):
    assert_matches_stepwise(rows, cap)


@PROPS
@given(st.sampled_from(list(reduced_fractions(60))))
def test_orbit_ending_on_the_cap_wave_is_done(pair):
    # 0 is tested before the cap: a row reaching 0 on the cap's wave is done
    total, term, _ = orbit_pq(*pair, THETA, 10_000)
    assert term
    steps, flags = theta_sweep(*arrays([pair]), total)
    assert (steps[0], flags[0]) == (total, FLAG_DONE)
    if total:
        steps, flags = theta_sweep(*arrays([pair]), total - 1)
        assert (steps[0], flags[0]) == (total - 1, FLAG_CAP)


@PROPS
@given(st.integers(2, 120), st.integers(1, 30))
def test_sweep_report_matches_stepwise_first_maximum(height, cap):
    assert_sweep_matches_stepwise(height, cap)


@PROPS
@given(st.integers(2, 60), st.integers(1, 50), st.integers(1, 100))
def test_sweep_redoes_guarded_rows_exactly(height, cap, guard):
    # a low guard sends rows through the big-int redo; results must not move
    with mock.patch.object(kernels, "INT64_GUARD", guard):
        assert_sweep_matches_stepwise(height, cap)


# band sizes: one row at a time, a few rows (so bands split heights), the default
BANDS = (1, 7, kernels.BAND_ROWS)
SWEEP_40 = list(reduced_fractions(40))  # longest orbit: 39 steps


def banded(band):
    return mock.patch.object(kernels, "BAND_ROWS", band)


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cap", [0, 1, 4, 11, 25, 38, 39, DEFAULT_STEP_CAP])
def test_full_sweep_does_not_depend_on_band_size(band, cap):
    # caps below the longest orbit put capped starts in the table, and rows
    # that drop onto them must come out capped
    with banded(band):
        assert_matches_stepwise(SWEEP_40, cap)


@PROPS
@given(st.lists(st.sampled_from(list(reduced_fractions(60))), min_size=1, max_size=120),
       st.integers(0, 45), st.sampled_from(BANDS), st.randoms(use_true_random=False))
def test_shuffled_rows_with_duplicates_do_not_depend_on_band_size(picks, cap, band, rnd):
    rows = picks + picks[: len(picks) // 2 + 1]
    rnd.shuffle(rows)
    with banded(band):
        assert_matches_stepwise(rows, cap)


@PROPS
@given(st.integers(2, 40), st.integers(1, 45), st.integers(1, 200), st.sampled_from(BANDS),
       st.randoms(use_true_random=False))
def test_low_guard_overflow_with_the_table(height, cap, guard, band, rnd):
    # a low guard flags rows at points other rows reach: a flagged start is
    # never read from the table, so those rows step on and overflow themselves
    rows = list(reduced_fractions(height)) * 2
    rnd.shuffle(rows)
    with mock.patch.object(kernels, "INT64_GUARD", guard), banded(band):
        assert_matches_stepwise(rows, cap)
        assert_sweep_matches_stepwise(height, cap)


# one whole run from inside the guard to past it: (3^39 + 1)/2 takes an R
# run of 39 to 1/3^39, and p/((2^20 - 1)p + 1) an S run of 20 to 2^20 p
R_PAST_GUARD = ((3**39 + 1) // 2, 1)
S_PAST_GUARD_P = INT64_GUARD // (2**20 - 1)
S_PAST_GUARD = (S_PAST_GUARD_P, (2**20 - 1) * S_PAST_GUARD_P + 1)


@pytest.mark.parametrize("start,run", [(R_PAST_GUARD, 39), (S_PAST_GUARD, 20)])
@pytest.mark.parametrize("below", [1, 2, 19])
def test_cap_crossed_inside_a_run_that_ends_past_the_guard(start, run, below):
    # the kernel sees the run's end only, past the guard, but the cap was
    # spent inside the run: capped at the cap, not flagged as overflowing
    assert guarded_orbit(*start, DEFAULT_STEP_CAP) == (run, FLAG_OVERFLOW)
    letters = orbit_pq(*start, THETA, DEFAULT_STEP_CAP)[2]
    assert len(set(letters[:run])) == 1 and letters[run] != letters[0]
    cap = run - below
    assert_matches_stepwise([start], cap)
    steps, flags = theta_sweep(*arrays([start]), cap)
    assert (steps[0], flags[0]) == (cap, FLAG_CAP)
    # on the run's last step the cap still comes first; past it, the guard
    assert theta_sweep(*arrays([start]), run)[1][0] == FLAG_CAP
    steps, flags = theta_sweep(*arrays([start]), run + 1)
    assert (steps[0], flags[0]) == (run, FLAG_OVERFLOW)


# chains of starts that one run passes through in order: (3^n - 1)/2 falls
# by R steps through every (3^i - 1)/2 to 0, and 1/(2^n - 1) rises by S
# steps through every 1/(2^i - 1) to 1
CHAINS = [((3**n - 1) // 2, 1) for n in range(1, 6)] + [(1, 2**n - 1) for n in range(1, 7)]


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 5, 6, DEFAULT_STEP_CAP])
def test_low_guard_run_passes_a_finished_start(band, cap):
    # under a guard of 50, 121 and 1/63 start past it and 41 = (3^4 + 1)/2
    # runs past it to 1/81.  The 490 starts of height <= 40 after the
    # chains widen the table to every chain start inside the guard, and
    # with one row per band each start finishes before the next enters: the
    # R run of 40 passes the finished 13 and 4, and the S run of 1/31
    # passes 1/15, 1/7 and 1/3.
    # The table would end those rows there; the runs go on to their ends,
    # and every row must still get the stepwise result
    rows = CHAINS + [(41, 1)] + SWEEP_40
    with mock.patch.object(kernels, "INT64_GUARD", 50), banded(band):
        assert [guarded_orbit(*r, DEFAULT_STEP_CAP) for r in [(121, 1), (1, 63), (41, 1)]] == [
            (0, FLAG_OVERFLOW), (0, FLAG_OVERFLOW), (4, FLAG_OVERFLOW)]
        assert_matches_stepwise(rows, cap)


@PROPS
@given(pairs(), st.one_of(st.integers(0, 50), st.just(DEFAULT_STEP_CAP)))
def test_run_length_word_expands_to_stepwise_word(pair, cap):
    p, q = pair
    runs = theta_runs(p, q, cap)
    steps, term, branches = orbit_pq(p, q, THETA, cap)
    if not term:
        assert runs is None
        return
    assert word_str(runs, "RS") == branches and sum(runs) == steps
    # R runs at even positions, the first empty only below 1, every later run
    # nonempty but the empty S run that closes the word
    assert len(runs) % 2 == 0 and runs[-1] == 0 and all(n >= 1 for n in runs[1:-1])
    assert (runs[0] > 0) == (p >= q)


@PROPS
@given(pairs())
def test_run_length_replay_round_trip(pair):
    runs = theta_runs(*pair, DEFAULT_STEP_CAP)
    assert replay_theta_runs_pq(runs) == replay_word_pq(word_str(runs, "RS")) == pair


@PROPS
@given(pairs())
def test_right_column_of_the_word_is_the_start(pair):
    # the Omega link x = w(0): the word's matrix sends 0 to b/d
    runs = theta_runs(*pair, DEFAULT_STEP_CAP)
    m = word_eval(Word(runs[0::2], runs[1::2]))
    assert Fraction(m.b, m.d) == Fraction(*pair)


@PROPS
@given(st.integers(2, 60), st.integers(0, 50))
def test_theta_recovery_fails_exactly_the_starts_over_the_cap(height, cap):
    checked, failures = verify_word_recovery(height, THETA, cap)
    over = [Fraction(p, q) for p, q in reduced_fractions(height)
            if not orbit_pq(p, q, THETA, cap)[1]]
    assert failures == over
    assert checked + len(over) == sum(1 for _ in reduced_fractions(height))


def per_start_recovery(height, cap):
    """(checked, failures) of the per-start loop over ``theta_runs`` and
    ``replay_theta_runs_pq``, the form word recovery had before its kernel."""
    checked, failures = 0, []
    for p, q in reduced_fractions(height):
        runs = theta_runs(p, q, cap)
        if runs is None:
            failures.append(Fraction(p, q))
            continue
        checked += 1
        if replay_theta_runs_pq(runs) != (p, q):
            failures.append(Fraction(p, q))
    return checked, failures


@PROPS
@given(st.integers(2, 120), st.integers(0, 70), st.sampled_from(BANDS),
       st.one_of(st.just(INT64_GUARD), st.integers(1, 200)))
def test_array_recovery_matches_the_per_start_loop(height, cap, band, guard):
    # caps up to 50 leave rows unfinished; a low guard sends rows to the
    # big-int redo, both at the forward guard and at the replay's
    with mock.patch.object(kernels, "INT64_GUARD", guard), banded(band):
        assert verify_word_recovery(height, THETA, cap) == per_start_recovery(height, cap)


def test_array_recovery_under_a_negative_cap():
    # the library refuses the cap, as `orbit` does; the kernel flags every
    # start over it, 0/1 too: its empty word totals 0 > -1
    with pytest.raises(ValueError, match="step_cap"):
        verify_word_recovery(20, THETA, -1)
    ps, qs = reduced_fraction_arrays(20)
    assert set(theta_recovery(ps, qs, -1).tolist()) == {FLAG_CAP}


@PROPS
@given(st.lists(pairs(), min_size=1, max_size=20),
       st.one_of(st.integers(0, 50), st.just(DEFAULT_STEP_CAP)))
def test_recovery_kernel_near_the_guard(rows, cap):
    # a row the kernel does not hand to the redo is over the cap exactly when
    # theta_runs is, and otherwise replays to its start
    flags = theta_recovery(*arrays(rows), cap)
    for (p, q), flag in zip(rows, flags.tolist()):
        if flag != FLAG_OVERFLOW:
            assert flag == (FLAG_CAP if theta_runs(p, q, cap) is None else FLAG_DONE)


@PROPS
@given(st.lists(st.one_of(pairs(), st.sampled_from(SWEEP_40)), min_size=1, max_size=40),
       st.integers(0, 50), st.sampled_from(BANDS), st.randoms(use_true_random=False))
def test_recovery_table_matches_the_per_start_oracle(picks, cap, band, rnd):
    # duplicates and small starts let rows land on finished starts, in this
    # band or an earlier one.  The guard stops the same rows as when each row
    # runs alone, with no other start to land on, and every other row's flag
    # is the per-start big-int oracle's
    rows = picks + picks[: len(picks) // 2 + 1]
    rnd.shuffle(rows)
    with banded(band):
        flags = theta_recovery(*arrays(rows), cap).tolist()
    alone = [theta_recovery(*arrays([r]), cap)[0] for r in rows]
    assert [f == FLAG_OVERFLOW for f in flags] == [f == FLAG_OVERFLOW for f in alone]
    for (p, q), flag in zip(rows, flags):
        if flag != FLAG_OVERFLOW:
            assert flag == (FLAG_CAP if theta_runs(p, q, cap) is None else FLAG_DONE)


@PROPS
@given(st.lists(st.one_of(pairs(), st.sampled_from(SWEEP_40)), min_size=1, max_size=40),
       st.integers(0, 50), st.sampled_from(BANDS),
       st.one_of(st.just(INT64_GUARD), st.integers(1, 200)), st.randoms(use_true_random=False))
def test_recovery_flags_are_the_sweeps(picks, cap, band, guard, rnd):
    # recovery is the sweep's loop with the check: where a row neither
    # overflows (the replay's guard is the stricter) nor mismatches, its
    # flag is the sweep's under the same cap, and reduced rows never mismatch
    rows = picks + picks[: len(picks) // 2 + 1]
    rnd.shuffle(rows)
    with mock.patch.object(kernels, "INT64_GUARD", guard), banded(band):
        flags = theta_recovery(*arrays(rows), cap)
        swept = theta_sweep(*arrays(rows), cap)[1]
    assert FLAG_MISMATCH not in flags
    keep = flags != FLAG_OVERFLOW
    assert np.array_equal(flags[keep], swept[keep])


@PROPS
@given(st.integers(1, 600))
def test_long_runs_end_exactly_at_power_boundaries(n):
    # x = (3^n - 1)/2 falls to 0 in one R run of n; x = 1/(2^(n+1) - 1) takes
    # an S run of n to exactly 1, then one R step
    assert theta_runs((3**n - 1) // 2, 1, n) == [n, 0]
    assert theta_runs((3**n - 1) // 2, 1, n - 1) is None
    assert theta_runs(1, 2 ** (n + 1) - 1, n + 1) == [0, n, 1, 0]


def first_run(p, q, r_wave):
    """(n, p', q'): the first R run (r_wave; empty from p < q) or S run of
    reduced p/q's word by ``theta_runs``, and the point p'/q' it ends at, the
    rest of the word replayed by ``replay_theta_runs_pq``."""
    runs = theta_runs(p, q, DEFAULT_STEP_CAP)
    if r_wave:
        return runs[0], *replay_theta_runs_pq([0] + runs[1:])
    return runs[1], *replay_theta_runs_pq(runs[2:])


def undo_run(n, p, q, r_wave):
    """The start of an R run (r_wave) or S run of n steps that ends at
    reduced p/q: the run put in front of p/q's word by ``theta_runs``,
    replayed by ``replay_theta_runs_pq``."""
    runs = theta_runs(p, q, DEFAULT_STEP_CAP)
    if r_wave:
        return replay_theta_runs_pq([runs[0] + n] + runs[1:])
    if runs[0] == 0:
        return replay_theta_runs_pq([0, runs[1] + n] + runs[2:])
    return replay_theta_runs_pq([0, n] + runs)


def reduced(p, q):
    g = math.gcd(p, q)
    return p // g, q // g


@st.composite
def r_run_starts(draw):
    """Reduced p/q <= INT64_GUARD whose R run has n <= 39 steps: p/q lies in
    [(3^n - 1)/2, (3^(n+1) - 1)/2), so p = q(3^n - 1)/2 + k, 0 <= k < q 3^n.
    k = 0 ends the run at 0, and k a multiple of 3^7 or more with n > 7
    sends the run step's valuation to np.gcd."""
    n = draw(st.integers(0, 39))
    t = 3**n
    q = draw(st.integers(1, max(1, INT64_GUARD // (2 * t))))
    base = q * (t - 1) // 2
    top = min(q * t, INT64_GUARD - base + 1)
    k = draw(st.one_of(st.integers(0, top - 1), st.just(0),
                       st.integers(7, 39).map(lambda j: 3**j).filter(lambda x: x < top)))
    return reduced(base + k, q)


@st.composite
def s_run_starts(draw):
    """Reduced 0 < p < q <= INT64_GUARD whose S run has 1 <= n <= 61 steps:
    2^n <= (p + q - 1) // p < 2^(n+1), so q is in [(2^n - 1)p + 1, (2^(n+1) - 1)p]."""
    n = draw(st.integers(1, 61))
    p = draw(st.integers(1, max(1, (INT64_GUARD - 1) // ((1 << n) - 1))))
    lo = ((1 << n) - 1) * p + 1
    q = draw(st.integers(lo, min(INT64_GUARD, ((2 << n) - 1) * p)))
    return reduced(p, q)


@PROPS
@given(st.lists(r_run_starts(), min_size=1, max_size=20),
       st.lists(pairs().filter(lambda pq: 0 < pq[0] < pq[1]) | s_run_starts(),
                min_size=1, max_size=20))
@example(  # R runs of 39 and 13 to 0, v3 >= 7 with n > 7, and S runs of 61
    r_rows=[((3**39 - 1) // 2, 1), ((3**13 - 1) // 2, 1), ((3**10 - 1) // 2 + 3**8, 1),
            reduced(5 * (3**20 - 1) // 2 + 3**15, 5), (3, 7)],
    s_rows=[(1, 2**61), (1, INT64_GUARD), (3, INT64_GUARD), (1, 2)],
)
def test_run_step_matches_the_big_int_run(r_rows, s_rows):
    # _theta_run's shifts and inverse multiplies against theta_runs' run
    # and the point it ends at; _theta_inverse gives the start back where
    # recovery's guard lets a row undo its run (`theta_recovery`)
    for rows, r_wave in ((r_rows, True), (s_rows, False)):
        p, q = arrays(rows)
        n, p1, q1 = kernels._theta_run(p, q, r_wave)
        got = list(zip(n.tolist(), p1.tolist(), q1.tolist()))
        assert got == [first_run(a, b, r_wave) for a, b in rows]
        a, b = kernels._theta_inverse(n, p1, q1, r_wave)
        pows = kernels._POW3 if r_wave else kernels._POW2
        fits = ((p if r_wave else q) <= 3 * INT64_GUARD // pows[n]) | (p1 == 0)
        assert np.array_equal(a[fits], p[fits]) and np.array_equal(b[fits], q[fits])


@st.composite
def undone_runs(draw, r_wave):
    """(n, p, q): a run length, R (r_wave: n <= 39) or S (n <= 62), and a
    reduced end point whose undoing stays below 2^63 before its gcd is
    divided out: 3^n p + q(3^n - 1)/2 (p >= 0) or (2^n - 1)p + 2^n q (p >= 1)."""
    n = draw(st.integers(0, 39) if r_wave else st.integers(0, 62))
    bound = (2**63 - 1) // (2 * 3**n) if r_wave else (2**63 - 1) >> (n + 1)
    p = draw(st.integers(0 if r_wave else 1, max(1, bound)))
    return (n, *reduced(p, draw(st.integers(1, max(1, bound)))))


@PROPS
@given(st.lists(undone_runs(True), min_size=1, max_size=20),
       st.lists(undone_runs(False), min_size=1, max_size=20))
@example(  # undoing runs of 39 and 62 steps from 1/1, and an R run from 0
    r_rows=[(39, 1, 1), (39, 0, 1), (8, 0, 1), (20, 2, 3**9)], s_rows=[(62, 1, 1), (61, 1, 1)])
def test_run_inverse_matches_the_big_int_replay(r_rows, s_rows):
    for rows, r_wave in ((r_rows, True), (s_rows, False)):
        n, p, q = (np.array(c, dtype=np.int64) for c in zip(*rows))
        a, b = kernels._theta_inverse(n.astype(np.int8), p, q, r_wave)
        assert list(zip(a.tolist(), b.tolist())) == [undo_run(*row, r_wave) for row in rows]

