"""Property tests: phi on continued fractions against the stepwise orbit.

The fast paths are the divmod sweep kernel with its stopping-time table
(also with its band size patched to 1 and 7 rows), the run-length word and
its replay, phi word recovery by the wave kernel ``kernels.phi_recovery``
(also banded), and the array sweep starts.  Their oracles are
``orbit_pq(..., PHI)``, whose branch string the runs must render to, the
Euclid-per-wave sweep ``euclid_per_wave_sweep``, ``replay_word_pq``, the
per-start recovery loop over ``phi_runs``, the sweep kernel for recovery's
flags, and ``reduced_fractions``.  The sweep and recovery run one start
per twin pair {p/q, q/p}: the kernels must give both twins one result,
and the reports must add each listed start's twin back.  Pairs with small
quotient sums are built from drawn continued fractions, so the stepwise
oracle stays cheap however large p and q are.  A fixed derandomized
profile keeps these fast and repeatable.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import totient

from collatzq import kernels
from collatzq.dynamics import (
    PHI,
    PhiSweepReport,
    orbit_pq,
    phi_monotonicity_sweep,
    phi_runs,
    reduced_fraction_arrays,
    reduced_fractions,
    replay_runs_pq,
    replay_word_pq,
    verify_word_recovery,
)
from collatzq.kernels import FLAG_CAP, FLAG_DONE, FLAG_VIOLATION, phi_recovery, phi_sweep
from collatzq.reports import word_str

PROPS = settings(max_examples=25, derandomize=True, deadline=None, database=None)

LIMIT = 2**62


@st.composite
def cf_pairs(draw):
    """(p, q, quotient sum) of p/q = [a0; a1, ..., an] with p + q < 2^62."""
    quotients = [draw(st.integers(0, 40))] + draw(st.lists(st.integers(1, 40), max_size=12))
    p, q = 1, 0  # convergent recurrence, folded from the last quotient
    for a in reversed(quotients):
        p, q = a * p + q, p
    assume(p + q < LIMIT)
    return p, q, sum(quotients)


@st.composite
def big_pairs(draw):
    """Reduced (p, q) with 0 <= p, 1 <= q and p, q below 2^62."""
    p = draw(st.integers(0, LIMIT - 1))
    q = draw(st.integers(1, LIMIT - 1))
    g = math.gcd(p, q)
    return p // g, q // g


@PROPS
@given(st.lists(cf_pairs(), min_size=1, max_size=20))
def test_divmod_kernel_matches_stepwise_orbit(pairs):
    ps = np.array([p for p, _, _ in pairs], dtype=np.int64)
    qs = np.array([q for _, q, _ in pairs], dtype=np.int64)
    steps, flags = phi_sweep(ps, qs)
    assert flags.tolist() == [FLAG_DONE] * len(pairs)
    for (p, q, total), st_ in zip(pairs, steps.tolist()):
        exact, term, _ = orbit_pq(p, q, PHI, total + 1)
        assert term and exact == st_ == total


@PROPS
@given(st.lists(big_pairs(), min_size=1, max_size=20))
def test_divmod_kernel_matches_quotient_sum_up_to_2_62(pairs):
    ps = np.array([p for p, _ in pairs], dtype=np.int64)
    qs = np.array([q for _, q in pairs], dtype=np.int64)
    steps, flags = phi_sweep(ps, qs)
    assert flags.tolist() == [FLAG_DONE] * len(pairs)
    assert steps.tolist() == [sum(phi_runs(p, q)) for p, q in pairs]


@PROPS
@given(st.lists(st.sampled_from(list(reduced_fractions(60))), min_size=1, max_size=120),
       st.sampled_from((1, 7, kernels.BAND_ROWS)), st.randoms(use_true_random=False))
def test_divmod_kernel_does_not_depend_on_band_size(picks, band, rnd):
    # the full sweep, then the picks shuffled with duplicates and with -1/1,
    # which phi flags, mixed in: every row lands in its own slot of the output
    ps, qs = reduced_fraction_arrays(60)
    rows = picks + picks[: len(picks) // 2 + 1] + [(-1, 1)] * 3
    rnd.shuffle(rows)
    with mock.patch.object(kernels, "BAND_ROWS", band):
        for starts in (list(zip(ps.tolist(), qs.tolist())), rows):
            steps, flags = phi_sweep(np.array([p for p, _ in starts], dtype=np.int64),
                                     np.array([q for _, q in starts], dtype=np.int64))
            for (p, q), st_, flag in zip(starts, steps.tolist(), flags.tolist()):
                if p < 0:
                    assert flag == FLAG_VIOLATION
                    continue
                exact, term, _ = orbit_pq(p, q, PHI, p + q)
                assert term and (st_, flag) == (exact, FLAG_DONE)


def euclid_per_wave_sweep(ps, qs):
    """(steps, flags) of every row stepped by Euclid divisions to its end.

    The form ``phi_sweep`` had before its table: each wave divides every
    live row's pair, and no row reads another's result.
    """
    p = np.asarray(ps, dtype=np.int64)
    q = np.asarray(qs, dtype=np.int64)
    steps = np.zeros(p.shape[0], dtype=np.int64)
    flags = np.zeros(p.shape[0], dtype=np.int64)
    rows = np.flatnonzero(p != 0)
    x = np.maximum(p[rows], q[rows])
    y = np.minimum(p[rows], q[rows])
    while rows.size:
        quot, rem = np.divmod(x, y)
        steps[rows] += quot
        bad = (quot < 1) | (rem >= x)
        if bad.any():
            flags[rows[bad]] = FLAG_VIOLATION
            rem[bad] = 0
        live = np.flatnonzero(rem)
        rows, x, y = rows[live], y[live], rem[live]
    flags[steps > p + q] = FLAG_VIOLATION
    return steps, flags


SMALL = list(reduced_fractions(40))


@st.composite
def mixed_rows(draw):
    """One row: a sweep start, its other orientation, a multiple of one, or
    a pair below 2^62, reduced or not, far above any table's top."""
    p, q = draw(st.sampled_from(SMALL))
    kind = draw(st.sampled_from(("start", "swapped", "multiple", "big", "big multiple")))
    if kind == "swapped" and p:
        return q, p
    if kind == "multiple":
        k = draw(st.integers(2, 5))
        return k * p, k * q
    if kind == "big":
        return draw(big_pairs())
    if kind == "big multiple":
        return draw(st.integers(0, LIMIT - 1)), draw(st.integers(1, LIMIT - 1))
    return p, q


@PROPS
@given(st.lists(st.integers(1, 50), max_size=4), st.lists(mixed_rows(), max_size=60),
       st.integers(0, 30), st.sampled_from((1, 7, kernels.BAND_ROWS)),
       st.randoms(use_true_random=False))
def test_table_kernel_matches_euclid_per_wave(negatives, picks, height, band, rnd):
    # -1/q and 0/-q rows first, then a sweep in height order, so the table
    # fills and is read, then the picks shuffled with duplicates and the
    # sweep's rows
    ps, qs = reduced_fraction_arrays(height)
    rest = picks + picks[: len(picks) // 2] + list(zip(ps.tolist(), qs.tolist()))[::3]
    rnd.shuffle(rest)
    rows = [(-1, q) for q in negatives] + [(0, -q) for q in negatives]
    rows += list(zip(ps.tolist(), qs.tolist())) + rest
    ps = np.array([p for p, _ in rows], dtype=np.int64)
    qs = np.array([q for _, q in rows], dtype=np.int64)
    with mock.patch.object(kernels, "BAND_ROWS", band):
        steps, flags = phi_sweep(ps, qs)
    expected = euclid_per_wave_sweep(ps, qs)
    assert steps.dtype == flags.dtype == np.int64
    assert steps.tolist() == expected[0].tolist() and flags.tolist() == expected[1].tolist()


def test_table_kernel_matches_euclid_per_wave_on_the_full_sweep():
    ps, qs = reduced_fraction_arrays(2000)
    steps, flags = phi_sweep(ps, qs)
    expected_steps, expected_flags = euclid_per_wave_sweep(ps, qs)
    assert np.array_equal(steps, expected_steps) and np.array_equal(flags, expected_flags)


def divmod_fails_at_5_3(faults):
    """A patch of np.divmod under which the division of the pair (5, 3)
    takes no step, a violation; it appends the rows it strikes per call."""
    real = np.divmod

    def faulty(x, y):
        quot, rem = real(x, y)
        hit = (x == 5) & (y == 3)
        faults.append(int(hit.sum()))
        quot[hit] = 0
        return quot, rem

    return mock.patch.object(kernels.np, "divmod", faulty)


def passes_5_3(p, q):
    """Whether the phi orbit of p/q divides the pair (5, 3)."""
    x, y = max(p, q), min(p, q)
    while y:
        if (x, y) == (5, 3):
            return True
        x, y = y, x % y
    return False


def test_a_flagged_start_flags_every_row_that_ends_a_run_on_it():
    # the division of the pair (5, 3) is made to take no step, so its starts
    # 3/5 and 5/3 are flagged.  One row at a time, each later row ends its
    # first run on a finished start: only those two divide (5, 3), and every
    # other row whose orbit passes it must read the flag from the table.
    ps, qs = reduced_fraction_arrays(60)
    faults = []
    with mock.patch.object(kernels, "BAND_ROWS", 1), divmod_fails_at_5_3(faults):
        _, flags = phi_sweep(ps, qs)
    through = [passes_5_3(p, q) for p, q in zip(ps.tolist(), qs.tolist())]
    assert sum(faults) == 2 and sum(through) > 2
    assert flags.tolist() == [FLAG_VIOLATION if t else FLAG_DONE for t in through]


def test_sweep_and_recovery_list_both_twins_of_a_flagged_start():
    # the kernel runs only 3/5 of the twins 3/5 and 5/3, and only the p <= q
    # twin of every other start: the reports must add each flagged start's
    # twin back, in sweep order, and count every start
    ps, qs = reduced_fraction_arrays(60)
    through = [Fraction(p, q) for p, q in zip(ps.tolist(), qs.tolist()) if passes_5_3(p, q)]
    assert {Fraction(3, 5), Fraction(5, 3)} <= set(through) and len(through) > 2
    assert sorted(through) == sorted(1 / x for x in through)
    with divmod_fails_at_5_3([]):
        report = phi_monotonicity_sweep(60)
        checked, failures = verify_word_recovery(60, PHI)
    assert report.violations == tuple(through) and report.total_tested == ps.size
    assert failures == through and checked == ps.size


@pytest.mark.parametrize("height, starts, rows", [(2000, 1_216_588, 608_295), (500, 76_116, 38_059)])
def test_the_kernels_get_one_start_per_twin_pair(height, starts, rows):
    # the p <= q half of the sweep's starts, in sweep order: the twins q/p
    # are derived, and only 0/1 and 1/1 are their own
    ps, qs = reduced_fraction_arrays(height)
    lower = ps <= qs
    assert ps.size == starts == 2 * rows - 2 and np.count_nonzero(lower) == rows
    with mock.patch.object(kernels, "phi_sweep", wraps=kernels.phi_sweep) as sweep, \
            mock.patch.object(kernels, "phi_recovery", wraps=kernels.phi_recovery) as recovery:
        report = phi_monotonicity_sweep(height)
        assert verify_word_recovery(height, PHI) == (starts, [])
    for kernel in (sweep, recovery):
        (got_ps, got_qs, *_), _ = kernel.call_args
        assert np.array_equal(got_ps, ps[lower]) and np.array_equal(got_qs, qs[lower])
    assert report.total_tested == starts and report.all_monotone
    assert (report.max_stopping_time, report.argmax) == (height - 1, Fraction(1, height - 1))


@PROPS
@given(st.lists(st.one_of(big_pairs(), cf_pairs().map(lambda t: t[:2]), st.sampled_from(SMALL)),
                min_size=1, max_size=30),
       st.integers(0, 400), st.sampled_from((1, 7, kernels.BAND_ROWS)),
       st.randoms(use_true_random=False))
def test_a_start_and_its_twin_get_the_same_steps_and_flag(picks, cap, band, rnd):
    # the phi sweep and recovery run one start per twin pair {p/q, q/p} and
    # give the other the same result: the kernels must give q/p exactly
    # p/q's steps and flags, in one call, in any row order and band size
    pairs = [(p, q) for p, q in picks if p]  # 0/q has no twin
    rows = pairs + [(q, p) for p, q in pairs]
    rnd.shuffle(rows)
    ps = np.array([p for p, _ in rows], dtype=np.int64)
    qs = np.array([q for _, q in rows], dtype=np.int64)
    with mock.patch.object(kernels, "BAND_ROWS", band):
        steps, flags = phi_sweep(ps, qs)
        recovered = phi_recovery(ps, qs, cap)
    result = {}
    for row, *got in zip(rows, steps.tolist(), flags.tolist(), recovered.tolist()):
        assert result.setdefault(row, got) == got
    for p, q in pairs:
        assert result[(q, p)] == result[(p, q)]


@PROPS
@given(cf_pairs())
def test_run_length_word_expands_to_stepwise_word(pair):
    p, q, total = pair
    runs = phi_runs(p, q)
    _, term, branches = orbit_pq(p, q, PHI, total + 1)
    assert term and word_str(runs, "FG") == branches
    assert len(runs) % 2 == 1 and all(n >= 1 for n in runs[1:])
    assert replay_runs_pq(runs) == replay_word_pq(branches) == (p, q)


@PROPS
@given(big_pairs())
def test_run_length_replay_round_trip_up_to_2_62(pair):
    p, q = pair
    runs = phi_runs(p, q)
    assert replay_runs_pq(runs) == (p, q)
    # every run but a leading F^0 is nonempty, and an F run reaches 0
    assert len(runs) % 2 == 1 and all(n >= 1 for n in runs[1:])


@PROPS
@given(st.integers(2, 60), st.integers(0, 70))
def test_phi_recovery_fails_exactly_the_starts_over_the_cap(height, cap):
    checked, failures = verify_word_recovery(height, PHI, cap)
    over = [Fraction(p, q) for p, q in reduced_fractions(height)
            if not orbit_pq(p, q, PHI, cap)[1]]
    assert failures == over
    assert checked + len(over) == sum(1 for _ in reduced_fractions(height))


def per_start_recovery(height, cap):
    """(checked, failures) of the per-start loop over ``phi_runs`` and
    ``replay_runs_pq``, the form word recovery had before its kernel."""
    checked, failures = 0, []
    for p, q in reduced_fractions(height):
        runs = phi_runs(p, q)
        if sum(runs) > cap:
            failures.append(Fraction(p, q))
            continue
        checked += 1
        if replay_runs_pq(runs) != (p, q):
            failures.append(Fraction(p, q))
    return checked, failures


@PROPS
@given(st.integers(2, 120), st.integers(0, 70), st.sampled_from((1, 7, kernels.BAND_ROWS)),
       st.one_of(st.just(kernels.INT64_GUARD), st.integers(1, 200)))
def test_array_recovery_matches_the_per_start_loop(height, cap, band, guard):
    # caps up to 50 leave rows unfinished; phi rows never grow, so the guard
    # must change nothing
    with mock.patch.object(kernels, "INT64_GUARD", guard), \
            mock.patch.object(kernels, "BAND_ROWS", band):
        assert verify_word_recovery(height, PHI, cap) == per_start_recovery(height, cap)


def test_array_recovery_under_a_negative_cap():
    # the library refuses the cap, as `orbit` does; the kernel flags every
    # start over it, 0/1 too: its empty word totals 0 > -1
    with pytest.raises(ValueError, match="step_cap"):
        verify_word_recovery(20, PHI, -1)
    ps, qs = reduced_fraction_arrays(20)
    assert set(phi_recovery(ps, qs, -1).tolist()) == {FLAG_CAP}


@PROPS
@given(st.lists(big_pairs(), min_size=1, max_size=20), st.integers(0, 400))
def test_recovery_kernel_up_to_2_62(pairs, cap):
    ps = np.array([p for p, _ in pairs], dtype=np.int64)
    qs = np.array([q for _, q in pairs], dtype=np.int64)
    flags = phi_recovery(ps, qs, cap)
    assert flags.tolist() == [FLAG_CAP if sum(phi_runs(p, q)) > cap else FLAG_DONE
                              for p, q in pairs]


@st.composite
def guard_pairs(draw):
    """Reduced (p, q) with entries within a few thousand of INT64_GUARD."""
    near = st.integers(kernels.INT64_GUARD - 3000, kernels.INT64_GUARD + 3000)
    p, q = draw(near), draw(near)
    g = math.gcd(p, q)
    return p // g, q // g


@PROPS
@given(st.lists(st.one_of(big_pairs(), guard_pairs(), st.sampled_from(list(reduced_fractions(40)))),
                min_size=1, max_size=40),
       st.integers(0, 50), st.sampled_from((1, 7, kernels.BAND_ROWS)),
       st.one_of(st.just(kernels.INT64_GUARD), st.integers(1, 200)), st.randoms(use_true_random=False))
def test_recovery_flags_are_the_sweeps(picks, cap, band, guard, rnd):
    # recovery is the sweep's loop with the check: its flag is the sweep's
    # under the same cap (capped where the sweep's steps pass it), reduced
    # rows never mismatch, and the guard changes nothing
    rows = picks + picks[: len(picks) // 2 + 1]
    rnd.shuffle(rows)
    ps = np.array([p for p, _ in rows], dtype=np.int64)
    qs = np.array([q for _, q in rows], dtype=np.int64)
    with mock.patch.object(kernels, "INT64_GUARD", guard), \
            mock.patch.object(kernels, "BAND_ROWS", band):
        flags = phi_recovery(ps, qs, cap)
        steps, swept = phi_sweep(ps, qs)
    swept[steps > cap] = FLAG_CAP
    assert flags.tolist() == swept.tolist()


@PROPS
@given(st.integers(0, 200))
def test_array_starts_match_reduced_fractions(height):
    ps, qs = reduced_fraction_arrays(height)
    assert ps.dtype == qs.dtype == np.int64
    assert list(zip(ps.tolist(), qs.tolist())) == list(reduced_fractions(height))


@pytest.mark.parametrize("height, count", [(1000, 304_192), (2000, 1_216_588)])
def test_start_sieve_counts_totients(height, count):
    # 0/1 plus, for each s >= 2, the phi(s) values p < s coprime to s
    assert 1 + sum(int(totient(s)) for s in range(2, height + 1)) == count
    assert len(reduced_fraction_arrays(height)[0]) == count


@PROPS
@given(st.integers(2, 80))
def test_phi_report_matches_stepwise_first_maximum(height):
    rep = phi_monotonicity_sweep(height)
    best, argmax = -1, Fraction(0)
    for p, q in reduced_fractions(height):
        steps, term, _ = orbit_pq(p, q, PHI, p + q)
        assert term
        if steps > best:
            best, argmax = steps, Fraction(p, q)
    assert (rep.max_stopping_time, rep.argmax) == (best, argmax)
    assert rep.violations == () and rep.total_tested == sum(1 for _ in reduced_fractions(height))


def test_the_half_sweep_at_2000_is_the_full_sweeps_report():
    # the report of the kernel over every start, twins included, built as
    # the sweep builds it: first maximum in sweep order, flagged starts
    ps, qs = reduced_fraction_arrays(2000)
    steps, flags = phi_sweep(ps, qs)
    steps[flags != FLAG_DONE] = -1
    i = int(np.argmax(steps))
    miss = steps < 0
    full = PhiSweepReport(
        height_bound=2000,
        total_tested=int(ps.size),
        max_stopping_time=int(steps[i]),
        argmax=Fraction(int(ps[i]), int(qs[i])),
        violations=tuple(map(Fraction, ps[miss].tolist(), qs[miss].tolist())),
    )
    assert phi_monotonicity_sweep(2000) == full
    assert (full.total_tested, full.max_stopping_time) == (1_216_588, 1999)
    assert full.argmax == Fraction(1, 1999) and full.all_monotone
