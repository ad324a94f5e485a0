"""int64 kernels: exact orbits, flags, the big-int escape hatch, the recovery guard, memory."""

import tracemalloc
from unittest import mock

import numpy as np

from collatzq import kernels, reduced_fractions
from collatzq.dynamics import PHI, THETA, orbit_pq, reduced_fraction_arrays
from collatzq.kernels import (
    FLAG_CAP,
    FLAG_DONE,
    FLAG_OVERFLOW,
    FLAG_VIOLATION,
    INT64_GUARD,
    phi_recovery,
    phi_sweep,
    theta_recovery,
    theta_sweep,
)


def start_arrays(height):
    pairs = list(reduced_fractions(height))
    ps = np.array([p for p, _ in pairs], dtype=np.int64)
    qs = np.array([q for _, q in pairs], dtype=np.int64)
    return pairs, ps, qs


def test_theta_matches_exact_orbits():
    pairs, ps, qs = start_arrays(80)
    steps, flags = theta_sweep(ps, qs, 10_000)
    assert set(flags.tolist()) == {FLAG_DONE}
    for (p, q), st in zip(pairs, steps.tolist()):
        assert orbit_pq(p, q, THETA, 10_000)[0] == st


def test_theta_caps_past_int32_use_an_int64_table():
    # a cap past 2^31 - 1 switches the table to int64 entries; 2^63 - 1 and
    # past it are clamped to int64's largest, which no orbit reaches
    _, ps, qs = start_arrays(80)
    steps, flags = theta_sweep(ps, qs, 10_000)
    for cap in (2**31, 2**40, 2**63 - 1, 2**70):
        got_steps, got_flags = theta_sweep(ps, qs, cap)
        assert np.array_equal(got_steps, steps) and np.array_equal(got_flags, flags)


def test_phi_matches_exact_orbits():
    pairs, ps, qs = start_arrays(150)
    steps, flags = phi_sweep(ps, qs)
    assert set(flags.tolist()) == {FLAG_DONE}
    for (p, q), st in zip(pairs, steps.tolist()):
        exact_steps, term, _ = orbit_pq(p, q, PHI, p + q + 1)
        assert term and exact_steps == st


def test_phi_violation_flag():
    # -1/1 is outside phi's domain: its first run cannot lower p+q
    steps, flags = phi_sweep(np.array([-1, 3], dtype=np.int64), np.array([1, 2], dtype=np.int64))
    assert flags.tolist() == [FLAG_VIOLATION, FLAG_DONE]
    assert steps[1] == 3


def test_cap_flag():
    ps = np.array([5], dtype=np.int64)
    qs = np.array([1], dtype=np.int64)
    steps, flags = theta_sweep(ps, qs, 2)
    assert flags[0] == FLAG_CAP
    assert steps[0] == 2


def test_overflow_flag_and_bigint_redo():
    # q beyond the guard must be flagged, never wrapped
    big = INT64_GUARD + 1
    ps = np.array([1, 2], dtype=np.int64)
    qs = np.array([big, 1], dtype=np.int64)
    steps, flags = theta_sweep(ps, qs, 100)
    assert flags[0] == FLAG_OVERFLOW and steps[0] == 0
    assert flags[1] == FLAG_DONE
    # the exact path handles the same start without any size limit
    st, term, _ = orbit_pq(1, big, THETA, 10_000)
    assert term and st > 0


def test_zero_start():
    ps = np.array([0], dtype=np.int64)
    qs = np.array([1], dtype=np.int64)
    steps, flags = theta_sweep(ps, qs, 10)
    assert steps[0] == 0 and flags[0] == FLAG_DONE
    steps, flags = phi_sweep(ps, qs)
    assert steps[0] == 0 and flags[0] == FLAG_DONE


def test_working_memory_is_bounded_by_the_band():
    # 304,192 starts against 4,096-row bands: one int64 array the size of
    # the rows would be 74 band arrays.  Both sweeps keep a stopping-time
    # table.  The recovery kernels return int8 flags; their wave records
    # count as working memory.
    ps, qs = reduced_fraction_arrays(1000)
    n = ps.size
    band_array = 8 * 4096
    outputs = 2 * 8 * n
    table = 4 * 2 * n  # at most 2n int32 entries
    with mock.patch.object(kernels, "BAND_ROWS", 4096):
        for run, kept in ((lambda: theta_sweep(ps, qs, 10_000), outputs + table),
                          (lambda: phi_sweep(ps, qs), outputs + table),
                          (lambda: theta_recovery(ps, qs, 10_000), n),
                          (lambda: phi_recovery(ps, qs, 10_000), n)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - kept < 32 * band_array


def test_recovery_guard_covers_the_replay():
    # x = (3^n + 1)/2 takes one R run of n to 1/3^n, within the guard, but
    # undoing that run holds 3^n x before its gcd: the row must go to the
    # big-int redo exactly when 3^n x > 3 INT64_GUARD (n >= 21), never come
    # back as a wrapped mismatch.  x = (3^n - 1)/2 reaches 0 in one run, whose
    # replay from 0/1 holds only x, so it never needs the redo.
    ns = range(1, 40)
    up = [(3**n + 1) // 2 for n in ns]
    down = [(3**n - 1) // 2 for n in ns]
    ps = np.array(up + down, dtype=np.int64)
    flags = theta_recovery(ps, np.ones_like(ps), 10_000)
    assert flags.tolist() == [FLAG_OVERFLOW if 3**n * x > 3 * INT64_GUARD else FLAG_DONE
                              for n, x in zip(ns, up)] + [FLAG_DONE] * len(ns)
