"""int64 kernels: exact orbits, flags, the big-int escape hatch, the recovery guard, memory,
the run step's lookups and recovery's table."""

import tracemalloc
from unittest import mock

import numpy as np

from collatzq import kernels
from collatzq.dynamics import (
    PHI,
    THETA,
    orbit_pq,
    reduced_fraction_arrays,
    reduced_fractions,
    theta_runs,
    theta_step_pq,
)
from collatzq.kernels import (
    FLAG_CAP,
    FLAG_DONE,
    FLAG_MISMATCH,
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


def test_a_start_that_leaves_on_a_wave_of_its_own_enters_the_table():
    # one row per band: 1/1 takes its R run to 0 and leaves alone, then 1/3
    # enters with its S run to 1/1 taken and leaves on 1/1's entry, with
    # 1 + 1 steps: two runs in all, where running 1/3 on to 0 takes three
    ps = np.array([1, 1], dtype=np.int64)
    qs = np.array([1, 3], dtype=np.int64)
    real = kernels._theta_run
    for cap in (10, None):
        runs = []

        def counted(p, q, r_wave):
            runs.append(p.size)
            return real(p, q, r_wave)

        with mock.patch.object(kernels, "BAND_ROWS", 1), \
                mock.patch.object(kernels, "_theta_run", counted):
            if cap is None:
                assert theta_recovery(ps, qs, 10).tolist() == [FLAG_DONE, FLAG_DONE]
            else:
                steps, flags = theta_sweep(ps, qs, cap)
                assert steps.tolist() == [1, 2] and flags.tolist() == [FLAG_DONE, FLAG_DONE]
        assert sum(runs) == 2

def test_working_memory_is_bounded_by_the_band():
    # 304,192 starts against 4,096-row bands: one int64 array the size of
    # the rows would be 74 band arrays.  All four kernels keep a
    # stopping-time table.  The recovery kernels return int8 flags and keep
    # no steps.
    ps, qs = reduced_fraction_arrays(1000)
    n = ps.size
    band_array = 8 * 4096
    outputs = 2 * 8 * n
    table = 4 * 2 * n  # at most 2n int32 entries
    with mock.patch.object(kernels, "BAND_ROWS", 4096):
        for run, kept in ((lambda: theta_sweep(ps, qs, 10_000), outputs + table),
                          (lambda: phi_sweep(ps, qs), outputs + table),
                          (lambda: theta_recovery(ps, qs, 10_000), n + table),
                          (lambda: phi_recovery(ps, qs, 10_000), n + table)):
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


def test_floor_log_matches_searchsorted():
    # both sides of every power, the table's last index and the one past it,
    # and the largest int64
    top = kernels._LOG_TOP
    for b, pows in ((3, kernels._POW3), (2, kernels._POW2)):
        near = {int(x) + d for x in pows for d in (-1, 0, 1)}
        m = np.array(sorted(near | {0, top - 1, top, 2**63 - 1}), dtype=np.int64)
        assert np.array_equal(kernels._floor_log(m, b), np.searchsorted(pows, m, side="right") - 1)


def test_gcd_pow3_matches_np_gcd():
    # x = 0 and x = c 3^j on both sides of the table's cap of 7 threes: the
    # exponent e of the run step's gcd gives gcd(x, 3^n) = 3^e
    xs = [0] + [c * 3**j for j in range(40) for c in (1, 2, 5, 7) if c * 3**j < 2**62]
    x = np.repeat(np.array(xs, dtype=np.int64), 40)
    n = np.tile(np.arange(40, dtype=np.int8), len(xs))
    e = kernels._pow3_exponent(x, n)
    assert np.array_equal(kernels._POW3[e], np.gcd(x, kernels._POW3[n]))


def test_gcd_pow2_matches_np_gcd():
    # x = +-c 2^j for every j < 63, past the floor-log table too: 2^e = gcd(x, 2^n)
    xs = [s * c << j for j in range(63) for c in (1, 3, 5, 7) for s in (1, -1)
          if c << j < 2**63]
    x = np.repeat(np.array(xs, dtype=np.int64), 63)
    n = np.tile(np.arange(63, dtype=np.int8), len(xs))
    e = kernels._pow2_exponent(x, n)
    assert np.array_equal(kernels._POW2[e], np.gcd(x, kernels._POW2[n]))


def test_long_r_runs_take_the_fallbacks():
    # (3^n - 1)/2 falls to 0 in one R run of n: for n >= 8, (2p+q)//q = 3^n
    # is past the log table and the run ends at 0, whose 3s pass its cap
    ns = range(8, 40)
    ps = np.array([(3**n - 1) // 2 for n in ns], dtype=np.int64)
    qs = np.ones_like(ps)
    assert all(theta_runs(int(p), 1, 10_000) == [n, 0] for p, n in zip(ps, ns))
    with mock.patch.object(kernels.np, "gcd", wraps=np.gcd) as gcd, \
            mock.patch.object(kernels.np, "searchsorted", wraps=np.searchsorted) as search:
        steps, flags = theta_sweep(ps, qs, 10_000)
        assert gcd.called and search.called
    assert steps.tolist() == list(ns) and set(flags.tolist()) == {FLAG_DONE}
    assert set(theta_recovery(ps, qs, 10_000).tolist()) == {FLAG_DONE}


def test_an_unreduced_start_fails_its_replay():
    # a word replays from 0/1 to a reduced pair, so a start with a common
    # factor reaches 0 at 0/g, g > 1, or fails a run's inverse, and it is
    # mismatched whenever it terminates within the cap; 0/1 and 1/2 are not
    ps = np.array([0, 2, 3, 4, 6, 9, 0, 1], dtype=np.int64)
    qs = np.array([5, 4, 6, 2, 9, 3, 1, 2], dtype=np.int64)
    for recovery in (theta_recovery, phi_recovery):
        assert recovery(ps, qs, 10_000).tolist() == [FLAG_MISMATCH] * 6 + [FLAG_DONE] * 2
    assert theta_recovery(ps, qs, 0).tolist() == [FLAG_MISMATCH] + [FLAG_CAP] * 5 + [FLAG_DONE, FLAG_CAP]


def run_ends(p, q):
    """The points a theta orbit's runs end at, by ``theta_runs`` and ``theta_step_pq``."""
    ends = []
    for n in theta_runs(p, q, 10_000):
        for _ in range(n):
            p, q, _ = theta_step_pq(p, q)
        ends.append((p, q))
    return ends


def euclid_pairs(p, q):
    """The pairs (max, min) a phi orbit divides, from its start's to the last."""
    x, y = max(p, q), min(p, q)
    pairs = []
    while y:
        pairs.append((x, y))
        x, y = y, x % y
    return pairs


def passes_one_half(map_name, p, q):
    """Whether 1/2 is p/q or one of its theta run ends, or (2, 1) one of its
    phi Euclid pairs: the points where `inverse_off_at_one_half` strikes."""
    if map_name == THETA:
        return (p, q) == (1, 2) or (1, 2) in run_ends(p, q)
    return (2, 1) in euclid_pairs(p, q)


def inverse_off_at_one_half(map_name):
    """A patch of the map's run inverse that is off by one wherever it gives
    back 1/2 (theta) or the pair (2, 1) (phi, the pair of 1/2 and 2/1)."""
    if map_name == THETA:
        real = kernels._theta_inverse

        def off(n, p, q, r_wave):
            a, b = real(n, p, q, r_wave)
            return a + ((a == 1) & (b == 2)), b

        return mock.patch.object(kernels, "_theta_inverse", off)
    real = kernels._phi_inverse

    def off(quot, y, rem):
        x = real(quot, y, rem)
        return x + ((x == 2) & (y == 1))

    return mock.patch.object(kernels, "_phi_inverse", off)


def test_a_mismatch_passes_to_the_starts_that_landed_on_it():
    # with the inverse off at 1/2, exactly the starts that meet it at a run
    # end fail: by their own run from it, or by landing on a start that
    # failed, which one row per band always does
    ps, qs = reduced_fraction_arrays(60)
    pairs = list(zip(ps.tolist(), qs.tolist()))
    for map_name, recovery in ((THETA, theta_recovery), (PHI, phi_recovery)):
        want = [i for i, (p, q) in enumerate(pairs) if passes_one_half(map_name, p, q)]
        assert pairs.index((1, 2)) in want and len(want) > 2
        for band in (1, 7, kernels.BAND_ROWS):
            with inverse_off_at_one_half(map_name), mock.patch.object(kernels, "BAND_ROWS", band):
                flags = recovery(ps, qs, 10_000)
            assert np.flatnonzero(flags == FLAG_MISMATCH).tolist() == want
            assert set(flags.tolist()) == {FLAG_DONE, FLAG_MISMATCH}
