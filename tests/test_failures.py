"""Error paths that the happy-path suites never reach.

Library refusals: each bad argument raises its own exception type.  Failure
reports: faults injected with monkeypatch into the verification suites and
into word recovery must be counted, carry the first witness in its
documented form, and make the `verify` CLI exit 1.
"""

import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from collatzq import kernels, verify, words
from collatzq.census import census_sampled, density_sweep
from collatzq.cli import main
from collatzq.core import (
    EigenPair,
    FixedPointKind,
    FixedPointResult,
    Mat2,
    integer_eigenvalues,
    mat_pow,
    rational_fixed_points,
)
from collatzq.dynamics import (
    MAX_SWEEP_HEIGHT,
    PHI,
    THETA,
    orbit,
    phi_monotonicity_sweep,
    reduced_fractions,
    theta_sweep_full,
    verify_word_recovery,
)
from collatzq.errors import CorruptCheckpointError, NegativeInputError, SizeLimitError
from collatzq.spectral import compute_nk, trace_fast
from collatzq.words import (
    enumerate_lambda,
    enumerate_lambda_block,
    format_word_compact,
    lambda_count,
)
from test_kernels import inverse_off_at_one_half, passes_one_half

REFUSALS = {
    "census_sampled sample_size=0": (lambda: census_sampled(2, 3, 0, 0), ValueError),
    "density_sweep (0, 3)": (lambda: density_sweep(2, (0, 3)), ValueError),
    "density_sweep (5, 3)": (lambda: density_sweep(2, (5, 3)), ValueError),
    "density_sweep resume without file": (
        lambda: density_sweep(2, (1, 2), resume=True), CorruptCheckpointError),
    "orbit unknown map": (lambda: orbit(Fraction(1, 2), "psi"), ValueError),
    "orbit step_cap=-1": (lambda: orbit(Fraction(1, 2), THETA, -1), ValueError),
    "theta_sweep_full(1)": (lambda: theta_sweep_full(1), ValueError),
    "theta_sweep_full(10, 0)": (lambda: theta_sweep_full(10, 0), ValueError),
    "phi_monotonicity_sweep(1)": (lambda: phi_monotonicity_sweep(1), ValueError),
    "verify_word_recovery(-3, theta)": (lambda: verify_word_recovery(-3, THETA), ValueError),
    "verify_word_recovery(1, phi)": (lambda: verify_word_recovery(1, PHI), ValueError),
    # heights over the limit are refused before the start sieve allocates
    "theta_sweep_full over the height limit": (
        lambda: theta_sweep_full(MAX_SWEEP_HEIGHT + 1), SizeLimitError),
    "phi_monotonicity_sweep over the height limit": (
        lambda: phi_monotonicity_sweep(MAX_SWEEP_HEIGHT + 1), SizeLimitError),
    "verify_word_recovery over the height limit": (
        lambda: verify_word_recovery(3_000_000_000, THETA), SizeLimitError),
    "compute_nk(0)": (lambda: compute_nk(0), ValueError),
    "lambda_count(0, 1)": (lambda: lambda_count(0, 1), ValueError),
    "enumerate_lambda(1, 0)": (lambda: list(enumerate_lambda(1, 0)), ValueError),
    "enumerate_lambda_block(2, 3, 5, 1)": (
        lambda: list(enumerate_lambda_block(2, 3, 5, 1)), ValueError),
    "mat_pow(m, -1)": (lambda: mat_pow(Mat2(1, 1, 0, 1), -1), NegativeInputError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refusal(call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error


def first_word(k, seed, exp_max):
    return format_word_compact(verify.random_word(random.Random(seed), k, exp_max))


def test_trace_fault_is_counted_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "trace_fast", lambda w: trace_fast(w) + 1)
    report = verify.suite_trace(k=2, samples=5, seed=3)
    assert report["failures"] == 5
    assert report["first_failure_witness"] == {"word": first_word(2, 3, 5)}
    assert main(["verify", "--suite", "trace", "--k", "2", "--samples", "5",
                 "--seed", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["failures"], payload["first_failure_witness"]) == (
        5, {"word": first_word(2, 3, 5)})


def test_prefilter_fault_reports_the_word_and_pair(monkeypatch):
    monkeypatch.setattr(verify, "integer_eigenvalues", lambda m: EigenPair(1, 2))
    report = verify.suite_prefilter(k=2, samples=20, seed=0)
    # every sampled exponent exceeds n, so every word is excluded and fails
    assert report["excluded"] == report["failures"] == 20
    rng = random.Random(0)
    n = compute_nk(2).n
    exps = [rng.randint(n + 1, n + 17) for _ in range(4)]
    word = words.Word(tuple(exps[:2]), tuple(exps[2:]))
    assert report["first_failure_witness"] == {
        "word": format_word_compact(word), "eigenvalues": [1, 2]}


@pytest.mark.parametrize("count_off, free", [(True, True), (False, False), (True, False)])
def test_freeness_faults(monkeypatch, count_off, free):
    if count_off:
        monkeypatch.setattr(verify, "enumerate_lambda",
                            lambda k, M: itertools.islice(enumerate_lambda(k, M), 1, None))
    monkeypatch.setattr(verify, "freeness_check", lambda k, M: free)
    report = verify.suite_freeness(k=2, M=2)
    assert report["failures"] == count_off + (not free)
    if count_off:
        closed = lambda_count(2, 2)
        witness = {"enumerated": closed - 1, "closed_form": closed}
    else:
        witness = {"collision": "duplicate matrix in boxes up to (k=2, M=2)"}
    assert report["first_failure_witness"] == witness


def wrong_eigenvalues_when_c_nonzero(m):
    real = integer_eigenvalues(m)
    if m.c == 0:
        return real
    return None if real is not None else EigenPair(0, 0)


def wrong_eigenvalues_when_c_zero(m):
    real = integer_eigenvalues(m)
    return real if m.c != 0 else EigenPair(real.lam + 1, real.mu)


def wrong_kind_when_c_zero(m):
    real = rational_fixed_points(m)
    if m.c != 0:
        return real
    kind = FixedPointKind.NONE if real.kind is FixedPointKind.ALL else FixedPointKind.ALL
    return FixedPointResult(kind)


@pytest.mark.parametrize("name, fault, c_zero, why", [
    ("integer_eigenvalues", wrong_eigenvalues_when_c_nonzero, False, "eigenvalues "),
    ("integer_eigenvalues", wrong_eigenvalues_when_c_zero, True, "c=0 eigenvalues "),
    ("rational_fixed_points", wrong_kind_when_c_zero, True, "c=0 trichotomy gave "),
])
def test_fixedpoint_faults(monkeypatch, name, fault, c_zero, why):
    # each fault breaks every draw of one kind (c != 0 or c = 0) and no other,
    # so there is one failure per sample and the witness is the first such draw
    seen = []

    def recording(m):
        seen.append(m)
        return fault(m)

    monkeypatch.setattr(verify, name, recording)
    samples = 30
    report = verify.suite_fixedpoint(samples=samples, seed=5)
    assert report["samples"] == 2 * samples
    assert report["failures"] == samples
    first = next(m for m in seen if (m.c == 0) == c_zero)
    witness = report["first_failure_witness"]
    assert witness["matrix"] == list(first.entries())
    assert witness["why"].startswith(why)


def assert_reports_a_wrong_replay(map_name):
    # with the run inverse off at 1/2 (for phi, at the pair (2, 1)), 1/2
    # fails and still counts as checked, and so do exactly the starts that
    # meet that point at a run end (Euclid pairs for phi), for any band size
    starts = list(reduced_fractions(10))
    want = [Fraction(p, q) for p, q in starts if passes_one_half(map_name, p, q)]
    assert Fraction(1, 2) in want and len(want) > 2
    for band in (1, 7, kernels.BAND_ROWS):
        with inverse_off_at_one_half(map_name), mock.patch.object(kernels, "BAND_ROWS", band):
            checked, failures = verify_word_recovery(10, map_name)
        assert checked == len(starts) and failures == want


def test_word_recovery_reports_a_wrong_replay():
    assert_reports_a_wrong_replay(THETA)


def test_phi_word_recovery_reports_a_wrong_replay():
    assert_reports_a_wrong_replay(PHI)
