"""Seeded verification suites behind the `verify` CLI subcommand.

Each suite samples its property and returns a JSON-ready report:
{property, samples, failures, first_failure_witness} (plus the seed and
size parameters so the run is reproducible from its own output).
"""

from __future__ import annotations

import random
from typing import Callable

from .core import FixedPointKind, Mat2, integer_eigenvalues, rational_fixed_points
from .spectral import (
    bounds_check,
    compute_nk,
    entries_from_u,
    prefilter_excludes,
    trace_fast,
    trace_subsetpair,
    u_quantities,
)
from .words import (
    Word,
    enumerate_lambda,
    format_word_compact,
    freeness_check,
    lambda_count,
    word_eval,
)


def random_word(rng: random.Random, k: int, exp_max: int) -> Word:
    """Canonical-form word: boundary exponents in [0, E], interior in [1, E]."""
    betas = [rng.randint(0, exp_max)] + [rng.randint(1, exp_max) for _ in range(k - 1)]
    alphas = [rng.randint(1, exp_max) for _ in range(k - 1)] + [rng.randint(0, exp_max)]
    return Word(tuple(betas), tuple(alphas))


def _report(
    prop: str, samples: int, failures: int, witness: object, **params
) -> dict:
    return {
        "property": prop,
        "samples": samples,
        "failures": failures,
        "first_failure_witness": witness,
        **params,
    }


def _sample_suite(
    prop: str,
    check: Callable[[Word], bool],
    k: int,
    samples: int,
    seed: int,
    exp_max: int,
) -> dict:
    rng = random.Random(seed)
    failures = 0
    witness = None
    for _ in range(samples):
        w = random_word(rng, k, exp_max)
        if not check(w):
            failures += 1
            if witness is None:
                witness = {"word": format_word_compact(w)}
    return _report(prop, samples, failures, witness, k=k, seed=seed, exp_max=exp_max)


def suite_trace(k: int = 3, samples: int = 500, seed: int = 0, exp_max: int = 5) -> dict:
    """trace_subsetpair = trace_fast = tr(word_eval), exactly."""

    def check(w: Word) -> bool:
        tr = word_eval(w).trace()
        return trace_subsetpair(w) == tr and trace_fast(w) == tr

    return _sample_suite("trace", check, k, samples, seed, exp_max)


def suite_entries(k: int = 3, samples: int = 500, seed: int = 0, exp_max: int = 5) -> dict:
    """Entry reconstruction from the U quadruple equals the direct product."""

    def check(w: Word) -> bool:
        return entries_from_u(u_quantities(w)) == word_eval(w)

    return _sample_suite("entries", check, k, samples, seed, exp_max)


def suite_bounds(k: int = 3, samples: int = 500, seed: int = 0, exp_max: int = 8) -> dict:
    """det <= 2^k tr <= product bound, for every sampled word."""

    def check(w: Word) -> bool:
        witness = bounds_check(w)
        return witness.lhs_ok and witness.rhs_ok

    return _sample_suite("bounds", check, k, samples, seed, exp_max)


def suite_freeness(k: int = 2, M: int = 3) -> dict:
    """Box enumeration has the closed-form size and injects into matrices."""
    total = sum(lambda_count(j, M) for j in range(1, k + 1))
    # first, so a box over the freeness budget is refused before it is enumerated
    free = freeness_check(k, M)
    failures = 0
    witness = None
    enumerated = sum(1 for _ in enumerate_lambda(k, M))
    if enumerated != lambda_count(k, M):
        failures += 1
        witness = {"enumerated": enumerated, "closed_form": lambda_count(k, M)}
    if not free:
        failures += 1
        if witness is None:
            witness = {"collision": f"duplicate matrix in boxes up to (k={k}, M={M})"}
    return _report("freeness", total, failures, witness, k=k, M=M)


def suite_prefilter(k: int = 2, samples: int = 1000, seed: int = 0, exp_max: int | None = None) -> dict:
    """Every word the threshold certificate excludes truly has no integer eigenvalues."""
    cert = compute_nk(k)
    hi = exp_max if exp_max is not None else cert.n + 17
    rng = random.Random(seed)
    failures = 0
    witness = None
    excluded = 0
    for _ in range(samples):
        betas = tuple(rng.randint(cert.n + 1, hi) for _ in range(k))
        alphas = tuple(rng.randint(cert.n + 1, hi) for _ in range(k))
        w = Word(betas, alphas)
        if not prefilter_excludes(w, cert):
            continue
        excluded += 1
        eig = integer_eigenvalues(word_eval(w))
        if eig is not None:
            failures += 1
            if witness is None:
                witness = {"word": format_word_compact(w), "eigenvalues": list(eig)}
    return _report(
        "prefilter", samples, failures, witness, k=k, seed=seed, n=cert.n, excluded=excluded
    )


def suite_fixedpoint(samples: int = 1000, seed: int = 0, entry_bound: int = 20) -> dict:
    """Eigenvalue/fixed-point correspondence on random integer matrices.

    For c != 0 and det != 0 (the map is then a genuine Mobius transformation):
    integer eigenvalues exist iff rational fixed points do.  For c = 0 the
    eigenvalues are the diagonal and the solver follows the a/d trichotomy.
    """
    rng = random.Random(seed)
    failures = 0
    witness = None
    checks = 0

    def fail(m: Mat2, why: str) -> None:
        nonlocal failures, witness
        failures += 1
        if witness is None:
            witness = {"matrix": list(m.entries()), "why": why}

    for _ in range(samples):
        while True:
            m = Mat2(*(rng.randint(-entry_bound, entry_bound) for _ in range(4)))
            if m.c != 0 and m.det() != 0:
                break
        checks += 1
        eig = integer_eigenvalues(m)
        fp = rational_fixed_points(m)
        if (eig is not None) != (fp.kind is FixedPointKind.POINTS):
            fail(m, f"eigenvalues {eig} vs fixed points {fp.kind.value}")

        # companion c = 0 draw, exercising all three trichotomy branches
        a = rng.randint(-entry_bound, entry_bound)
        d = rng.randint(-entry_bound, entry_bound) or 1
        branch = rng.randrange(3)
        if branch == 0:
            b = rng.randint(-entry_bound, entry_bound)
            if a == d:
                a = d + 1
        elif branch == 1:
            a = d
            b = rng.randint(1, entry_bound)
        else:
            a = d
            b = 0
        m0 = Mat2(a, b, 0, d)
        checks += 1
        eig0 = integer_eigenvalues(m0)
        if eig0 is None or {eig0.lam, eig0.mu} != {a, d}:
            fail(m0, f"c=0 eigenvalues {eig0} not the diagonal")
            continue
        fp0 = rational_fixed_points(m0)
        if a != d:
            ok = fp0.kind is FixedPointKind.POINTS and len(fp0.points) == 1
        elif b != 0:
            ok = fp0.kind is FixedPointKind.NONE
        else:
            ok = fp0.kind is FixedPointKind.ALL
        if not ok:
            fail(m0, f"c=0 trichotomy gave {fp0.kind.value} for a={a}, d={d}, b={b}")

    return _report(
        "fixedpoint", checks, failures, witness, seed=seed, entry_bound=entry_bound
    )


SUITES = {
    "trace": suite_trace,
    "entries": suite_entries,
    "bounds": suite_bounds,
    "freeness": suite_freeness,
    "prefilter": suite_prefilter,
    "fixedpoint": suite_fixedpoint,
}
