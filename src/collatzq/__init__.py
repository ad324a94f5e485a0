"""Exact rational Collatz-like dynamics and 2x2 matrix-word censuses.

Everything is exact: reduced rationals, arbitrary-precision integers, and
integer square roots; no floating point anywhere.  Sweep hot loops run on
int64 numpy kernels: theta rows that could overflow are redone in big-int
arithmetic, and phi takes one Euclid division per continued-fraction run,
so the fast path never changes results.  Orbit words and SL2 factorizations
are run lists of branch exponents (`theta_runs`, `phi_runs`, `sl2_factor`),
rendered as letters only for output.
"""

from ._version import VERSION as __version__
from .core import (
    EigenPair,
    FixedPointKind,
    FixedPointResult,
    Mat2,
    integer_eigenvalues,
    is_perfect_square,
    mat_pow,
    rational_fixed_points,
)
from .dynamics import (
    OrbitRecord,
    PhiSweepReport,
    SweepReport,
    complete_to_sl2,
    mobius_apply,
    orbit,
    phi_monotonicity_sweep,
    reduced_fractions,
    sl2_factor,
    theta_sweep_full,
    verify_word_recovery,
)
from .census import (
    DensityRow,
    OmegaMember,
    SearchResult,
    census,
    census_sampled,
    density_sweep,
    load_checkpoint,
    save_checkpoint,
    search_counterexamples,
    theorem_density_bound,
)
from .spectral import (
    BoundsWitness,
    NkCertificate,
    SubsetPair,
    UQuadruple,
    bounds_check,
    compute_nk,
    entries_from_u,
    nk_conditions,
    nk_product_value,
    prefilter_excludes,
    sigma_sign,
    sigma_term,
    trace_fast,
    trace_subsetpair,
    u_quantities,
)
from .words import (
    DEFAULT_GENERATORS,
    GeneratorPair,
    Word,
    enumerate_lambda,
    enumerate_lambda_block,
    format_word_compact,
    freeness_check,
    lambda_count,
    r_power,
    s_power,
    word_det,
    word_eval,
    word_eval_general,
)

__all__ = [name for name in dir() if not name.startswith("_")]
