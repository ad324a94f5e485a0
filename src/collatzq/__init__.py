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
from . import core, dynamics, census, spectral, words  # noqa: F401  (load the library at import)
