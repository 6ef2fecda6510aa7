"""Gould-Hopper polynomial kernel with exact and Monte Carlo sum-rule checks.

The library evaluates the gap-2 polynomial family g_m(x, p) over two
arithmetic modes (exact Gaussian rationals and complex doubles), verifies
its algebraic sum rules with zero residual in exact mode, and tests the
associated stochastic representations by seeded moment matching.
"""

__version__ = "0.5.1"

import importlib
from types import ModuleType as _ModuleType

from .scalars import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    NotExactlyRepresentableError,
    Scalar,
    exact,
    exact_sqrt,
    flt,
    format_scalar,
    lift,
    magnitude,
    one,
    parse_scalar,
    to_float,
    zero,
)
from .multiindex import (
    MultiIndex,
    compositions,
    mi_factorial,
    mi_length,
    multinomial,
    pochhammer,
)
from .ghpoly import (
    gaussian_moment,
    gh_eval,
    gh_eval_recurrence,
    gh_moment_oracle,
    gh_multi_eval,
    hermite_eval,
)
from .identities import (
    EXACT_PASS,
    FAIL,
    WITHIN_TOLERANCE,
    IdentityReport,
    Matrix,
    PolarizationPair,
    Vector,
    coeff_C,
    complex_givens,
    dot,
    factorization_sumrule,
    graczyk_identity,
    graczyk_lhs,
    graczyk_rhs,
    inner_product_moment_identity,
    mat_identity,
    mat_mul,
    mat_transpose,
    matrix_moment_identity,
    matrix_polarization,
    norm_sq,
    orthogonality_check,
    polarization_pair,
    relative_residual,
    rotation_sumrule,
)
from .sweeps import (
    exact_pair_pool,
    default_cs_pairs,
    default_rotations,
    factorization_sweep,
    graczyk_sweep,
    grid_description,
    inner_product_moment_sweep,
    matrix_moment_sweep,
    rotation_sweep,
)

# The Monte Carlo engine needs numpy, which the exact checks never use, so
# its names are loaded on first access (PEP 562).
_SAMPLING_NAMES = frozenset(
    {
        "MomentVerdict",
        "RngStream",
        "SampleStats",
        "chi_even_moment",
        "chi_merge_samples",
        "collect_stats",
        "inner_product_lhs_samples",
        "inner_product_rhs_samples",
        "ks_two_sample",
        "matrix_trace_rhs_samples",
        "matrix_trace_samples",
        "moment_match",
        "moment_match_exact",
        "sample_chi",
        "sample_gaussian",
    }
)


def __getattr__(name: str) -> object:
    if name in _SAMPLING_NAMES:
        return getattr(importlib.import_module(".sampling", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public surface: what the import blocks above bind, and the lazy names.
__all__ = sorted(
    {k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType)}
    | _SAMPLING_NAMES
)
