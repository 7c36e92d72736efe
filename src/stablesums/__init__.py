"""Stable laws, stable-limit partial sums, and simulation-based checks.

The package simulates iid sequences whose normalized partial sums converge
to an alpha-stable law, evaluates path functionals of those sums, and ships
verification campaigns that test each limit claim against large simulations.
Laws carry a dispersion parameter (the coefficient of ``|t|**alpha`` in the
characteristic exponent), so ``alpha=2`` reduces to a normal law with
variance equal to the dispersion.
"""

from .functionals import (
    DomainError,
    FunctionSpec,
    functional_statistic,
    integral_riemann,
    limit_law,
    log_product_statistic,
    product_statistic,
    qi_log,
)
from .paths import (
    Degenerate,
    DoaSpec,
    ExactStable,
    Exponential,
    Pareto,
    SamplePath,
    TwoSidedPareto,
    karamata_partial_sum,
    mean_abs_deviation,
    norming_sequence,
    partial_sum_process,
    sample_doa,
    simulate_levy_path,
    tail_dispersion,
)
from .rng import stream
from .stable import (
    QuadratureError,
    StableParams,
    cdf,
    char_fn,
    limit_constant,
    sample,
    scale_shift,
)
from .verification import (
    VerificationReport,
    ecdf,
    empirical_char_fn,
    ks_one_sample,
    ks_two_sample,
    verify_fclt,
    verify_lemma,
    verify_product,
    verify_remark,
    verify_sampler,
)

__version__ = "0.1.0"

__all__ = [
    "Degenerate",
    "DomainError",
    "DoaSpec",
    "ExactStable",
    "Exponential",
    "FunctionSpec",
    "Pareto",
    "QuadratureError",
    "SamplePath",
    "StableParams",
    "TwoSidedPareto",
    "VerificationReport",
    "cdf",
    "char_fn",
    "ecdf",
    "empirical_char_fn",
    "functional_statistic",
    "integral_riemann",
    "karamata_partial_sum",
    "ks_one_sample",
    "ks_two_sample",
    "limit_constant",
    "limit_law",
    "log_product_statistic",
    "mean_abs_deviation",
    "norming_sequence",
    "partial_sum_process",
    "product_statistic",
    "qi_log",
    "sample",
    "sample_doa",
    "scale_shift",
    "simulate_levy_path",
    "stream",
    "tail_dispersion",
    "verify_fclt",
    "verify_lemma",
    "verify_product",
    "verify_remark",
    "verify_sampler",
]
