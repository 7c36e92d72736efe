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
    FunctionalConfig,
    functional_statistic,
    integral_riemann,
    limit_law,
    log_product_statistic,
    product_statistic,
    qi_log,
)
from .norming import (
    karamata_partial_sum,
    mean_abs_deviation,
    norming_for,
    norming_sequence,
    tail_dispersion,
)
from .paths import (
    DoaSpec,
    SamplePath,
    degenerate,
    exact_stable,
    exponential,
    pareto,
    partial_sum_process,
    sample_doa,
    simulate_levy_path,
    two_sided_pareto,
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
    "DomainError",
    "DoaSpec",
    "FunctionSpec",
    "FunctionalConfig",
    "QuadratureError",
    "SamplePath",
    "StableParams",
    "VerificationReport",
    "cdf",
    "char_fn",
    "degenerate",
    "ecdf",
    "empirical_char_fn",
    "exact_stable",
    "exponential",
    "functional_statistic",
    "integral_riemann",
    "karamata_partial_sum",
    "ks_one_sample",
    "ks_two_sample",
    "limit_constant",
    "limit_law",
    "log_product_statistic",
    "mean_abs_deviation",
    "norming_for",
    "norming_sequence",
    "pareto",
    "partial_sum_process",
    "product_statistic",
    "qi_log",
    "sample",
    "sample_doa",
    "scale_shift",
    "simulate_levy_path",
    "stream",
    "tail_dispersion",
    "two_sided_pareto",
    "verify_fclt",
    "verify_lemma",
    "verify_product",
    "verify_remark",
    "verify_sampler",
]
