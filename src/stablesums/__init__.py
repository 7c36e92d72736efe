"""Stable laws, stable-limit partial sums, and simulation-based checks.

The package simulates iid sequences whose normalized partial sums converge
to an alpha-stable law, evaluates path functionals of those sums, and ships
verification campaigns that test each limit claim against large simulations.
Laws carry a dispersion parameter (the coefficient of ``|t|**alpha`` in the
characteristic exponent), so ``alpha=2`` reduces to a normal law with
variance equal to the dispersion.  The package publishes the ``__all__`` of
``functionals``, ``paths``, ``stable`` and ``verification``, and ``stream``.
"""

from . import functionals, paths, stable, verification
from .functionals import *  # noqa: F401,F403
from .paths import *  # noqa: F401,F403
from .rng import stream
from .stable import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*functionals.__all__, *paths.__all__, *stable.__all__, *verification.__all__,
           "stream"]
