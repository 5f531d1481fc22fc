"""Exact-arithmetic stochastic dominance and large-deviation rates.

Decides asymptotic and catalytic stochastic dominance between random walks
with finitely supported steps on R^d ordered by a polyhedral cone, and
computes the associated rate function and relative decay rates.
"""

__version__ = "0.1.0"

from .cones import Cone, Direction
from .dominance import Catalyst, MinNResult, catalyst_1d, growth_exponent, min_n
from .errors import AtomBudgetExceeded, DimensionMismatch, MassMismatch
from .ldp import (
    RateOptions,
    RateResult,
    cramer_empirical,
    log_mgf,
    rate_function,
    relative_rate_lhs,
    relative_rate_rhs,
)
from .measure import (
    DEFAULT_ATOM_CAP,
    Measure,
    coarsen,
    convolve,
    convolve_power,
    delta,
    mix,
    project,
    shift,
)
from .rational import BACKEND, as_rat, rat
from .spectrum import (
    RayComparison,
    SpectralReport,
    SpectrumOptions,
    SpectrumPoint,
    compare_on_ray,
    lev,
    spectral_verdict,
)
from .stochorder import CouplingPlan, OrderVerdict, leq_st, upset_mass

__all__ = [
    "AtomBudgetExceeded",
    "BACKEND",
    "Catalyst",
    "Cone",
    "CouplingPlan",
    "DEFAULT_ATOM_CAP",
    "DimensionMismatch",
    "Direction",
    "MassMismatch",
    "Measure",
    "MinNResult",
    "OrderVerdict",
    "RateOptions",
    "RateResult",
    "RayComparison",
    "SpectralReport",
    "SpectrumOptions",
    "SpectrumPoint",
    "as_rat",
    "catalyst_1d",
    "coarsen",
    "compare_on_ray",
    "convolve",
    "convolve_power",
    "cramer_empirical",
    "delta",
    "growth_exponent",
    "leq_st",
    "lev",
    "log_mgf",
    "min_n",
    "mix",
    "project",
    "rat",
    "rate_function",
    "relative_rate_lhs",
    "relative_rate_rhs",
    "shift",
    "spectral_verdict",
    "upset_mass",
]
