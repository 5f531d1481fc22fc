"""Asymptotic and catalytic dominance engines.

min_n certifies a stability window: the walk sums X_1+...+X_n must be
dominated for every n from the reported n0 up to n_max, since a single
success at one n is not an asymptotic statement.  catalyst_1d searches for an
auxiliary independent Z on a fixed support grid by exact linear feasibility
over the tail constraints of X+Z vs Y+Z, then re-verifies the winner
exactly.  growth_exponent finds the smallest k with nu <= delta_{k*unit} * mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Cone
from .errors import DimensionMismatch
from .measure import DEFAULT_ATOM_CAP, Measure, convolve, convolve_power, require_probability, shift
from .rational import Rational, ZERO, as_rat, rat
from .solvers import LinearFeasibility, lp_feasible
from .stochorder import leq_st, tail_mass


@dataclass(frozen=True)
class MinNResult:
    found: bool
    n0: Optional[int]
    stable_through: int  # largest n checked
    failures: list  # (n, upset generator points) for every failing n


@dataclass(frozen=True)
class Catalyst:
    Z: Measure
    grid_step: Rational
    verified: bool


def min_n(
    X: Measure,
    Y: Measure,
    cone: Cone,
    n_max: int = 64,
    cap: int = DEFAULT_ATOM_CAP,
) -> MinNResult:
    """Smallest n0 such that X^{*n} <= Y^{*n} for every n in [n0, n_max].

    Each power is computed independently by repeated squaring and compared
    with ``leq_st``, which takes its 1-D tail sweep for 1-D walks.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    require_probability(X, "X")
    require_probability(Y, "Y")
    results = [
        (n, leq_st(convolve_power(X, n, cap), convolve_power(Y, n, cap), cone))
        for n in range(1, n_max + 1)
    ]
    failures = [(n, v.witness_upset) for n, v in results if not v.dominated]
    if failures and failures[-1][0] == n_max:
        return MinNResult(found=False, n0=None, stable_through=n_max, failures=failures)
    last_fail = failures[-1][0] if failures else 0
    return MinNResult(found=True, n0=last_fail + 1, stable_through=n_max, failures=failures)


def catalyst_1d(X: Measure, Y: Measure, grid: Sequence) -> Optional[Catalyst]:
    """Search for a catalyst Z supported on the given 1-D grid.

    Feasibility is linear in the weights z_j >= 0 with sum 1: for every
    threshold c in (supp X union supp Y) + grid, the closed-tail constraint

        sum_j z_j * (tail_X(c - g_j) - tail_Y(c - g_j)) <= 0

    states X*Z <= Y*Z at c.  These thresholds are all the points where either
    tail can change, so the constraint set is exhaustive.  A feasible weight
    vector is re-verified with ``leq_st`` on the half-line before it is
    returned; None means no catalyst exists on this grid (a grid-relative
    statement, not a refutation).
    """
    if X.dim != 1 or Y.dim != 1:
        raise DimensionMismatch("catalyst_1d requires 1-D measures")
    require_probability(X, "X")
    require_probability(Y, "Y")
    grid_pts = sorted({as_rat(g) for g in grid})
    if not grid_pts:
        raise ValueError("catalyst grid must be nonempty")

    support = sorted({x[0] for x in X.atoms} | {y[0] for y in Y.atoms})
    thresholds = sorted({s + g for s in support for g in grid_pts})
    ineq_rows = []
    for c in thresholds:
        row = [tail_mass(X, c - g) - tail_mass(Y, c - g) for g in grid_pts]
        ineq_rows.append((row, ZERO))
    eq_rows = [([rat(1)] * len(grid_pts), rat(1))]
    solution = lp_feasible(LinearFeasibility.build(len(grid_pts), ineq_rows, eq_rows))
    if solution is None:
        return None
    Z = Measure(1, {(g,): w for g, w in zip(grid_pts, solution) if w > 0})
    verified = leq_st(convolve(X, Z), convolve(Y, Z), Cone.halfline()).dominated
    return Catalyst(Z=Z, grid_step=_grid_step(grid_pts), verified=verified)


def default_catalyst_grid(X: Measure, Y: Measure, step=None) -> list:
    """Arithmetic grid from 0 spanning four times the joint support range.

    The default step is the coarsest lattice step of the joint support.
    """
    support = sorted({x[0] for x in X.atoms} | {y[0] for y in Y.atoms})
    step = as_rat(step) if step is not None else _lattice_step(support)
    if step <= 0:
        raise ValueError("grid step must be positive")
    span = (support[-1] - support[0]) * 4
    count = max(int(span // step), 1)
    return [step * k for k in range(count + 1)]


def _lattice_step(values: Sequence) -> Rational:
    step = ZERO
    base = values[0]
    for v in values[1:]:
        step = _rat_gcd(step, v - base)
    return step if step > 0 else rat(1)


def _rat_gcd(a, b) -> Rational:
    from math import gcd

    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    num = gcd(int(a.numerator), int(b.numerator))
    den = int(a.denominator) * int(b.denominator) // gcd(int(a.denominator), int(b.denominator))
    return rat(num, den)


def _grid_step(grid_pts: list) -> Rational:
    if len(grid_pts) < 2:
        return ZERO
    return _lattice_step(grid_pts)


def growth_exponent(mu: Measure, nu: Measure, cone: Cone) -> int:
    """Smallest k >= 0 with nu <= delta_{k*unit} * mu (power universality).

    Existence is guaranteed with k at most twice the bounding constant of the
    joint support, which is used as a hard stop.
    """
    require_probability(mu, "mu")
    require_probability(nu, "nu")
    bound = 2 * cone.bounding_k(list(mu.atoms) + list(nu.atoms))
    for k in range(bound + 1):
        shifted = shift(mu, tuple(rat(k) * uc for uc in cone.unit))
        if leq_st(nu, shifted, cone).dominated:
            return k
    raise RuntimeError(
        "no growth exponent found within the guaranteed bound; cone data is inconsistent"
    )
