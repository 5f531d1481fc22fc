"""Asymptotic and catalytic dominance engines.

min_n certifies a stability window: the walk sums X_1+...+X_n must be
dominated for every n from the reported n0 up to n_max, since a single
success at one n is not an asymptotic statement.  min_n alone decides which
n it tries; each route is a stream that yields, for n = 1, 2, ..., the
witness upset of a failing n or None.  In 1-D its powers are int maps on
the integer normal keys of ``leq_st``, each grown from the last by one
multiply and decided by its int tail walk; only witnesses are decoded.  In
d >= 2, for a cone of at most two integer normals, each n is decided by a
greedy sweep on two int keys (Strassen 1965), and the max-flow of
``leq_st`` runs only at an n that fails, for its witness.  catalyst_1d
searches for an auxiliary independent Z on a fixed support grid by exact
linear feasibility over the tail constraints of X+Z vs Y+Z, then re-verifies
the winner exactly; pairs that no Z can order (X's min, mean or max above
Y's) are turned away before the LP.  growth_exponent finds the smallest k
with nu <= delta_{k*unit} * mu.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from .cones import Cone, require_walk_pair
from .errors import DimensionMismatch
from .measure import DEFAULT_ATOM_CAP, Measure, _convolve_packed, convolve, convolve_power, shift
from .rational import Rational, ZERO, as_rat, over_lcm, rat
from .solvers import LinearFeasibility, lp_feasible
from .stochorder import _checked_cut, _keyed_sweep, _over_one_lcm, _tail_walk, leq_st, tail_mass

#: Largest catalyst grid: the LP has about one row and one slack column per
#: grid point, so even its sparse tableau can grow as the square of the grid.
MAX_CATALYST_GRID = 1024


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

    This loop alone decides which n are tried.  Each route is a stream of
    per-n witnesses, None where X^n <= Y^n: ``_witnesses_1d`` grows 1-D
    powers by one multiply each, ``_witnesses_multid`` takes each power in
    d >= 2 from ``convolve_power``.  The range is zipped first, so no power
    past n_max is built, and ``AtomBudgetExceeded`` rises at the first n
    where the support of X^n, then of Y^n, exceeds ``cap``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    require_walk_pair(X, Y, cone)
    witnesses = (_witnesses_1d if X.dim == 1 else _witnesses_multid)(X, Y, cone, cap)
    failures = [(n, w) for n, w in zip(range(1, n_max + 1), witnesses) if w is not None]
    last_fail = failures[-1][0] if failures else 0
    found = last_fail < n_max
    return MinNResult(found, last_fail + 1 if found else None, n_max, failures)


def _witnesses_1d(X: Measure, Y: Measure, cone: Cone, cap: int) -> Iterator:
    """For n = 1, 2, ...: the witness upset at which 1-D X^n is not <= Y^n,
    or None.  X^n maps each int key of ``_over_one_lcm`` (the point over S
    times the cone's integer normal) to its int weight over D^n and is
    X^{n-1} times X's k atoms; supports grow with n, so the cap check raises
    at the n where repeated squaring would.  Each cut is checked on the keys
    (``stochorder._checked_cut``) before its witness is decoded."""
    point, _, sides = _over_one_lcm(X, Y, cone)
    sign = cone._int_normals[0][0]
    steps = [{k: w for (k,), w in zip(keys, weights)} for _, keys, weights in sides]
    powers = ({0: 1}, {0: 1})
    while True:
        powers = [_convolve_packed(step, power, cap) for step, power in zip(steps, powers)]
        xs, ys = (sorted(power.items(), reverse=True) for power in powers)
        cut = _tail_walk(xs, ys)
        yield sorted(point((sign * x,)) for x, _ in xs[: _checked_cut(xs, ys, cut)]) if cut else None


def _witnesses_multid(X: Measure, Y: Measure, cone: Cone, cap: int) -> Iterator:
    """For n = 1, 2, ...: the witness upset at which X^n is not <= Y^n, in
    d >= 2, or None.  Each power comes from ``convolve_power``, X^n then
    Y^n.  For a cone of at most two integer normals
    ``stochorder._keyed_sweep`` decides each n, and ``leq_st`` runs only
    where it leaves mass over, for its witness; the sweep is exact, so the
    witnesses are those of ``leq_st`` at every n.  Other cones take
    ``leq_st`` at every n."""
    sweep = len(cone._int_normals) <= 2
    for n in count(1):
        xn, yn = convolve_power(X, n, cap), convolve_power(Y, n, cap)
        dominated = sweep and _keyed_sweep(xn, yn, cone) is not None
        yield None if dominated else leq_st(xn, yn, cone).witness_upset


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

    Before any row is built, three exact obstructions are screened: if
    X*Z <= Y*Z for some finitely supported Z, then min X <= min Y,
    E X <= E Y and max X <= max Y, since min, mean and max all add under
    convolution.  If one fails, no grid holds a catalyst, and None is
    returned at once, as the LP would return it.

    A grid of more than ``MAX_CATALYST_GRID`` points raises ``ValueError``
    before the screen and before any row is built.  Rows are built on the
    int lattice of one common denominator, with one tail gap per distinct
    offset ``c - g``, an int over the lcm d of X's and Y's weight
    denominators; each row hands the LP only its nonzero gaps: the gap is 0
    unless min(supp) < c - g <= max(supp), so a row reads only the grid
    points in that window.
    """
    _require_1d_walks(X, Y)
    grid_pts = sorted({as_rat(g) for g in grid})
    if not grid_pts:
        raise ValueError("catalyst grid must be nonempty")
    _check_grid_size(len(grid_pts))
    if _endpoint_obstructed(X, Y):
        return None

    support = {x[0] for x in X.atoms} | {y[0] for y in Y.atoms}
    # thresholds and offsets on ints: scaling by den > 0 keeps their order
    den, ints = over_lcm([*grid_pts, *support])
    grid_int, support_int = ints[: len(grid_pts)], set(ints[len(grid_pts) :])
    thresholds = sorted({s + g for s in support_int for g in grid_int})
    # the tail gap is 0 at offsets t <= lo, where both tails are 1, and at
    # t > hi, where both are 0; row c reads the grid points in between
    lo, hi = min(support_int), max(support_int)
    d = lcm(X._int_view()[2], Y._int_view()[2])  # every tail mass is an int over d
    gaps: dict = {}  # offset (c - g) * den -> (tail_X - tail_Y) * d there
    ineq_rows = []
    for c in thresholds:
        row = {}
        for j in range(bisect_left(grid_int, c - hi), bisect_left(grid_int, c - lo)):
            t = c - grid_int[j]
            if t not in gaps:
                q = rat(t, den)
                gaps[t] = int((tail_mass(X, q) - tail_mass(Y, q)) * d)
            if gaps[t]:
                row[j] = gaps[t]
        ineq_rows.append((row, 0))
    eq_rows = [(dict.fromkeys(range(len(grid_pts)), 1), 1)]
    solution = lp_feasible(LinearFeasibility(len(grid_pts), ineq_rows, eq_rows))
    if solution is None:
        return None
    Z = Measure(1, {(g,): w for g, w in zip(grid_pts, solution) if w > 0})
    verified = leq_st(convolve(X, Z), convolve(Y, Z), Cone.halfline()).dominated
    return Catalyst(Z=Z, grid_step=_grid_step(grid_pts), verified=verified)


def _endpoint_obstructed(X: Measure, Y: Measure) -> bool:
    """True when min X > min Y, E X > E Y or max X > max Y: each rules out
    X*Z <= Y*Z for every finitely supported Z.  Read exactly off the sorted
    integer views, ``k / S`` against ``k' / S'`` as ``k S' > k' S`` and the
    means ``sum(k w) / (S D)`` likewise."""
    (sx, cx, dx, wx), (sy, cy, dy, wy) = X._int_view(), Y._int_view()
    mx, my = (sum(k * w for (k,), w in zip(c, ws)) for c, ws in ((cx, wx), (cy, wy)))
    return cx[0][0] * sy > cy[0][0] * sx or mx * sy * dy > my * sx * dx or cx[-1][0] * sy > cy[-1][0] * sx


def default_catalyst_grid(X: Measure, Y: Measure, step=None) -> list:
    """Arithmetic grid from 0 spanning four times the joint support range.

    The default step is the coarsest lattice step of the joint support.  A
    grid of more than ``MAX_CATALYST_GRID`` points raises ``ValueError``
    before any point is built, so a tiny step cannot exhaust memory.
    """
    _require_1d_walks(X, Y)
    support = sorted({x[0] for x in X.atoms} | {y[0] for y in Y.atoms})
    step = as_rat(step) if step is not None else _lattice_step(support)
    if step <= 0:
        raise ValueError("grid step must be positive")
    span = (support[-1] - support[0]) * 4
    count = max(int(span // step), 1)
    _check_grid_size(count + 1)
    return [step * k for k in range(count + 1)]


def _require_1d_walks(X: Measure, Y: Measure) -> None:
    if X.dim != 1 or Y.dim != 1:
        raise DimensionMismatch("catalyst_1d requires 1-D measures")
    require_walk_pair(X, Y)


def _check_grid_size(points: int) -> None:
    if points > MAX_CATALYST_GRID:
        raise ValueError(
            f"catalyst grid has {points} points, more than {MAX_CATALYST_GRID}; "
            "use a coarser --grid-step"
        )


def _lattice_step(values: Sequence) -> Rational:
    """The positive generator of the Z-module spanned by the offsets from
    ``values[0]``: one gcd of the offsets as ints over their common
    denominator; 1 when every value is the same."""
    den, ints = over_lcm(values)
    step = gcd(*(v - ints[0] for v in ints))
    return rat(step, den) if step > 0 else rat(1)


def _grid_step(grid_pts: list) -> Rational:
    if len(grid_pts) < 2:
        return ZERO
    return _lattice_step(grid_pts)


def growth_exponent(mu: Measure, nu: Measure, cone: Cone) -> int:
    """Smallest k >= 0 with nu <= delta_{k*unit} * mu (power universality).

    Existence is guaranteed with k at most twice the bounding constant of the
    joint support, which is used as a hard stop.  ``require_walk_pair``
    checks the pair first, with mu as X and nu as Y.
    """
    require_walk_pair(mu, nu, cone)
    bound = 2 * cone.bounding_k(list(mu.atoms) + list(nu.atoms))
    for k in range(bound + 1):
        shifted = shift(mu, tuple(rat(k) * uc for uc in cone.unit))
        if leq_st(nu, shifted, cone).dominated:
            return k
    raise RuntimeError(
        "no growth exponent found within the guaranteed bound; cone data is inconsistent"
    )
