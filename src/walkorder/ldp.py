"""Large-deviation quantities: log-MGF, rate function, relative decay rates.

The rate function is the Legendre-Fenchel transform of the log-MGF over the
dual cone.  In one dimension its structure is exact: +inf above the support
maximum, 0 at or below the mean, -log(weight at the maximum) at the maximum,
and otherwise the unique tilt solving tilted-mean(t) = c, found by bisection
on the strictly increasing tilted mean.  In higher dimensions a multi-start
projected gradient ascent over conic combinations of the dual rays is used
and results are flagged as grid-refined.

The relative decay rate has two sides: the right-hand side is a supremum of
log-MGF ratios over the dual cone; the left-hand side reads closed-upset
masses off the exact n-fold convolutions X^n and Y^n, with the eps shift
applied to the query as t - n*eps*unit.  In one dimension the upset sweep is
exhaustive (hence exact); in higher dimensions it is restricted to principal
upsets and is a certified lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul, sub
from typing import Optional, Sequence

import numpy as np

from .cones import Cone, Direction, is_upward_1d, require_same_dim, require_walk_pair
from .measure import (
    DEFAULT_ATOM_CAP,
    Measure,
    as_point,
    convolve_power,
    project,
    require_probability,
)
from .rational import as_rat, log_rat, rat
from .spectrum import _golden_min, _log_mgf_pair, _Projected
from .stochorder import principal_upset_masses, tail_mass, upset_mass

EXACT_LIMIT = "exact-limit"
GRID_REFINED = "grid-refined"


#: Width of the tilt bracket at which the 1-D rate bisection stops.
BISECT_TOL = 1e-12
#: Bound on the tilt doublings and bisection steps in 1-D, and on the ascent
#: steps from each start in higher dimensions.
MAX_ITER = 200


@dataclass
class RateOptions:
    """Settings of the rate sweeps: ``grid_points`` tan(theta) points per ray
    in ``relative_rate_rhs``; ``n_samples`` and ``seed`` pick the sampled dual
    directions.  The stopping rules are the constants ``spectrum.REFINE_TOL``,
    ``BISECT_TOL`` and ``MAX_ITER``."""

    grid_points: int = 513
    n_samples: int = 32
    seed: int = 0


@dataclass
class RateResult:
    value: float  # may be +inf
    maximizer: Optional[tuple]  # (Direction, radial float) when attained
    certified: str  # exact-limit | grid-refined | lower-bound


def log_mgf(mu: Measure, t: Sequence) -> float:
    """log E[exp(<t, X>)] for a probability measure: the stabilised log-MGF at
    r = 1 of the float view ``spectrum._Projected`` of ``mu`` along ``t``."""
    require_probability(mu, "measure")
    return _Projected.of(mu, t).log_mgf(1.0)


def rate_function(
    mu: Measure, c: Sequence, cone: Cone, opts: RateOptions | None = None
) -> RateResult:
    """Legendre-Fenchel transform sup_{t in dual cone} <t,c> - log E[e^{<t,X>}]."""
    opts = opts or RateOptions()
    require_probability(mu, "measure")
    require_same_dim(cone, mu.dim)
    cp = as_point(c, mu.dim)
    if mu.dim == 1:
        direction = cone.dual_directions(0)[0]
        return _rate_1d(mu, cp, direction, opts)
    return _rate_multid(mu, cp, cone, opts)


def _rate_1d(mu: Measure, c, direction: Direction, opts: RateOptions) -> RateResult:
    tilt = _Projected.of(mu, direction.t)
    c_r = sum(tc * cc for tc, cc in zip(direction.t, c))
    if c_r > tilt.max:
        return RateResult(math.inf, None, EXACT_LIMIT)
    if c_r <= tilt.mean:
        return RateResult(0.0, (direction, 0.0), EXACT_LIMIT)
    if c_r == tilt.max:
        return RateResult(-log_rat(tilt.w_max), (direction, math.inf), EXACT_LIMIT)
    cf = float(c_r)
    # c_r < tilt.max exactly, but cf may round to float(tilt.max), where the float
    # tilted mean saturates: stop doubling there, and bound both loops.
    zf = float(tilt.max)
    hi = 1.0
    for _ in range(MAX_ITER):
        m = tilt.tilted_mean(hi)
        if m > cf or m >= zf:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = (lo + hi) / 2
        if tilt.tilted_mean(mid) < cf:
            lo = mid
        else:
            hi = mid
    r = (lo + hi) / 2
    # 0 <= I(c) <= -log w_max on [mean, max]; rounding may step outside
    value = min(max(r * cf - tilt.log_mgf(r), 0.0), -log_rat(tilt.w_max))
    return RateResult(value, (direction, r), GRID_REFINED)


def _log_sum_exp(a: np.ndarray, w: np.ndarray) -> float:
    """Stabilised log(sum_i w_i exp(a_i)): the log-MGF of weights w at exponents a."""
    m = a.max()
    return float(m + math.log(float(np.dot(w, np.exp(a - m)))))


def _rate_multid(mu: Measure, c, cone: Cone, opts: RateOptions) -> RateResult:
    directions = cone.dual_directions(opts.n_samples, opts.seed)
    # exact divergence test along each sampled ray
    for d in directions:
        s, keys, _, _ = project(mu, d.t)._int_view()
        cm = sum(tc * cc for tc, cc in zip(d.t, c))
        if cm > rat(keys[-1][0], s):
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)

    rays = [np.array([float(x) for x in d.t]) for d in directions]
    cols = np.array(rays).T.tolist()
    cf = np.array([float(x) for x in c])
    # the view's floats by int true division: float of each rational, in point order
    s, coords, dw, weights = mu._int_view()
    zs = np.array([[v / s for v in x] for x in coords])
    ws = np.array([w / dw for w in weights])

    def objective(t: np.ndarray) -> float:
        return float(t @ cf - _log_sum_exp(zs @ t, ws))

    def tilted_mean_vec(t: np.ndarray) -> np.ndarray:
        a = zs @ t
        m = a.max()
        e = ws * np.exp(a - m)
        return (e[:, None] * zs).sum(axis=0) / e.sum()

    best_val = 0.0
    best_t = None
    starts = [np.eye(len(rays))[i] for i in range(len(rays))]
    starts.append(np.full(len(rays), 1.0 / len(rays)))
    for lam0 in starts:
        lam = lam0.copy()
        t = _conic_combination(lam, cols)
        val = objective(t)
        step = 1.0
        for _ in range(MAX_ITER):
            grad_t = cf - tilted_mean_vec(t)
            # per-ray dots: R @ grad_t and Python-float sums round 16-25% of entries differently
            grad_lam = np.array([r @ grad_t for r in rays])
            improved = False
            while step > 1e-18:
                lam_new = np.maximum(lam + step * grad_lam, 0.0)
                t_new = _conic_combination(lam_new, cols)
                val_new = objective(t_new)
                if val_new > val + 1e-15:
                    lam, t, val = lam_new, t_new, val_new
                    improved = True
                    step *= 1.3
                    break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_val = val
            best_t = t
    if best_t is None or best_val <= 0.0:
        return RateResult(0.0, None, GRID_REFINED)
    radial = float(best_t @ np.array([float(u) for u in cone.unit]))
    direction = _nearest_direction(best_t / radial, directions)
    return RateResult(best_val, (direction, radial), GRID_REFINED)


def _conic_combination(lam: np.ndarray, cols: list) -> np.ndarray:
    """``sum(l * r for l, r in zip(lam, rays))`` one coordinate at a time on
    Python floats, where ``cols[i]`` lists coordinate i of every ray: the
    same multiplies and adds in the same order from int 0, so the same
    floats, without a numpy temporary per ray.  ``reduce`` rather than
    ``sum``, which compensates float sums from Python 3.12 on."""
    lam = lam.tolist()
    return np.array([reduce(add, map(mul, lam, col), 0) for col in cols])


def _nearest_direction(t_unit: np.ndarray, directions: list) -> Direction:
    best = min(
        directions,
        key=lambda d: float(
            sum((float(a) - b) ** 2 for a, b in zip(d.t, t_unit))
        ),
    )
    return best


def relative_rate_rhs(
    X: Measure, Y: Measure, cone: Cone, opts: RateOptions | None = None
) -> RateResult:
    """sup over the dual cone of log E[e^{<t,X>}] - log E[e^{<t,Y>}].

    Along each sampled direction the radial profile g(r) is swept on a dense
    tan grid with golden-section refinement of local maxima; r = 0
    contributes 0, and the r -> inf limit is handled exactly: +inf when the
    support maximum of the X projection exceeds that of Y, and the exact
    log-ratio of the weights at tied maxima otherwise.
    """
    opts = opts or RateOptions()
    require_walk_pair(X, Y, cone)

    best_val = 0.0
    best: Optional[tuple] = None
    for d in cone.dual_directions(opts.n_samples, opts.seed):
        px = _Projected.of(X, d.t)
        py = _Projected.of(Y, d.t)
        if px.max > py.max:
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)
        if px.max == py.max:
            limit = log_rat(px.w_max / py.w_max)
            if limit > best_val:
                best_val, best = limit, (d, math.inf)

        pair = _log_mgf_pair(px, py)

        def g(theta: float) -> float:
            r = math.tan(theta)
            if r == 0.0:
                return 0.0  # both measures are normalized
            a, b = pair(r)
            return a - b

        thetas = np.linspace(0.0, math.pi / 2, opts.grid_points + 1)[:-1].tolist()
        rs = [math.tan(th) for th in thetas]
        vals = [
            0.0 if r == 0.0 else a - b
            for r, a, b in zip(rs, px.log_mgf_many(rs), py.log_mgf_many(rs))
        ]
        for idx in range(len(thetas)):
            v = vals[idx]
            left = vals[idx - 1] if idx > 0 else -math.inf
            right = vals[idx + 1] if idx + 1 < len(thetas) else -math.inf
            if v >= left and v >= right:
                lo = thetas[max(idx - 1, 0)]
                hi = thetas[min(idx + 1, len(thetas) - 1)]
                if lo < hi:
                    theta_star, neg = _golden_min(lambda th: -g(th), lo, hi)
                    if -neg > best_val:
                        best_val, best = -neg, (d, math.tan(theta_star))
            if v > best_val:
                best_val, best = v, (d, rs[idx])
    return RateResult(best_val, best, GRID_REFINED)


def relative_rate_curve(
    X: Measure, Y: Measure, cone: Cone, opts: RateOptions | None = None
) -> list:
    """Sampled radial profile rows (ray index, theta, r, g(r)) for CSV export.

    The grid is fixed at 256 points per ray, ``theta = (pi/2) k / 257`` for
    k = 1..256, whatever ``opts.grid_points`` says; the rows are written to
    the ``rel-rate`` curve CSV.
    """
    opts = opts or RateOptions()
    require_walk_pair(X, Y, cone)
    thetas = [(math.pi / 2) * k / 257 for k in range(1, 257)]
    rs = [math.tan(theta) for theta in thetas]
    rows = []
    for ray_idx, d in enumerate(cone.dual_directions(opts.n_samples, opts.seed)):
        px = _Projected.of(X, d.t)
        py = _Projected.of(Y, d.t)
        rows += (
            (ray_idx, theta, r, a - b)
            for theta, r, a, b in zip(thetas, rs, px.log_mgf_many(rs), py.log_mgf_many(rs))
        )
    return rows


def relative_rate_lhs(
    X: Measure,
    Y: Measure,
    cone: Cone,
    n: int,
    eps,
    cap: int = DEFAULT_ATOM_CAP,
) -> float:
    """Finite-n left-hand side of the relative decay formula.

        sup_C (1/n) log [ P(X-walk mean in C) / P(Y-walk mean + eps*unit in C) ]

    with C over closed tails at all support thresholds in one dimension
    (exhaustive, hence exact) or principal upsets generated by support points
    plus the whole space in higher dimensions (a certified lower bound).
    A zero denominator with positive numerator gives +inf; 0/0 contributes
    nothing.

    The masses are read off the exact powers X^n and Y^n: the mean is in C
    iff the sum is in nC, and the shift is a query at ``t - n*eps*unit``.
    In one dimension the closed upsets follow the cone: upper tails on
    [0, inf), lower tails on (-inf, 0], which x -> -x mirrors onto upper
    tails of the half-line with unit ``-unit``.  The N thresholds are then
    answered by ``tail_mass`` from each power's tail index, so the table
    costs O(N log N) per n on top of the two convolution powers.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    e = as_rat(eps)
    if e <= 0:
        raise ValueError("eps must be positive")
    require_walk_pair(X, Y, cone)

    unit = cone.unit
    if X.dim == 1 and not is_upward_1d(cone):
        X, Y, unit = project(X, (-1,)), project(Y, (-1,)), (-unit[0],)
    num, den = convolve_power(X, n, cap), convolve_power(Y, n, cap)
    lift = tuple(n * e * uc for uc in unit)
    if X.dim == 1:
        (up,) = lift
        thresholds = {x for (x,) in num.atoms} | {y + up for (y,) in den.atoms}
        pairs = ((tail_mass(num, t), tail_mass(den, t - up)) for t in thresholds)
    else:
        gens = list(set(num.atoms) | {tuple(map(add, y, lift)) for y in den.atoms})
        pairs = list(zip(
            principal_upset_masses(num, cone, gens),
            principal_upset_masses(den, cone, [tuple(map(sub, g, lift)) for g in gens]),
        ))
        pairs.append((num.mass(), den.mass()))  # the whole space is a closed upset
    best = -math.inf
    for num_mass, den_mass in pairs:
        if num_mass == 0:
            continue
        if den_mass == 0:
            return math.inf
        val = (log_rat(num_mass) - log_rat(den_mass)) / n
        if val > best:
            best = val
    return best


def cramer_empirical(mu: Measure, c: Sequence, cone: Cone, n: int, cap: int = DEFAULT_ATOM_CAP) -> float:
    """(1/n) log P(X_1 + ... + X_n >= n*c), exact mass then float; -inf if empty."""
    if n < 1:
        raise ValueError("n must be at least 1")
    require_probability(mu, "measure")
    require_same_dim(cone, mu.dim)
    cp = as_point(c, mu.dim)
    power = convolve_power(mu, n, cap)
    mass = upset_mass(power, cone, [tuple(rat(n) * cc for cc in cp)])
    if mass == 0:
        return -math.inf
    return log_rat(mass) / n
