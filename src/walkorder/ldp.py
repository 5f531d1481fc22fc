"""Large-deviation quantities: log-MGF, rate function, relative decay rates.

The rate function is the Legendre-Fenchel transform of the log-MGF over the
dual cone.  In one dimension its structure is exact: +inf above the support
maximum, 0 at or below the mean, -log(weight at the maximum) at the maximum,
and otherwise the unique tilt solving tilted-mean(t) = c, found by bisection
on the strictly increasing tilted mean.  In higher dimensions a multi-start
projected gradient ascent over conic combinations of the dual rays is used
and results are flagged as grid-refined.

The relative decay rate has two sides: the right-hand side is a supremum of
log-MGF ratios over the dual cone; the left-hand side is computed from exact
n-fold convolutions with closed-upset masses.  In one dimension the upset
sweep is exhaustive (hence exact); in higher dimensions it is restricted to
principal upsets and is a certified lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cones import Cone, Direction, require_same_dim
from .measure import (
    DEFAULT_ATOM_CAP,
    Measure,
    as_point,
    convolve_power,
    project,
    require_equal_dims,
    require_probability,
    shift,
)
from .rational import as_rat, log_rat, rat
from .spectrum import _golden_min, _log_sum_exp, _Projected
from .stochorder import tail_mass, upset_mass

EXACT_LIMIT = "exact-limit"
GRID_REFINED = "grid-refined"
LOWER_BOUND = "lower-bound"


@dataclass
class RateOptions:
    grid_points: int = 513
    refine_tol: float = 1e-12
    bisect_tol: float = 1e-12
    n_samples: int = 32
    seed: int = 0
    max_iter: int = 200


@dataclass
class RateResult:
    value: float  # may be +inf
    maximizer: Optional[tuple]  # (Direction, radial float) when attained
    certified: str  # exact-limit | grid-refined | lower-bound


def log_mgf(mu: Measure, t: Sequence) -> float:
    """log E[exp(<t, X>)] for a probability measure, float with stabilization."""
    require_probability(mu, "measure")
    tv = as_point(t, mu.dim)
    exps = []
    ws = []
    for x, w in sorted(mu.atoms.items()):
        exps.append(float(sum(tc * xc for tc, xc in zip(tv, x))))
        ws.append(float(w))
    return _log_sum_exp(np.asarray(exps), np.asarray(ws))


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
    tilt = _Projected(project(mu, direction.t))
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
    for _ in range(opts.max_iter):
        m = tilt.tilted_mean(hi)
        if m > cf or m >= zf:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(opts.max_iter):
        if hi - lo <= opts.bisect_tol:
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


def _rate_multid(mu: Measure, c, cone: Cone, opts: RateOptions) -> RateResult:
    directions = cone.dual_directions(opts.n_samples, opts.seed)
    # exact divergence test along each sampled ray
    for d in directions:
        proj = project(mu, d.t)
        cm = sum(tc * cc for tc, cc in zip(d.t, c))
        if cm > max(x[0] for x in proj.atoms):
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)

    rays = [np.array([float(x) for x in d.t]) for d in directions]
    cf = np.array([float(x) for x in c])
    zs = np.array([[float(x) for x in pt] for pt in sorted(mu.atoms)])
    ws = np.array([float(w) for _, w in sorted(mu.atoms.items())])

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
        t = sum(l * r for l, r in zip(lam, rays))
        val = objective(t)
        step = 1.0
        for _ in range(opts.max_iter):
            grad_t = cf - tilted_mean_vec(t)
            grad_lam = np.array([r @ grad_t for r in rays])
            improved = False
            while step > 1e-18:
                lam_new = np.maximum(lam + step * grad_lam, 0.0)
                t_new = sum(l * r for l, r in zip(lam_new, rays))
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
    require_probability(X, "X")
    require_probability(Y, "Y")
    require_same_dim(cone, X.dim)
    require_equal_dims(X, Y)

    best_val = 0.0
    best: Optional[tuple] = None
    for d in cone.dual_directions(opts.n_samples, opts.seed):
        px = _Projected(project(X, d.t))
        py = _Projected(project(Y, d.t))
        if px.max > py.max:
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)
        if px.max == py.max:
            limit = log_rat(px.w_max / py.w_max)
            if limit > best_val:
                best_val, best = limit, (d, math.inf)

        def g(theta: float) -> float:
            r = math.tan(theta)
            if r == 0.0:
                return 0.0  # both measures are normalized
            return px.log_mgf(r) - py.log_mgf(r)

        thetas = np.linspace(0.0, math.pi / 2, opts.grid_points + 1)[:-1]
        vals = np.array([g(th) for th in thetas])
        for idx in range(len(thetas)):
            v = vals[idx]
            left = vals[idx - 1] if idx > 0 else -math.inf
            right = vals[idx + 1] if idx + 1 < len(thetas) else -math.inf
            if v >= left and v >= right:
                lo = thetas[max(idx - 1, 0)]
                hi = thetas[min(idx + 1, len(thetas) - 1)]
                if lo < hi:
                    theta_star, neg = _golden_min(lambda th: -g(th), lo, hi, opts.refine_tol)
                    if -neg > best_val:
                        best_val, best = -neg, (d, math.tan(theta_star))
            if v > best_val:
                best_val, best = float(v), (d, float(math.tan(thetas[idx])))
    return RateResult(best_val, best, GRID_REFINED)


def relative_rate_curve(
    X: Measure, Y: Measure, cone: Cone, opts: RateOptions | None = None
) -> list:
    """Sampled radial profile rows (ray index, theta, r, g(r)) for CSV export."""
    opts = opts or RateOptions()
    require_probability(X, "X")
    require_probability(Y, "Y")
    rows = []
    for ray_idx, d in enumerate(cone.dual_directions(opts.n_samples, opts.seed)):
        px = _Projected(project(X, d.t))
        py = _Projected(project(Y, d.t))
        for k in range(1, 257):
            theta = (math.pi / 2) * k / 257
            r = math.tan(theta)
            rows.append((ray_idx, theta, r, px.log_mgf(r) - py.log_mgf(r)))
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

    Computes the exact n-fold convolutions, scales by 1/n, shifts the
    denominator walk up by eps*unit and returns

        sup_C (1/n) log [ P(X-walk mean in C) / P(Y-walk mean + eps*unit in C) ]

    with C over closed tails at all support thresholds in one dimension
    (exhaustive, hence exact) or principal upsets generated by support points
    plus the whole space in higher dimensions (a certified lower bound).
    A zero denominator with positive numerator gives +inf; 0/0 contributes
    nothing.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    e = as_rat(eps)
    if e <= 0:
        raise ValueError("eps must be positive")
    require_probability(X, "X")
    require_probability(Y, "Y")
    require_same_dim(cone, X.dim)

    inv_n = rat(1, n)
    num = _scale_points(convolve_power(X, n, cap), inv_n)
    den = shift(
        _scale_points(convolve_power(Y, n, cap), inv_n),
        tuple(e * uc for uc in cone.unit),
    )
    best = -math.inf
    if X.dim == 1:
        thresholds = sorted({x[0] for x in num.atoms} | {y[0] for y in den.atoms})
        pairs = ((tail_mass(num, c), tail_mass(den, c)) for c in thresholds)
    else:
        gens = sorted(set(num.atoms) | set(den.atoms))
        masses = [
            (upset_mass(num, cone, [g]), upset_mass(den, cone, [g])) for g in gens
        ]
        masses.append((num.mass(), den.mass()))  # the whole space is a closed upset
        pairs = iter(masses)
    for num_mass, den_mass in pairs:
        if num_mass == 0:
            continue
        if den_mass == 0:
            return math.inf
        val = (log_rat(num_mass) - log_rat(den_mass)) / n
        if val > best:
            best = val
    return best


def _scale_points(mu: Measure, factor) -> Measure:
    f = as_rat(factor)
    return Measure._raw(
        mu.dim, {tuple(f * xc for xc in x): w for x, w in mu.atoms.items()}
    )


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
