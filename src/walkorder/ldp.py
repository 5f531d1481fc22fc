"""Large-deviation quantities: log-MGF, rate function, relative decay rates.

The rate function is the Legendre-Fenchel transform of the log-MGF over the
dual cone.  In one dimension its structure is exact: +inf above the support
maximum, 0 at or below the mean, -log(weight at the maximum) at the maximum,
and otherwise the unique tilt solving tilted-mean(t) = c, found by bisection
on the strictly increasing tilted mean.  In higher dimensions a multi-start
projected gradient ascent over conic combinations of the dual rays is used,
all starts advanced in lockstep, and results are flagged as grid-refined.

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
from operator import add, sub
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
from .spectrum import BATCH_ELEMENTS, _local_minima, _LogMgfRows, _Projected, _refine_brackets, _row_dots
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


def _rate_multid(mu: Measure, c, cone: Cone, opts: RateOptions) -> RateResult:
    directions = cone.dual_directions(opts.n_samples, opts.seed)
    # exact divergence test along each sampled ray
    for d in directions:
        s, keys, _, _ = project(mu, d.t)._int_view()
        cm = sum(tc * cc for tc, cc in zip(d.t, c))
        if cm > rat(keys[-1][0], s):
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)

    R = np.array([[float(x) for x in d.t] for d in directions])
    cf = np.array([float(x) for x in c])
    # the view's floats by int true division: float of each rational, in point order
    s, coords, dw, weights = mu._int_view()
    zs = np.array([[v / s for v in x] for x in coords])
    ws = np.array([w / dw for w in weights])

    # one start at each ray and one at their mean, in lockstep chunks of at
    # most BATCH_ELEMENTS entries; the first start that reaches the max wins,
    # and one that ends at t = 0 scores exactly 0, not its float -log(sum ws)
    starts = np.vstack((np.eye(len(R)), np.full((1, len(R)), 1.0 / len(R))))
    size = max(1, BATCH_ELEMENTS // (zs.size + R.size))
    best_val, best_t = 0.0, None
    for i in range(0, len(starts), size):
        vals, ts = _ascend(starts[i:i + size], R, zs, ws, cf)
        for val, t in zip(vals.tolist(), ts):
            if val > best_val and t.any():
                best_val, best_t = val, t
    if best_t is None or best_val <= 0.0:
        return RateResult(0.0, None, GRID_REFINED)
    radial = float(best_t @ np.array([float(u) for u in cone.unit]))
    direction = _nearest_direction(best_t / radial, directions)
    return RateResult(best_val, (direction, radial), GRID_REFINED)


def _objectives(T: np.ndarray, zs: np.ndarray, ws: np.ndarray, cf: np.ndarray) -> tuple:
    """``<t, c> - log E e^{<t, X>}`` at each row t of ``T``, and the rows
    ``exp(zs @ t - max)`` for the gradients, bit for bit the one-row
    floats: ``zs @ t`` as one gemv per row, ``np.dot(ws, ex)`` and
    ``t @ cf`` as one ``ddot`` per row, and ``math.log`` per row."""
    A = np.matmul(zs, T[:, :, None])[:, :, 0]
    m = A.max(axis=1)
    ex = np.exp(A - m[:, None])
    logs = np.array([math.log(x) for x in _row_dots(ex, ws).tolist()])
    return _row_dots(T, cf) - (m + logs), ex


def _gradients(ex: np.ndarray, R: np.ndarray, zs: np.ndarray, ws: np.ndarray, cf: np.ndarray):
    """Per row: c less the tilted mean at the row's t, dotted with every ray
    (one ``ddot`` per ray), from the row's exponentials ``ex``."""
    e = ws * ex
    g = cf - (e[:, :, None] * zs).sum(axis=1) / e.sum(axis=1)[:, None]
    return np.matmul(R[None, :, None, :], g[:, None, :, None])[:, :, 0, 0]


def _ascend(lam: np.ndarray, R: np.ndarray, zs: np.ndarray, ws: np.ndarray, cf: np.ndarray):
    """The projected gradient ascent over conic combinations of the rays
    ``R`` from each row of ``lam``, every start in lockstep: the final
    objective values and points t, bit for bit those of the ascents run one
    after another.

    Each step makes one trial per open start at its own step length.  A
    trial that raises the value by more than 1e-15 is taken and grows the
    step by 1.3; one that does not halves it.  A start stops after
    ``MAX_ITER`` taken trials, or when its step falls to 1e-18.  Open starts
    are kept in compact arrays; ``idx`` maps them back to their rows."""
    lam = lam.copy()
    T = _conic_combination(lam, R)
    val, ex = _objectives(T, zs, ws, cf)
    grad = _gradients(ex, R, zs, ws, cf)
    step = np.ones(len(lam))
    taken = np.zeros(len(lam), dtype=int)
    idx = np.arange(len(lam))
    vals, ts = np.empty(len(lam)), np.empty_like(T)
    while idx.size:
        lam_new = np.maximum(lam + step[:, None] * grad, 0.0)
        T_new = _conic_combination(lam_new, R)
        val_new, ex_new = _objectives(T_new, zs, ws, cf)
        up = val_new > val + 1e-15
        lam[up], T[up], val[up], ex[up] = lam_new[up], T_new[up], val_new[up], ex_new[up]
        step = np.where(up, step * 1.3, step * 0.5)
        taken += up
        done = np.where(up, taken >= MAX_ITER, step <= 1e-18)
        more = up & ~done
        if more.any():
            grad[more] = _gradients(ex[more], R, zs, ws, cf)
        if done.any():
            vals[idx[done]], ts[idx[done]] = val[done], T[done]
            keep = ~done
            lam, T, val, ex, grad = lam[keep], T[keep], val[keep], ex[keep], grad[keep]
            step, taken, idx = step[keep], taken[keep], idx[keep]
    return vals, ts


def _conic_combination(lam: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``sum(l * r for l, r in zip(row, R))`` for each row of ``lam``, bit
    for bit: ``np.add.accumulate`` adds the rays in order (``np.add.reduce``
    may sum pairwise), and ``+ 0.0`` turns an all-``-0.0`` column into the
    ``0.0`` of ``sum``'s int 0 start."""
    return np.add.accumulate(lam[:, :, None] * R, axis=1)[:, -1] + 0.0


def _nearest_direction(t_unit: np.ndarray, directions: list) -> Direction:
    best = min(
        directions,
        key=lambda d: float(
            sum((float(a) - b) ** 2 for a, b in zip(d.t, t_unit))
        ),
    )
    return best


def projected_rays(X: Measure, Y: Measure, cone: Cone, opts: RateOptions):
    """``(d, px, py)`` for each sampled dual direction d of ``opts``, with
    the ``spectrum._Projected`` views of X and Y along it, one ray at a
    time.  ``rel-rate --csv`` lists them once for ``relative_rate_rhs`` and
    ``relative_rate_curve``, which otherwise draw their own."""
    for d in cone.dual_directions(opts.n_samples, opts.seed):
        yield d, _Projected.of(X, d.t), _Projected.of(Y, d.t)


def relative_rate_rhs(
    X: Measure, Y: Measure, cone: Cone, opts: RateOptions | None = None, rays=None
) -> RateResult:
    """sup over the dual cone of log E[e^{<t,X>}] - log E[e^{<t,Y>}].

    Along each sampled direction the radial profile g(r) is swept on a dense
    tan grid with golden-section refinement of local maxima; r = 0
    contributes 0, and the r -> inf limit is handled exactly: +inf when the
    support maximum of the X projection exceeds that of Y, and the exact
    log-ratio of the weights at tied maxima otherwise.

    The first ray whose X maximum is the larger returns +inf before any
    grid is swept.  Then every ray's grid is swept, one call each of the
    sweep's one batched log-MGF ``spectrum._LogMgfRows``, with its local
    maxima read as the local minima of -g by the spectral sweep's scan
    (``spectrum._local_minima``), and the maxima of all rays are refined by
    one ``spectrum._refine_brackets`` call on the same kernel.  The
    candidates are taken in the order of a ray-by-ray sweep: per ray the
    tied limit, then per grid point its refined maximum and its grid value.

    ``rays`` are the ``projected_rays`` of ``(X, Y, cone, opts)``, drawn
    here when not given.
    """
    opts = opts or RateOptions()
    require_walk_pair(X, Y, cone)

    directions, pairs = [], []
    for d, px, py in rays or projected_rays(X, Y, cone, opts):
        if px.max > py.max:
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)
        directions.append(d)
        pairs.append((px, py))

    thetas = np.linspace(0.0, math.pi / 2, opts.grid_points + 1)[:-1].tolist()
    rs = [math.tan(th) for th in thetas]
    kernel, grid = _LogMgfRows(pairs), np.array(rs)
    profiles, brackets = [], []
    for ray in range(len(pairs)):
        lx, ly = kernel(np.full(len(rs), ray), grid)
        vals = [0.0 if r == 0.0 else v for r, v in zip(rs, (lx - ly).tolist())]
        peaks = _local_minima([-v for v in vals], thetas)
        brackets += ((ray, thetas[i_lo], thetas[i_hi]) for _, i_lo, i_hi in peaks)
        profiles.append((vals, {idx for idx, _, _ in peaks}))
    # the maxima of g are scanned and refined as the minima of -g, and
    # g(0) = 0 since both laws are normalized
    zeros = [-0.0] * len(pairs)
    refined = iter(_refine_brackets(pairs, brackets, lambda r, a, b: -(a - b), zeros, kernel))

    best_val = 0.0
    best: Optional[tuple] = None
    for d, (px, py), (vals, peaks) in zip(directions, pairs, profiles):
        if px.max == py.max:
            limit = log_rat(px.w_max / py.w_max)
            if limit > best_val:
                best_val, best = limit, (d, math.inf)
        for idx, v in enumerate(vals):
            if idx in peaks:
                theta_star, neg = next(refined)
                if -neg > best_val:
                    best_val, best = -neg, (d, math.tan(theta_star))
            if v > best_val:
                best_val, best = v, (d, rs[idx])
    return RateResult(best_val, best, GRID_REFINED)


def relative_rate_curve(
    X: Measure, Y: Measure, cone: Cone, opts: RateOptions | None = None, rays=None
) -> list:
    """Sampled radial profile rows (ray index, theta, r, g(r)) for CSV export.

    The grid is fixed at 256 points per ray, ``theta = (pi/2) k / 257`` for
    k = 1..256, whatever ``opts.grid_points`` says; the rows are written to
    the ``rel-rate`` curve CSV.  One ``spectrum._LogMgfRows`` over the
    projected pairs of all rays evaluates each ray's grid in one call.
    ``rays`` are as in ``relative_rate_rhs``.
    """
    opts = opts or RateOptions()
    require_walk_pair(X, Y, cone)
    thetas = [(math.pi / 2) * k / 257 for k in range(1, 257)]
    rs = [math.tan(theta) for theta in thetas]
    pairs = [(px, py) for _, px, py in rays or projected_rays(X, Y, cone, opts)]
    kernel, grid = _LogMgfRows(pairs), np.array(rs)
    rows = []
    for ray in range(len(pairs)):
        lx, ly = kernel(np.full(len(rs), ray), grid)
        rows += zip([ray] * len(rs), thetas, rs, (lx - ly).tolist())
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
    tails of the half-line with unit ``-unit``.  The N thresholds are read
    off the int keys of the two powers' tail indexes, so no weight of a
    power is decoded; each is answered by ``tail_mass`` from those indexes,
    and the table costs O(N log N) per n on top of the two convolution
    powers.
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
        # the support points off the tail indexes' int keys, weights left
        # encoded.  A threshold has mass above and none below iff X^n's top
        # lies above Y^n's lifted top, so that one exact comparison is the
        # scan's zero-denominator exit, taken before any query runs
        (s_num, keys_num, _, _), (s_den, keys_den, _, _) = num._tail_index(), den._tail_index()
        (up,) = lift
        if rat(keys_num[-1], s_num) > rat(keys_den[-1], s_den) + up:
            return math.inf
        thresholds = {rat(k, s_num) for k in keys_num} | {rat(k, s_den) + up for k in keys_den}
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
