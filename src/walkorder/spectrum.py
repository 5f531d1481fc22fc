"""The compactified test spectrum and pointwise dominance sweeps.

For a probability measure mu, a dual direction t (normalized so that
<t, unit> = 1) and a radial coordinate r, the logarithmic evaluation is

    lev(mu, t, r) = log E[exp(r <t, X>)] / r        for finite nonzero r,
                  = E[<t, X>]                        at r = 0 (arctic),
                  = max / min of <t, supp mu>        at r = +inf / -inf.

This is a nondecreasing family of weighted averages interpolating the
minimum, the mean and the maximum of the projected support.  The min-tropical
end is the continuous limit of the normalized curve, i.e. the minimum of the
projection.

Comparison policy: the three exceptional points r in {-inf, 0, +inf} are
compared in exact rational arithmetic, so strict/tie classification at the
endpoints never depends on a float tolerance.  Interior radial points are
swept on a tan(theta) grid, local minima are refined by golden section, and
margins within +/- margin_tol yield an inconclusive verdict rather than a
guess.

This sweep and ``ldp.relative_rate_rhs`` (which scans -g for the maxima of
g) find their brackets by one scan, ``_local_minima``, and refine them by
one helper, ``_refine_brackets``.  Below ``LOCKSTEP_MIN`` brackets each is a
scalar ``_golden_min`` on one fused kernel per ray, ``_log_mgf_pair``: one
buffer over both supports, in place ``numpy`` ufuncs and one dot per law.
From ``LOCKSTEP_MIN`` on, ``_golden_min_many`` advances them together, and
``_LogMgfRows`` evaluates both laws of every open bracket at once, in chunks
of ``BATCH_ELEMENTS``, the budget of every batched call.  ``_LogMgfRows`` is
the one batched log-MGF of projected pairs: built once per sweep, it also
evaluates each ray's ``rel-rate`` grid in one call.  Every float log-MGF
takes its max at the sorted end of the support, so all paths give the
floats of ``_Projected.log_mgf``; a lockstep run has a fixed cost of about
1.6 ms, against about 0.2 ms a scalar bracket.

A local minimum is refined only when it could lower the result.  lev is
nondecreasing in r, so on a bracket ``[r_lo, r_hi]`` the margin is at least
``lev_Y(r_lo) - lev_X(r_hi)``; when that bound lies above the least interior
grid margin by more than the float error of lev (``_prune_slack``), the
refined value could never be the minimum, and the search is skipped.  Every
verdict, witness and sample stays bit for bit what refining every bracket
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, Direction, require_walk_pair
from .measure import Measure, project, require_probability
from .rational import Rational, rat

STRICT = "Strict"
NON_STRICT_ONLY = "NonStrictOnly"
VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"

STRICT_ON_RAY = "StrictOnRay"
TIE_ON_RAY = "TieOnRay"
VIOLATED_ON_RAY = "ViolatedOnRay"
INCONCLUSIVE_ON_RAY = "InconclusiveOnRay"


@dataclass(frozen=True)
class SpectrumPoint:
    """A normalized dual direction plus a radial coordinate in [-inf, +inf]."""

    direction: Direction
    radial: float  # 0.0 is the arctic point; +/- inf the tropical ends


#: Width of the theta bracket at which golden-section refinement stops.
REFINE_TOL = 1e-12


@dataclass
class SpectrumOptions:
    """Settings of a spectral sweep: ``grid_points`` tan(theta) points per
    ray; a margin within ``margin_tol`` of 0 is inconclusive; ``n_samples``
    and ``seed`` pick the sampled dual directions.  Local minima are refined
    to a theta bracket of ``REFINE_TOL``."""

    grid_points: int = 257
    margin_tol: float = 1e-9
    n_samples: int = 32
    seed: int = 0


@dataclass
class RayComparison:
    direction: Direction
    min_margin: float
    argmin_radial: float
    verdict: str
    samples: list = field(repr=False)  # rows (theta, radial, lev_x, lev_y, margin)


@dataclass
class SpectralReport:
    verdict: str
    per_ray: list
    witnesses: list
    sampled_only: bool  # more than one dual ray: certified only on sampled rays


class _Projected:
    """Float and exact views of a projected 1-D probability measure.

    The spectral sweep and the relative-rate profile both evaluate the
    stabilised log-MGF ``log E[exp(r Z)]`` of this law; ``lev_at(r)`` is
    ``log_mgf(r) / r`` away from the exceptional points.

    Both views come from the canonical integer view of ``measure.project``:
    int keys over ``S``, sorted, with int weights over ``D``.  The floats are
    ``key / S`` and ``weight / D`` by int true division, which Python rounds
    correctly, so each equals ``float`` of the exact rational bit for bit.
    ``min``, ``max``, ``w_max`` and ``mean = sum(key * weight) / (S D)`` are
    exact rationals, each built once.
    """

    __slots__ = ("z", "w", "min", "max", "w_max", "mean")

    @classmethod
    def of(cls, mu: Measure, t) -> "_Projected":
        """The view of the pushforward of ``mu`` along ``t``, read straight
        from the int keys and weights of ``project(mu, t)``: no rational atom
        is built."""
        s, keys, d, weights = project(mu, t)._int_view()
        self = cls.__new__(cls)
        self.z = np.array([k / s for k, in keys])
        self.w = np.array([wt / d for wt in weights])
        self.min: Rational = rat(keys[0][0], s)
        self.max: Rational = rat(keys[-1][0], s)
        self.w_max: Rational = rat(weights[-1], d)
        self.mean: Rational = rat(sum(k * wt for (k,), wt in zip(keys, weights)), s * d)
        return self

    # ``z`` is sorted and rounding is monotone, so the largest ``r * z`` is the
    # product at an end of ``z``: the same float as ``(r * z).max()``.

    def log_mgf(self, r: float) -> float:
        a = r * self.z
        m = a[-1] if r > 0 else a[0]
        return float(m + math.log(float(np.dot(self.w, np.exp(a - m)))))

    def tilted_mean(self, r: float) -> float:
        a = r * self.z
        m = a[-1] if r > 0 else a[0]
        e = self.w * np.exp(a - m)
        return float(np.dot(e, self.z) / e.sum())

    def lev_at(self, r: float) -> float:
        if r == 0.0:
            return float(self.mean)
        if math.isinf(r):
            return float(self.max) if r > 0 else float(self.min)
        return self.log_mgf(r) / r

    def lev_curve(self, rs: np.ndarray) -> np.ndarray:
        a = rs[:, None] * self.z[None, :]
        m = np.where(rs > 0, a[:, -1], a[:, 0])
        zero = rs == 0.0
        safe = np.where(zero, 1.0, rs)
        vals = (m + np.log((self.w[None, :] * np.exp(a - m[:, None])).sum(axis=1))) / safe
        if zero.any():
            vals[zero] = float(self.mean)
        return vals


def _row_dots(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``[np.dot(row, v) for row in A]`` bit for bit in one call: a stacked
    1 x n by n x 1 matmul runs numpy's vector dot, one ``ddot`` per row,
    where ``A @ v`` is gemv and rounds 16-25% of entries differently."""
    return np.matmul(A[:, None, :], v[:, None])[:, 0, 0]


def lev(mu: Measure, sp: SpectrumPoint) -> float:
    """Logarithmic evaluation of a probability measure at a spectrum point."""
    require_probability(mu, "measure")
    return _Projected.of(mu, sp.direction.t).lev_at(sp.radial)


def _log_mgf_pair(px: _Projected, py: _Projected):
    """``r -> (px.log_mgf(r), py.log_mgf(r))`` for finite ``r != 0``, bit for
    bit, in one pass over one preallocated buffer.

    The buffer holds ``concat(px.z, py.z)``; ``r * z``, the shift by each
    half's max and ``exp`` run in place with ``out=``, each element by
    element, and each half is a contiguous view that ``np.dot`` reads as it
    reads a fresh array.  The max of each half is the Python float ``r * z``
    at its sorted end, the same product ``log_mgf`` takes."""
    nx = len(px.z)
    z = np.concatenate((px.z, py.z))
    buf = np.empty_like(z)
    bx, by = buf[:nx], buf[nx:]
    wx, wy = px.w, py.w
    x_lo, x_hi = float(px.z[0]), float(px.z[-1])
    y_lo, y_hi = float(py.z[0]), float(py.z[-1])
    multiply, subtract, exp, dot, log = np.multiply, np.subtract, np.exp, np.dot, math.log

    def pair(r: float) -> tuple[float, float]:
        multiply(z, r, out=buf)
        if r > 0:
            mx, my = r * x_hi, r * y_hi
        else:
            mx, my = r * x_lo, r * y_lo
        subtract(bx, mx, out=bx)
        subtract(by, my, out=by)
        exp(buf, out=buf)
        return mx + log(dot(wx, bx)), my + log(dot(wy, by))

    return pair


#: Relative slack of the bracket pruning in ``compare_on_ray``.
PRUNE_SLACK = 1e-9


def _prune_slack(z_abs: float, r_lo: float, r_hi: float) -> float:
    """Slack above the float error of lev on a bracket ``[r_lo, r_hi]``.

    A float lev value at r carries an absolute error of order
    ``n eps (|z| + 1/|r|)`` for n atoms of magnitude at most ``|z|``: the
    stabilised sum has relative error ``n eps``, and its log is divided by r.
    ``PRUNE_SLACK`` times ``1 + |z| + 1/|r|`` at the bracket's end nearest
    r = 0 covers three such errors (the two grid values of the bound and the
    refined value) while n stays below about 10^6.  A bracket that reaches
    r = 0, where the float log-MGF over r loses every digit, gets an infinite
    slack: it is always refined."""
    if r_lo <= 0.0 <= r_hi:
        return math.inf
    return PRUNE_SLACK * (1.0 + z_abs + 1.0 / min(abs(r_lo), abs(r_hi)))


#: The golden ratio's inverse, the step of both golden-section searches.
INVPHI = (math.sqrt(5) - 1) / 2


def _golden_min(f, lo: float, hi: float, tol: float = REFINE_TOL) -> tuple[float, float]:
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _golden_min_many(f, lo, hi, tol: float = REFINE_TOL) -> list:
    """``[_golden_min(f_i, lo_i, hi_i, tol) for i ...]`` in lockstep, bit
    for bit, where ``f(rows, thetas)`` returns ``f_i(theta)`` for each
    bracket index i of the int array ``rows``.

    Each step makes the c/d update of ``_golden_min`` as float64 array
    operations on the open brackets, one new point each, and asks ``f`` for
    their values in one call.  A bracket no wider than ``tol`` leaves the
    compact open arrays with its result, so it is evaluated no further."""
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    rows = np.arange(len(a))
    fc, fd = f(rows, c), f(rows, d)
    theta, value = np.empty(len(a)), np.empty(len(a))
    while rows.size:
        done = ~((b - a) > tol)
        if done.any():
            pick = fc[done] <= fd[done]
            theta[rows[done]] = np.where(pick, c[done], d[done])
            value[rows[done]] = np.where(pick, fc[done], fd[done])
            keep = ~done
            rows, a, b, c, d, fc, fd = (v[keep] for v in (rows, a, b, c, d, fc, fd))
            if not rows.size:
                break
        left = fc <= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = INVPHI * (b - a)
        p = np.where(left, b - step, a + step)
        fp = f(rows, p)
        c, d = np.where(left, p, d), np.where(left, c, p)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return list(zip(theta.tolist(), value.tolist()))


class _LogMgfRows:
    """``(rays, rs) -> (lx, ly)``: ``px.log_mgf(r)`` and ``py.log_mgf(r)``
    of ``pairs[ray]`` for each ray of ``rays`` at its own ``r``, bit for
    bit.  One kernel serves a sweep: the ``rel-rate`` grids, one call per
    ray, and the lockstep refinements.

    For each side the laws of each support size are stacked once in one
    table, with no padding and no zero weights; each ray keeps its row in
    its two tables and its shape ``(len(px.z), len(py.z))``.  The rays come
    sorted by shape, so each shape is one run of them, and a shape with no
    rays costs nothing.  Each run and side is ``log_mgf``'s block: ``r * z``,
    the max at the sorted end and ``exp`` element by element, in place on
    the gathered copy of its rows (no fresh block per step), one ``ddot``
    per row by stacked 1 x n by n x 1 matmul, then ``math.log`` per row."""

    def __init__(self, pairs: list):
        shapes = [(len(px.z), len(py.z)) for px, py in pairs]
        self.shapes = list(dict.fromkeys(shapes))
        self.shape_of = np.array([self.shapes.index(shape) for shape in shapes])
        self.row_of = np.empty((2, len(pairs)), dtype=int)
        self.tables: list = [{}, {}]
        for side, table in enumerate(self.tables):
            by_size: dict = {}
            for ray, pair in enumerate(pairs):
                laws = by_size.setdefault(len(pair[side].z), [])
                self.row_of[side, ray] = len(laws)
                laws.append(pair[side])
            for n, laws in by_size.items():
                table[n] = np.array([law.z for law in laws]), np.array([law.w for law in laws])

    def __call__(self, rays: np.ndarray, rs: np.ndarray) -> tuple:
        shape_of = self.shape_of[rays]
        edges = np.concatenate(([-1], shape_of, [-1]))
        cuts = np.flatnonzero(edges[1:] != edges[:-1]).tolist()
        m, dots = np.empty((2, len(rays))), np.empty((2, len(rays)))
        rows, pos, rcol = self.row_of[:, rays], rs > 0, rs[:, None]
        for lo, hi in zip(cuts, cuts[1:]):
            for side, n in enumerate(self.shapes[shape_of[lo]]):
                z, w = self.tables[side][n]
                e = z[rows[side, lo:hi]]
                e *= rcol[lo:hi]
                top = m[side, lo:hi] = np.where(pos[lo:hi], e[:, -1], e[:, 0])
                e -= top[:, None]
                np.exp(e, out=e)
                dots[side, lo:hi] = np.matmul(e[:, None, :], w[rows[side, lo:hi], :, None])[:, 0, 0]
        out = m + np.array([math.log(x) for x in dots.ravel().tolist()]).reshape(m.shape)
        return out[0], out[1]


#: Fewest brackets that one sweep refines in lockstep: below it each bracket
#: is one scalar ``_golden_min``, which costs less than the fixed cost of a
#: lockstep run.
LOCKSTEP_MIN = 12
#: Bound on the entries of one batched numpy call: two padded laws per
#: bracket here, starts times atom and ray coordinates in ``ldp._ascend``.
BATCH_ELEMENTS = 1 << 16


def _local_minima(values: list, thetas: list) -> list:
    """``(idx, i_lo, i_hi)`` for each grid index whose value is at most both
    neighbours' (``inf`` past either end) and whose clipped bracket
    ``[thetas[i_lo], thetas[i_hi]]`` is not empty.  A scan for maxima passes
    the negated values: negation is exact, so each comparison is the one
    ``>=`` makes on the values, ``-0.0``, ``inf`` and NaN included."""
    padded = [math.inf, *values, math.inf]
    last = len(values) - 1
    found = []
    for idx, (left, v, right) in enumerate(zip(padded, padded[1:], padded[2:])):
        if v <= left and v <= right:
            i_lo, i_hi = max(idx - 1, 0), min(idx + 1, last)
            if thetas[i_lo] < thetas[i_hi]:
                found.append((idx, i_lo, i_hi))
    return found


def _refine_brackets(pairs: list, brackets: list, value, at_zero: list, kernel=None) -> list:
    """The golden-section minimum ``(theta, f)`` of each bracket
    ``(ray, lo, hi)``, bit for bit ``_golden_min``'s.

    ``f(theta)`` is ``value(r, lx, ly)`` at ``r = math.tan(theta)``, with
    ``(lx, ly)`` the log-MGFs of ``pairs[ray]`` at r, and ``at_zero[ray]``
    where r == 0.  ``value`` takes Python floats or float64 arrays alike.
    The brackets come from ``_local_minima`` scans.  Fewer than
    ``LOCKSTEP_MIN`` brackets run one ``_golden_min`` each on the ray's
    ``_log_mgf_pair``; more run ``_golden_min_many`` on ``kernel``, the
    sweep's ``_LogMgfRows(pairs)`` (built here if not given), in chunks of
    at most ``BATCH_ELEMENTS`` entries at the bracketed rays' widest
    support.  Both searches step by the one ``INVPHI``."""
    if len(brackets) < LOCKSTEP_MIN:
        kernels: dict = {}
        out = []
        for ray, lo, hi in brackets:
            if ray not in kernels:
                kernels[ray] = _log_mgf_pair(*pairs[ray])

            def f(theta, pair=kernels[ray], zero=at_zero[ray]):
                r = math.tan(theta)
                if r == 0.0:
                    return zero
                return value(r, *pair(r))

            out.append(_golden_min(f, lo, hi))
        return out

    kernel, at_zero = kernel or _LogMgfRows(pairs), np.array(at_zero)
    # sorted by shape, so that the open brackets of each shape are one run
    # of the kernel's rows
    shape = [tuple(len(law.z) for law in pairs[ray]) for ray, _, _ in brackets]
    order = sorted(range(len(brackets)), key=shape.__getitem__)
    size = max(1, BATCH_ELEMENTS // (2 * max(map(max, shape))))
    out = [None] * len(brackets)
    for i in range(0, len(order), size):
        ks = order[i:i + size]
        chunk = [brackets[k] for k in ks]
        ray_of = np.array([ray for ray, _, _ in chunk])

        def f(rows, thetas, ray_of=ray_of):
            rs = np.array(list(map(math.tan, thetas.tolist())))
            zero = rs == 0.0
            if zero.any():
                rs[zero] = 1.0  # any nonzero r: the value is replaced
            vals = value(rs, *kernel(ray_of[rows], rs))
            if zero.any():
                vals[zero] = at_zero[ray_of[rows[zero]]]
            return vals

        found = _golden_min_many(f, [lo for _, lo, _ in chunk], [hi for _, _, hi in chunk])
        for k, result in zip(ks, found):
            out[k] = result
    return out


def compare_on_ray(
    X: Measure, Y: Measure, t: Direction, opts: SpectrumOptions | None = None
) -> RayComparison:
    """Sweep margin(r) = lev(Y) - lev(X) along one dual ray.

    The exceptional points are compared exactly; interior minima of the
    margin are located on the compactified grid r = tan(theta) and refined by
    golden section until the theta bracket is below ``REFINE_TOL``: the
    brackets of ``_local_minima``, all through one ``_refine_brackets`` call.

    A bracket ``[r_lo, r_hi]`` is refined only when it could matter.  lev
    is nondecreasing in r, so on the bracket the margin is at least
    ``lev_Y(r_lo) - lev_X(r_hi)``.  When that bound exceeds the least
    interior (r != 0) grid margin by more than ``_prune_slack``, the refined
    minimum lies above a grid candidate, so it can never be ``min_margin``,
    ``argmin_radial`` or the interior minimum, and the search is skipped.
    """
    opts = opts or SpectrumOptions()
    require_walk_pair(X, Y)
    px = _Projected.of(X, t.t)
    py = _Projected.of(Y, t.t)

    exact_margins = [
        (-math.inf, py.min - px.min),
        (0.0, py.mean - px.mean),
        (math.inf, py.max - px.max),
    ]

    thetas = np.linspace(-math.pi / 2, math.pi / 2, opts.grid_points + 2)[1:-1]
    rs = np.tan(thetas)
    levx = px.lev_curve(rs)
    levy = py.lev_curve(rs)
    margin = (levy - levx).tolist()
    # the scan and the sample rows read Python floats: the same values, and
    # no numpy scalar per grid point
    thetas, rs, levx, levy = thetas.tolist(), rs.tolist(), levx.tolist(), levy.tolist()

    grid_floor = min((m for m, r in zip(margin, rs) if r != 0.0), default=math.inf)
    z_abs = max(abs(float(v)) for v in (px.min, px.max, py.min, py.max))
    brackets, at = [], []
    for idx, i_lo, i_hi in _local_minima(margin, thetas):
        if levy[i_lo] - levx[i_hi] > grid_floor + _prune_slack(z_abs, rs[i_lo], rs[i_hi]):
            continue
        brackets.append((0, thetas[i_lo], thetas[i_hi]))
        at.append(idx)
    mean_margin = py.lev_at(0.0) - px.lev_at(0.0)
    refined = _refine_brackets([(px, py)], brackets, lambda r, lx, ly: ly / r - lx / r, [mean_margin])
    stars = {idx: (m_star, math.tan(theta_star)) for idx, (theta_star, m_star) in zip(at, refined)}
    candidates: list[tuple[float, float]] = [(float(m), r) for r, m in exact_margins]
    for idx, point in enumerate(zip(margin, rs)):
        candidates.append(point)
        if idx in stars:
            candidates.append(stars[idx])

    min_margin, argmin_radial = min(candidates, key=lambda c: (c[0], abs(c[1])))

    exact_neg = [r for r, m in exact_margins if m < 0]
    exact_tie = any(m == 0 for _, m in exact_margins)
    all_exact_pos = all(m > 0 for _, m in exact_margins)
    # the exact ends are never interior, and a refined r* is finite
    interior_min = min([grid_floor] + [m for m, r in stars.values() if r != 0.0])

    if exact_neg:
        verdict = VIOLATED_ON_RAY
        argmin_radial = exact_neg[0]
    elif min_margin < -opts.margin_tol:
        verdict = VIOLATED_ON_RAY
    elif all_exact_pos and interior_min > opts.margin_tol:
        verdict = STRICT_ON_RAY
    elif exact_tie:
        verdict = TIE_ON_RAY
    else:
        verdict = INCONCLUSIVE_ON_RAY

    samples = [(-math.pi / 2, -math.inf, float(px.min), float(py.min), float(py.min - px.min))]
    samples += zip(thetas, rs, levx, levy, margin)
    samples.append((math.pi / 2, math.inf, float(px.max), float(py.max), float(py.max - px.max)))

    return RayComparison(
        direction=t,
        min_margin=min_margin,
        argmin_radial=argmin_radial,
        verdict=verdict,
        samples=samples,
    )


def spectral_verdict(
    X: Measure, Y: Measure, cone: Cone, opts: SpectrumOptions | None = None
) -> SpectralReport:
    """Run compare_on_ray over sampled dual directions and combine.

    Strict requires every ray strict; a single violated ray decides Violated
    (first witness reported); ties without violations give NonStrictOnly.
    For dual cones with more than one extreme ray the positive verdicts are
    certified only on the sampled rays, which the report flags.
    """
    opts = opts or SpectrumOptions()
    require_walk_pair(X, Y, cone)
    directions = cone.dual_directions(opts.n_samples, opts.seed)
    per_ray = [compare_on_ray(X, Y, d, opts) for d in directions]

    witnesses: list[SpectrumPoint] = []
    verdict = STRICT
    for rc in per_ray:
        if rc.verdict == VIOLATED_ON_RAY:
            verdict = VIOLATED
            witnesses = [SpectrumPoint(rc.direction, rc.argmin_radial)]
            break
    if verdict != VIOLATED:
        if any(rc.verdict == INCONCLUSIVE_ON_RAY for rc in per_ray):
            verdict = INCONCLUSIVE
        elif any(rc.verdict == TIE_ON_RAY for rc in per_ray):
            verdict = NON_STRICT_ONLY
        witnesses = [
            SpectrumPoint(rc.direction, rc.argmin_radial)
            for rc in per_ray
            if rc.verdict in (TIE_ON_RAY, INCONCLUSIVE_ON_RAY)
        ]

    return SpectralReport(
        verdict=verdict,
        per_ray=per_ray,
        witnesses=witnesses,
        sampled_only=len(cone.normals) > 1,
    )
