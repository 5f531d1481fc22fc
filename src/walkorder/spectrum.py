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

Each golden-section step evaluates both log-MGFs of a ray through one fused
kernel, ``_log_mgf_pair``: one preallocated buffer over both supports, in
place ``numpy`` ufuncs and one dot per law, with the same floats as
``_Projected.log_mgf``.  A local minimum is refined only when it could lower
the result.  lev is nondecreasing in r, so on a bracket ``[r_lo, r_hi]`` the
margin is at least ``lev_Y(r_lo) - lev_X(r_hi)``; when that bound lies above
the least interior grid margin by more than the float error of lev
(``_prune_slack``), the refined value could never be the minimum, and the
search is skipped.  Every verdict, witness and sample stays bit for bit what
refining every bracket gives.
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

    def log_mgf_many(self, rs) -> list:
        """``[self.log_mgf(r) for r in rs]`` from one ``rs x z`` block and one
        ``np.exp``: both work element by element, and each row is a
        contiguous view, so every dot and log sees the same floats."""
        rs = np.asarray(rs, dtype=float)
        a = rs[:, None] * self.z
        m = np.where(rs > 0, a[:, -1], a[:, 0])
        e = np.exp(a - m[:, None])
        w = self.w
        return [mi + math.log(float(np.dot(w, row))) for mi, row in zip(m.tolist(), e)]

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
        m = a.max(axis=1)
        zero = rs == 0.0
        safe = np.where(zero, 1.0, rs)
        vals = (m + np.log((self.w[None, :] * np.exp(a - m[:, None])).sum(axis=1))) / safe
        if zero.any():
            vals[zero] = float(self.mean)
        return vals


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


def _golden_min(f, lo: float, hi: float, tol: float = REFINE_TOL) -> tuple[float, float]:
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def compare_on_ray(
    X: Measure, Y: Measure, t: Direction, opts: SpectrumOptions | None = None
) -> RayComparison:
    """Sweep margin(r) = lev(Y) - lev(X) along one dual ray.

    The exceptional points are compared exactly; interior minima of the
    margin are located on the compactified grid r = tan(theta) and refined by
    golden section until the theta bracket is below ``REFINE_TOL``, with
    both log-MGFs from one ``_log_mgf_pair`` kernel.

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

    pair = _log_mgf_pair(px, py)
    mean_margin = py.lev_at(0.0) - px.lev_at(0.0)

    def margin_at_theta(theta: float) -> float:
        r = math.tan(theta)
        if r == 0.0:
            return mean_margin
        lx, ly = pair(r)
        return ly / r - lx / r

    grid_floor = min((m for m, r in zip(margin, rs) if r != 0.0), default=math.inf)
    z_abs = max(abs(float(v)) for v in (px.min, px.max, py.min, py.max))
    candidates: list[tuple[float, float]] = [(float(m), r) for r, m in exact_margins]
    for idx in range(len(rs)):
        m = margin[idx]
        candidates.append((m, rs[idx]))
        left = margin[idx - 1] if idx > 0 else math.inf
        right = margin[idx + 1] if idx + 1 < len(rs) else math.inf
        if m <= left and m <= right:
            i_lo, i_hi = max(idx - 1, 0), min(idx + 1, len(rs) - 1)
            lo, hi = thetas[i_lo], thetas[i_hi]
            if lo < hi:
                bound = levy[i_lo] - levx[i_hi]
                if bound > grid_floor + _prune_slack(z_abs, rs[i_lo], rs[i_hi]):
                    continue
                theta_star, m_star = _golden_min(margin_at_theta, lo, hi)
                candidates.append((m_star, math.tan(theta_star)))

    min_margin, argmin_radial = min(candidates, key=lambda c: (c[0], abs(c[1])))

    exact_neg = [r for r, m in exact_margins if m < 0]
    exact_tie = any(m == 0 for _, m in exact_margins)
    all_exact_pos = all(m > 0 for _, m in exact_margins)
    interior_min = min(
        (c[0] for c in candidates if not math.isinf(c[1]) and c[1] != 0.0),
        default=math.inf,
    )

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
