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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, Direction
from .measure import Measure, project, require_probability
from .rational import Rational, ZERO

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


@dataclass
class SpectrumOptions:
    grid_points: int = 257
    margin_tol: float = 1e-9
    refine_tol: float = 1e-12
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
    seed: int


def _log_sum_exp(a: np.ndarray, w: np.ndarray) -> float:
    """Stabilised log(sum_i w_i exp(a_i)): the log-MGF of weights w at exponents a."""
    m = a.max()
    return float(m + math.log(float(np.dot(w, np.exp(a - m)))))


class _Projected:
    """Float and exact views of a projected 1-D probability measure.

    The spectral sweep and the relative-rate profile both evaluate the
    stabilised log-MGF ``log E[exp(r Z)]`` of this law; ``lev_at(r)`` is
    ``log_mgf(r) / r`` away from the exceptional points.
    """

    __slots__ = ("z", "w", "min", "max", "w_max", "mean")

    def __init__(self, proj: Measure):
        items = sorted(proj.atoms.items())
        self.z = np.array([float(x[0]) for x, _ in items])
        self.w = np.array([float(wt) for _, wt in items])
        self.min: Rational = items[0][0][0]
        self.max: Rational = items[-1][0][0]
        self.w_max: Rational = items[-1][1]
        self.mean: Rational = sum((x[0] * wt for x, wt in items), ZERO)

    def log_mgf(self, r: float) -> float:
        return _log_sum_exp(r * self.z, self.w)

    def tilted_mean(self, r: float) -> float:
        a = r * self.z
        m = a.max()
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
    return _Projected(project(mu, sp.direction.t)).lev_at(sp.radial)


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
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
    golden section until the theta bracket is below refine_tol.
    """
    opts = opts or SpectrumOptions()
    require_probability(X, "X")
    require_probability(Y, "Y")
    px = _Projected(project(X, t.t))
    py = _Projected(project(Y, t.t))

    exact_margins = [
        (-math.inf, py.min - px.min),
        (0.0, py.mean - px.mean),
        (math.inf, py.max - px.max),
    ]

    thetas = np.linspace(-math.pi / 2, math.pi / 2, opts.grid_points + 2)[1:-1]
    rs = np.tan(thetas)
    levx = px.lev_curve(rs)
    levy = py.lev_curve(rs)
    margin = levy - levx

    def margin_at_theta(theta: float) -> float:
        r = math.tan(theta)
        return py.lev_at(r) - px.lev_at(r)

    candidates: list[tuple[float, float]] = [(float(m), r) for r, m in exact_margins]
    for idx in range(len(rs)):
        m = margin[idx]
        candidates.append((float(m), float(rs[idx])))
        left = margin[idx - 1] if idx > 0 else math.inf
        right = margin[idx + 1] if idx + 1 < len(rs) else math.inf
        if m <= left and m <= right:
            lo = thetas[max(idx - 1, 0)]
            hi = thetas[min(idx + 1, len(rs) - 1)]
            if lo < hi:
                theta_star, m_star = _golden_min(margin_at_theta, lo, hi, opts.refine_tol)
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
    for k in range(len(rs)):
        samples.append(
            (float(thetas[k]), float(rs[k]), float(levx[k]), float(levy[k]), float(margin[k]))
        )
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
        seed=opts.seed,
    )
