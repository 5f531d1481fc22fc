"""Shared generators and curated measures for the test suite."""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add, mul
from types import SimpleNamespace

import numpy as np
import pytest

from walkorder import Cone, Measure, convolve, convolve_power, leq_st, project
from walkorder.cones import is_upward_1d
from walkorder.dominance import Catalyst, MinNResult, _grid_step
from walkorder.ldp import EXACT_LIMIT, GRID_REFINED, MAX_ITER, RateOptions, RateResult, _nearest_direction
from walkorder.measure import (
    DEFAULT_ATOM_CAP,
    _convolve_packed,
    _lattice,
    _pack,
    _unpack,
    as_point,
)
from walkorder.rational import ZERO, as_rat, log_rat, over_lcm, point_str, rat
from walkorder.solvers import (
    LinearFeasibility,
    TransportResult,
    lp_feasible,
)
from walkorder.spectrum import REFINE_TOL, _golden_min, _Projected
from walkorder.stochorder import CouplingPlan, OrderVerdict, tail_mass


# the shapes a 1-D cone takes: [0, inf), (-inf, 0], (-inf, 0] with a scaled
# normal and unit, and [0, inf) given one normal twice, at two scales
CONES_1D = [
    Cone.halfline(),
    Cone(1, [(-1,)], [(-1,)], (-1,)),
    Cone(1, [(-2,)], [(-3,)], (-5,)),
    Cone(1, [(1,)], [(1,), (3,)], (2,)),
]


def random_measure_1d(
    rng: random.Random,
    max_atoms: int = 6,
    max_den: int = 16,
    span: int = 24,
) -> Measure:
    """Random 1-D probability measure with small denominators.

    Weights are a composition of a denominator D <= max_den, so the total
    mass is exactly 1 and every weight has denominator at most max_den.
    """
    k = rng.randint(1, max_atoms)
    den_w = rng.randint(max(2, k), max_den)
    cuts = sorted(rng.randint(0, den_w) for _ in range(k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den_w])]
    atoms = []
    for part in parts:
        if part == 0:
            continue
        point = (rat(rng.randint(-span, span), rng.randint(1, max_den)),)
        atoms.append((point, rat(part, den_w)))
    if not atoms:
        atoms = [((rat(0),), rat(1))]
    return Measure(1, atoms)


def random_measure_2d(rng: random.Random, max_atoms: int = 5, max_den: int = 8) -> Measure:
    k = rng.randint(1, max_atoms)
    den_w = rng.randint(max(2, k), 16)
    cuts = sorted(rng.randint(0, den_w) for _ in range(k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den_w])]
    atoms = []
    for part in parts:
        if part == 0:
            continue
        point = (
            rat(rng.randint(-8, 8), rng.randint(1, max_den)),
            rat(rng.randint(-8, 8), rng.randint(1, max_den)),
        )
        atoms.append((point, rat(part, den_w)))
    if not atoms:
        atoms = [((rat(0), rat(0)), rat(1))]
    return Measure(2, atoms)


def random_measure_3d(
    rng: random.Random, max_atoms: int = 6, max_den: int = 6, span: int = 8
) -> Measure:
    """Random 3-D probability measure with coordinates in [-span, span]."""
    atoms = {
        tuple(rat(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(3)): rat(
            rng.randint(1, 9)
        )
        for _ in range(rng.randint(1, max_atoms))
    }
    return Measure(3, atoms).normalized()


def composition(rng: random.Random, k: int, total: int) -> list:
    """k positive rationals over ``total`` that sum to 1 (k <= total)."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [rat(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


def endpoints(mu: Measure) -> tuple:
    """(min, mean, max) of a 1-D probability measure, exact."""
    xs = [x for (x,) in mu.atoms]
    return min(xs), sum(x * w for (x,), w in mu.atoms.items()), max(xs)


def measures_on(hyp, dim: int, dens=(1, 2, 3, 6)):
    """Hypothesis strategy: 1 to 5 atoms with coordinates k/q for q in
    ``dens``, negatives included.  The default puts them in (1/6)Z, so steps
    such as 1/3 and 1/2 are off the integer lattice."""
    st = hyp.strategies
    coord = st.builds(rat, st.integers(-6, 6), st.sampled_from(dens))
    weight = st.builds(rat, st.integers(1, 9), st.sampled_from([1, 2, 4, 5, 7]))
    points = st.tuples(*[coord] * dim)
    return st.dictionaries(points, weight, min_size=1, max_size=5).map(
        lambda atoms: Measure(dim, atoms)
    )


def literals(st, signs=("", "+", "-"), bent: bool = False):
    """A Hypothesis strategy for number literals of every form that
    ``Fraction(str)`` knows: ints, "p/q", the given signs, decimals,
    exponents, underscores and surrounding spaces.  If ``bent``, one in three
    has a character put in where it may break the grammar."""
    digits = st.one_of(
        st.text("0123456789", min_size=1, max_size=5), st.integers(0, 10**6).map(str)
    )
    grouped = st.lists(digits, min_size=1, max_size=3).map("_".join)
    number = st.one_of(digits, grouped)
    exponent = st.builds(
        "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
        st.one_of(number, st.integers(0, 5000).map(str)),
    )
    decimal = st.builds(
        "{}.{}{}".format, st.one_of(st.just(""), number), st.one_of(st.just(""), number),
        st.one_of(st.just(""), exponent),
    )
    body = st.one_of(
        number,
        st.builds("{}{}".format, number, exponent),
        st.builds("{}{}/{}{}".format, number, st.sampled_from(["", " "]),
                  st.sampled_from(["", " "]), number),
        decimal,
    )
    pad = st.sampled_from(["", " ", "\t", " \n"])
    literal = st.builds("{0}{1}{2}{0}".format, pad, st.sampled_from(signs), body)
    if not bent:
        return literal
    broken = st.builds(
        lambda text, i, junk: text[:i] + junk + text[i:],
        literal, st.integers(0, 12), st.sampled_from(["_", ".", "/", "e", "-", " ", "x", "d"]),
    )
    return st.one_of(literal, literal, broken)


def kernel_settings(hyp):
    """Derandomized Hypothesis settings, so every run draws the same examples."""
    return hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)


def log_mgf_reference(p, r: float) -> float:
    """``_Projected.log_mgf`` as written with the max taken by ``a.max()``,
    before it read the max at an end of the sorted ``z``."""
    a = r * p.z
    m = a.max()
    return float(m + math.log(float(np.dot(p.w, np.exp(a - m)))))


def lev_curve_reference(p, rs: np.ndarray) -> np.ndarray:
    """``_Projected.lev_curve`` as written with each row's max taken by
    ``a.max(axis=1)``, before it read the max at an end of the sorted ``z``."""
    a = rs[:, None] * p.z[None, :]
    m = a.max(axis=1)
    zero = rs == 0.0
    safe = np.where(zero, 1.0, rs)
    vals = (m + np.log((p.w[None, :] * np.exp(a - m[:, None])).sum(axis=1))) / safe
    if zero.any():
        vals[zero] = float(p.mean)
    return vals


def margin_minima_reference(margin, thetas) -> list:
    """The local-minimum scan that ``compare_on_ray`` ran on its margins
    before ``spectrum._local_minima``, up to its pruning test: ``(idx, lo,
    hi)`` for each bracket it went on to test."""
    found = []
    for idx in range(len(margin)):
        m = margin[idx]
        left = margin[idx - 1] if idx > 0 else math.inf
        right = margin[idx + 1] if idx + 1 < len(margin) else math.inf
        if m <= left and m <= right:
            i_lo, i_hi = max(idx - 1, 0), min(idx + 1, len(margin) - 1)
            lo, hi = thetas[i_lo], thetas[i_hi]
            if lo < hi:
                found.append((idx, lo, hi))
    return found


def profile_maxima_reference(vals, thetas) -> list:
    """The local-maximum scan that ``relative_rate_rhs`` ran on each ray's
    profile before ``spectrum._local_minima``: ``(idx, lo, hi)`` for each
    bracket it refined."""
    last = len(thetas) - 1
    found = []
    for idx, v in enumerate(vals):
        left = vals[idx - 1] if idx > 0 else -math.inf
        right = vals[idx + 1] if idx < last else -math.inf
        if v >= left and v >= right:
            lo, hi = thetas[max(idx - 1, 0)], thetas[min(idx + 1, last)]
            if lo < hi:
                found.append((idx, lo, hi))
    return found


def transport_feasible_reference(inst) -> TransportResult:
    """``solvers.transport_feasible`` as it ran on ``Fraction`` supplies and
    demands, before the max-flow moved to ints over one common denominator.

    Greedy warm start in edge order, then BFS augmenting paths; the cut is
    the set of supplies the last search reached.  Takes any record with
    valid ``supplies``, ``demands`` and ``edges``, of ``Fraction``s or ints.
    """
    m, k = len(inst.supplies), len(inst.demands)
    adj: list[list[int]] = [[] for _ in range(m)]
    radj: list[list[int]] = [[] for _ in range(k)]
    for i, j in dict.fromkeys(inst.edges):
        adj[i].append(j)
        radj[j].append(i)
    flow: dict = {}
    r_s = list(inst.supplies)
    r_d = list(inst.demands)
    for i, j in inst.edges:
        if r_s[i] > 0 and r_d[j] > 0:
            push = min(r_s[i], r_d[j])
            flow[(i, j)] = flow.get((i, j), ZERO) + push
            r_s[i] -= push
            r_d[j] -= push

    while True:
        visited_s = [False] * m
        visited_d = [False] * k
        prev_d: dict = {}
        prev_s: dict = {}
        queue: deque = deque()
        for i in range(m):
            if r_s[i] > 0:
                visited_s[i] = True
                prev_s[i] = None
                queue.append(i)
        target = None
        while queue and target is None:
            i = queue.popleft()
            for j in adj[i]:
                if visited_d[j]:
                    continue
                visited_d[j] = True
                prev_d[j] = i
                if r_d[j] > 0:
                    target = j
                    break
                for i2 in radj[j]:
                    if not visited_s[i2] and flow.get((i2, j), ZERO) > 0:
                        visited_s[i2] = True
                        prev_s[i2] = j
                        queue.append(i2)
        if target is None:
            break
        path: list = []
        j = target
        while True:
            i = prev_d[j]
            path.append((i, j, True))
            back = prev_s[i]
            if back is None:
                break
            path.append((i, back, False))
            j = back
        root = path[-1][0]
        bottleneck = min(r_d[target], r_s[root])
        for i, j, forward in path:
            if not forward and flow[(i, j)] < bottleneck:
                bottleneck = flow[(i, j)]
        for i, j, forward in path:
            if forward:
                flow[(i, j)] = flow.get((i, j), ZERO) + bottleneck
            else:
                flow[(i, j)] -= bottleneck
        r_s[root] -= bottleneck
        r_d[target] -= bottleneck

    if all(r == 0 for r in r_s):
        return TransportResult(True, {e: f for e, f in flow.items() if f > 0}, None)
    return TransportResult(False, None, frozenset(i for i in range(m) if visited_s[i]))


def leq_flow_reference(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    """``stochorder._leq_flow`` as it found the admissible pairs before the
    normal keys: ``Cone.leq_point`` on every pair of the sorted supports, in
    (i, j) order, with no check of the plan afterwards."""
    supp_mu, supp_nu = mu.support(), nu.support()
    edges = [
        (i, j)
        for i, x in enumerate(supp_mu)
        for j, y in enumerate(supp_nu)
        if cone.leq_point(x, y)
    ]
    inst = SimpleNamespace(
        supplies=[mu.atoms[x] for x in supp_mu], demands=[nu.atoms[y] for y in supp_nu], edges=edges
    )
    result = transport_feasible_reference(inst)
    if result.feasible:
        plan = {(supp_mu[i], supp_nu[j]): f for (i, j), f in sorted(result.plan.items())}
        return OrderVerdict(True, CouplingPlan(plan), None)
    return OrderVerdict(False, None, sorted(supp_mu[i] for i in result.cut))


def upset_mass_reference(mu: Measure, cone: Cone, generators) -> Fraction:
    """``stochorder.upset_mass`` as it ran before it read the integer view:
    every atom decoded to a ``Fraction`` point and weight, and an atom
    counted when ``Cone.leq_point`` puts some generator below it."""
    gens = [as_point(g, mu.dim) for g in generators]
    return sum((w for x, w in mu.atoms.items() if any(cone.leq_point(g, x) for g in gens)), ZERO)


def relative_rate_lhs_1d_reference(X: Measure, Y: Measure, cone: Cone, n: int, eps) -> float:
    """The 1-D ``ldp.relative_rate_lhs`` as it ran before it read its
    thresholds off the tail indexes: both powers decoded to ``Fraction``
    atoms, the thresholds their points and Y^n's shifted by ``n eps unit``,
    each answered by ``tail_mass``.  Takes a valid 1-D pair, n >= 1 and
    eps > 0."""
    unit = cone.unit[0]
    if not is_upward_1d(cone):
        X, Y, unit = project(X, (-1,)), project(Y, (-1,)), -unit
    num, den = convolve_power(X, n), convolve_power(Y, n)
    up = n * as_rat(eps) * unit
    best = -math.inf
    for t in {x for (x,) in num.atoms} | {y + up for (y,) in den.atoms}:
        num_mass, den_mass = tail_mass(num, t), tail_mass(den, t - up)
        if num_mass == 0:
            continue
        if den_mass == 0:
            return math.inf
        best = max(best, (log_rat(num_mass) - log_rat(den_mass)) / n)
    return best


def relative_rate_lhs_scan_reference(X: Measure, Y: Measure, cone: Cone, n: int, eps) -> float:
    """The 1-D ``ldp.relative_rate_lhs`` as it ran before it decided the
    infinite case by one comparison of the two tops: its thresholds off the
    tail indexes' int keys, each answered by ``tail_mass``, and ``+inf``
    returned at the first threshold with mass above and none below.  Takes a
    valid 1-D pair, n >= 1 and eps > 0."""
    unit = cone.unit[0]
    if not is_upward_1d(cone):
        X, Y, unit = project(X, (-1,)), project(Y, (-1,)), -unit
    num, den = convolve_power(X, n), convolve_power(Y, n)
    (s_num, keys_num, _, _), (s_den, keys_den, _, _) = num._tail_index(), den._tail_index()
    up = n * as_rat(eps) * unit
    best = -math.inf
    for t in {rat(k, s_num) for k in keys_num} | {rat(k, s_den) + up for k in keys_den}:
        num_mass, den_mass = tail_mass(num, t), tail_mass(den, t - up)
        if num_mass == 0:
            continue
        if den_mass == 0:
            return math.inf
        best = max(best, (log_rat(num_mass) - log_rat(den_mass)) / n)
    return best


def catalyst_1d_lp_only(X: Measure, Y: Measure, grid) -> Catalyst | None:
    """``dominance.catalyst_1d`` with the LP as the only judge: no endpoint
    screen, and one ``tail_mass`` gap per threshold and grid point, each row
    scaled to ints over the lcm of its own denominators rather than over
    ``catalyst_1d``'s common one.  Takes 1-D probability measures and a
    nonempty grid."""
    grid_pts = sorted({as_rat(g) for g in grid})
    support = {x for (x,) in X.atoms} | {y for (y,) in Y.atoms}
    thresholds = sorted({s + g for s in support for g in grid_pts})
    rows = []
    for c in thresholds:
        _, gaps = over_lcm([tail_mass(X, c - g) - tail_mass(Y, c - g) for g in grid_pts])
        rows.append((dict(enumerate(gaps)), 0))
    simplex = (dict.fromkeys(range(len(grid_pts)), 1), 1)
    x = lp_feasible(LinearFeasibility(len(grid_pts), rows, [simplex]))
    if x is None:
        return None
    Z = Measure(1, {(g,): w for g, w in zip(grid_pts, x) if w > 0})
    verified = leq_st(convolve(X, Z), convolve(Y, Z), Cone.halfline()).dominated
    return Catalyst(Z=Z, grid_step=_grid_step(grid_pts), verified=verified)


def lattice_step_reference(values):
    """``dominance._lattice_step`` as a fold of rational gcds, before it took
    one gcd of ints over the common denominator: gcd(a, b) of two rationals
    is gcd of the numerators over lcm of the denominators."""
    step = ZERO
    for v in values[1:]:
        a, b = abs(step), abs(v - values[0])
        step = rat(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator))
    return step if step > 0 else rat(1)


def int_view_reference(mu: Measure) -> tuple:
    """``Measure._int_view`` as written before it called ``rational.over_lcm``:
    the atoms sorted by point, the lcm of the coordinate denominators and that
    of the weight denominators, and every value scaled inline."""
    atoms = dict(sorted(mu.atoms.items()))
    s = math.lcm(*{c.denominator for x in atoms for c in x})
    d = math.lcm(*{w.denominator for w in atoms.values()})
    coords = [tuple(c.numerator * (s // c.denominator) for c in x) for x in atoms]
    weights = [w.numerator * (d // w.denominator) for w in atoms.values()]
    return s, coords, d, weights


def measure_reference(dim: int, atoms) -> tuple:
    """``Measure(dim, atoms)`` as it was built before the int builder: every
    value through ``as_rat``, duplicates merged and zero weights dropped on
    ``Fraction`` weights, then the atoms sorted by point and both lists
    encoded with ``over_lcm``.  Returns the atom map in that order, the
    integer view and the ``repr``."""
    merged: dict = {}
    for point, weight in atoms:
        pt, w = tuple(as_rat(c) for c in point), as_rat(weight)
        if w < 0:
            raise ValueError(f"negative weight {w} at {point_str(pt)}")
        if w:
            merged[pt] = merged.get(pt, 0) + w
    cleaned = dict(sorted(merged.items()))
    s, flat = over_lcm([c for x in cleaned for c in x])
    d, weights = over_lcm(list(cleaned.values()))
    view = (s, [tuple(flat[i : i + dim]) for i in range(0, len(flat), dim)], d, weights)
    inner = ", ".join(f"{tuple(str(c) for c in p)}: {w}" for p, w in sorted(cleaned.items())[:4])
    extra = "" if len(cleaned) <= 4 else f", ... {len(cleaned)} atoms"
    return cleaned, view, f"Measure(dim={dim}, {{{inner}{extra}}})"


def project_ints_reference(mu: Measure, t) -> tuple:
    """The integer view of ``measure.project(mu, t)``, built apart from it:
    ``t`` scaled inline, the int keys merged over ``int_view_reference``'s
    view, then sorted and encoded again with ``over_lcm`` from the rationals
    they stand for, which divides out both gcds."""
    tv = as_point(t, mu.dim)
    scale = math.lcm(*(c.denominator for c in tv))
    ti = [c.numerator * (scale // c.denominator) for c in tv]
    s, coords, d, weights = int_view_reference(mu)
    merged: dict = {}
    for x, w in zip(coords, weights):
        k = sum(map(mul, ti, x))
        merged[k] = merged.get(k, 0) + w
    keys = sorted(merged)
    s_out, ints = over_lcm([rat(k, s * scale) for k in keys])
    d_out, ws = over_lcm([rat(merged[k], d) for k in keys])
    return s_out, [(k,) for k in ints], d_out, ws


def min_n_reference(X: Measure, Y: Measure, cone: Cone, n_max: int, cap: int = DEFAULT_ATOM_CAP):
    """``dominance.min_n`` as it ran in every dimension before 1-D powers
    moved to one int lattice: each power by ``convolve_power``, each n
    decided by ``leq_st``.  Takes a valid pair and ``n_max >= 1``."""
    results = [
        (n, leq_st(convolve_power(X, n, cap), convolve_power(Y, n, cap), cone))
        for n in range(1, n_max + 1)
    ]
    failures = [(n, v.witness_upset) for n, v in results if not v.dominated]
    if failures and failures[-1][0] == n_max:
        return MinNResult(found=False, n0=None, stable_through=n_max, failures=failures)
    last_fail = failures[-1][0] if failures else 0
    return MinNResult(found=True, n0=last_fail + 1, stable_through=n_max, failures=failures)


def power_by_squaring_reference(mu: Measure, n: int, cap: int = DEFAULT_ATOM_CAP) -> Measure:
    """``measure.convolve_power`` as it built every power before dense ones
    became one big-int ``pow``: repeated squaring with
    ``measure._convolve_packed`` on the packed keys of ``measure._pack``,
    the cap checked on every intermediate.  Takes n >= 1 and a nonempty mu."""
    scale, steps, (low,), (offsets,) = _lattice((mu,))
    radices = [n * max(k[i] for k in offsets) + 1 for i in range(mu.dim)]
    base, denom = _pack(mu, offsets, radices)
    acc, k = {0: 1}, n
    while k:
        if k & 1:
            acc = _convolve_packed(acc, base, cap)
        k >>= 1
        if k:
            base = _convolve_packed(base, base, cap)
    return _unpack(acc, radices, [n * a for a in low], steps, scale, denom**n)


def rate_multid_reference(mu: Measure, c, cone: Cone, opts, steps_taken=None) -> RateResult:
    """``ldp._rate_multid`` as it ran with one numpy call per vector
    operation, one start after another: per-ray ``r @ grad_t`` dots,
    ``tilted_mean_vec`` recomputing its exponentials, and the conic
    combination summed per coordinate on Python floats.  ``c`` is a point of
    rationals.  A ``steps_taken`` list gets the number of taken steps of
    each start, in start order."""

    def _log_sum_exp(a: np.ndarray, w: np.ndarray) -> float:
        m = a.max()
        return float(m + math.log(float(np.dot(w, np.exp(a - m)))))

    def _conic_combination(lam: np.ndarray, cols: list) -> np.ndarray:
        lam = lam.tolist()
        return np.array([reduce(add, map(mul, lam, col), 0) for col in cols])

    directions = cone.dual_directions(opts.n_samples, opts.seed)
    for d in directions:
        s, keys, _, _ = project(mu, d.t)._int_view()
        cm = sum(tc * cc for tc, cc in zip(d.t, c))
        if cm > rat(keys[-1][0], s):
            return RateResult(math.inf, (d, math.inf), EXACT_LIMIT)

    rays = [np.array([float(x) for x in d.t]) for d in directions]
    cols = np.array(rays).T.tolist()
    cf = np.array([float(x) for x in c])
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
        step, taken = 1.0, 0
        for _ in range(MAX_ITER):
            grad_t = cf - tilted_mean_vec(t)
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
            taken += 1
        if steps_taken is not None:
            steps_taken.append(taken)
        if val > best_val:
            best_val = val
            best_t = t
    if best_t is None or best_val <= 0.0:
        return RateResult(0.0, None, GRID_REFINED)
    radial = float(best_t @ np.array([float(u) for u in cone.unit]))
    direction = _nearest_direction(best_t / radial, directions)
    return RateResult(best_val, (direction, radial), GRID_REFINED)


def relative_rate_rhs_reference(X, Y, cone, opts=None) -> tuple:
    """``ldp.relative_rate_rhs`` as it ran ray by ray, before its scan read
    Python floats: each ray's profile in a numpy array, read back as numpy
    scalars, and each local maximum refined at once by its own
    ``_golden_min`` on ``_Projected.log_mgf``.  Returns ``(value,
    maximizer)``."""
    opts = opts or RateOptions()
    best_val = 0.0
    best = None
    for d in cone.dual_directions(opts.n_samples, opts.seed):
        px = _Projected.of(X, d.t)
        py = _Projected.of(Y, d.t)
        if px.max > py.max:
            return math.inf, (d, math.inf)
        if px.max == py.max:
            limit = log_rat(px.w_max / py.w_max)
            if limit > best_val:
                best_val, best = limit, (d, math.inf)

        def g(theta):
            r = math.tan(theta)
            if r == 0.0:
                return 0.0
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
                    theta_star, neg = _golden_min(lambda th: -g(th), lo, hi, REFINE_TOL)
                    if -neg > best_val:
                        best_val, best = -neg, (d, math.tan(theta_star))
            if v > best_val:
                best_val, best = float(v), (d, float(math.tan(thetas[idx])))
    return best_val, best


def cube_rays(dim: int) -> list:
    """The rays (+-1, .., +-1, 1) of the cone over the cube [-1, 1]^(dim-1)."""
    return [(*signs, 1) for signs in product((-1, 1), repeat=dim - 1)]


def bernoulli(p) -> Measure:
    """Measure with mass p at 1 and 1-p at 0."""
    p = rat(str(p)) if isinstance(p, str) else rat(p)
    return Measure(1, {(0,): 1 - p, (1,): p})


@pytest.fixture(scope="module")
def hyp():
    return pytest.importorskip("hypothesis")


@pytest.fixture
def int_digit_limit():
    """Python's default 4300-digit limit on int-string conversion, whatever
    the environment sets, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture
def halfline() -> Cone:
    return Cone.halfline()


@pytest.fixture
def orthant2() -> Cone:
    return Cone.orthant(2)


@pytest.fixture
def curated_pair() -> tuple[Measure, Measure]:
    """Strictly spectrally dominant 1-D pair with a nontrivial minimal n."""
    X = Measure(1, {("2/5",): "1/10", ("3/5",): "9/10"})
    Y = Measure(1, {("1/2",): "1/2", ("4/5",): "1/2"})
    return X, Y
