"""Shared generators and curated measures for the test suite."""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest

from walkorder import Cone, Measure, convolve, convolve_power, leq_st
from walkorder.dominance import Catalyst, MinNResult, _grid_step
from walkorder.measure import DEFAULT_ATOM_CAP, as_point
from walkorder.rational import ZERO, as_rat, over_lcm, point_str, rat
from walkorder.solvers import (
    LinearFeasibility,
    TransportResult,
    lp_feasible,
)
from walkorder.stochorder import CouplingPlan, OrderVerdict, tail_mass


# the three shapes a 1-D cone takes: [0, inf), (-inf, 0], and (-inf, 0] with
# a scaled normal and unit
CONES_1D = [
    Cone.halfline(),
    Cone(1, [(-1,)], [(-1,)], (-1,)),
    Cone(1, [(-2,)], [(-3,)], (-5,)),
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
