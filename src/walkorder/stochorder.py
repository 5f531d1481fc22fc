"""Exact decider for the stochastic preorder between finitely supported measures.

``leq_st`` is the one decider and picks its route: a greedy sweep on the
integer normal keys in 1-D, transportation feasibility over the admissible
pairs {(x, y) : x <= y} otherwise.  Both return a certificate: a coupling
supported on the order relation when dominated, or generators of a violating
closed upset when not.  Tail and upset masses are int weight sums, one
``Fraction`` per answer.

Each route and ``principal_upset_masses`` map each point once to its
integer normal key (``_normal_keys``): over a common denominator S, the key
of x is ``<n, S x>`` for every integer normal n of the cone, so x <= y iff
each coordinate of x's key is at most y's.  The flow's admissible pairs are
read off these keys (``_keyed_edges``): per key coordinate, nu's atoms sorted
by it give int suffix bitmasks, and each atom of mu ANDs the masks at its
own coordinates and lists the set bits, the pairwise scan's edges in its
(i, j) order.  For a cone of at most two integer normals, x <= y is the
product order on two int keys, and ``_keyed_sweep`` finds a coupling
greedily, without a flow.  A 1-D cone has one normal, so one key per atom,
and there the sweep's coupling is the comonotone (quantile) one; where it
leaves mass over, one int walk down both laws' keys (``_tail_walk``) finds
the minimal min cut, the certificate the flow route gives (Strassen 1965;
Kamae, Krengel & O'Brien 1977).  ``dominance.min_n`` runs the same walk on
its 1-D powers, and decides each n with the sweep in d >= 2, while
``leq_st`` keeps the flow there, whose plan ``order-check`` prints.

This module is the one place that checks order certificates, each once; the
max-flow returns its plan or cut unchecked.  Before a coupling is returned
its marginals are summed on ints, and its entries must be positive and its
pairs pass ``Cone.leq_point`` (``_checked_plan``).  Before a 1-D cut is
returned its upset's two masses are compared on the int keys
(``_checked_cut``); before the flow's cut is decoded its supply is compared
with the demand its edges reach.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from math import lcm
from operator import ge, mul
from typing import Optional, Sequence

from .cones import Cone, require_same_dim
from .errors import DimensionMismatch, MassMismatch
from .measure import Measure, as_point, require_equal_dims
from .rational import Rational, over_lcm, point_str, rat
from .solvers import TransportInstance, transport_feasible


@dataclass(frozen=True)
class CouplingPlan:
    """A joint measure on ordered pairs whose marginals are the two inputs."""

    entries: dict  # (x, y) -> positive weight, with x <= y in the cone order


@dataclass(frozen=True)
class OrderVerdict:
    dominated: bool
    witness_coupling: Optional[CouplingPlan]
    witness_upset: Optional[list]  # generator points of a violating closed upset


def upset_mass(mu: Measure, cone: Cone, generators: Sequence) -> Rational:
    """Mass mu gives to the closed upset generated by the given points, read
    off the integer view without decoding an atom.

    Each generator g is scaled once to ``S g``; atom ``x / S`` lies above g
    iff ``cone.leq_point(S g, x)`` on the int point x, the same order since
    S > 0.  The atoms are tested in the view's order, and the int weights of
    those above a generator are summed over D.
    """
    require_same_dim(cone, mu.dim)
    s, coords, d, weights = mu._int_view()
    gens = [tuple(s * c for c in as_point(g, mu.dim)) for g in generators]
    above = (any(cone.leq_point(g, x) for g in gens) for x in coords)
    return rat(sum(w for w, up in zip(weights, above) if up), d)


def principal_upset_masses(mu: Measure, cone: Cone, generators: Sequence) -> list:
    """``[upset_mass(mu, cone, [g]) for g in generators]``, exactly.

    Each atom and generator is mapped once to integer normal coordinates:
    the atom ``x / S`` of the integer view to ``<n, x>`` for every integer
    normal n, the generator g to ``ceil(S <n, g>)``.  g <= x in the cone
    order iff every coordinate of x is at least g's.  Atoms are sorted by
    their first coordinate, so a bisection skips those below g's, and the
    masses are sums of the view's int weights over D.
    """
    require_same_dim(cone, mu.dim)
    gens = [as_point(g, mu.dim) for g in generators]
    s, coords, d, weights = mu._int_view()
    atoms = sorted((k[0], k[1:], w) for k, w in zip(_normal_keys(cone, coords), weights))
    firsts = [a[0] for a in atoms]
    masses = []
    for g in gens:
        den, gi = over_lcm(g)
        low0, *low = (-(-s * k // den) for k in _normal_keys(cone, [gi])[0])
        above = islice(atoms, bisect_left(firsts, low0), None)
        masses.append(rat(sum(w for _, key, w in above if all(map(ge, key, low))), d))
    return masses


def _normal_keys(cone: Cone, coords) -> list:
    """The key ``<n, x>`` over the cone's integer normals n of each int point
    x: x <= y in the cone order iff ``all(map(le, key(x), key(y)))``."""
    normals = cone._int_normals
    return [tuple(sum(map(mul, n, x)) for n in normals) for x in coords]


def _keyed_edges(keys_mu: Sequence, keys_nu: Sequence) -> list:
    """The pairs (i, j) with ``all(map(le, keys_mu[i], keys_nu[j]))``, in
    (i, j) order.  For each key coordinate, nu's atoms sorted by it give
    suffix bitmasks: bit j of the mask at position t is set iff atom j is
    among the sorted atoms from t on.  Row i ANDs, over the coordinates, the
    mask at the first sorted value at least ``keys_mu[i]``'s, and lists its
    set bits from low to high."""
    n = len(keys_nu)
    columns = []
    for c in range(len(keys_nu[0]) if keys_nu else 0):
        order = sorted(range(n), key=lambda j: keys_nu[j][c])
        masks = [0] * (n + 1)
        for t in range(n - 1, -1, -1):
            masks[t] = masks[t + 1] | 1 << order[t]
        columns.append(([keys_nu[j][c] for j in order], masks))
    edges = []
    for i, kx in enumerate(keys_mu):
        row = (1 << n) - 1  # nu's atoms; not -1, which empty keys would never bound
        for (values, masks), x in zip(columns, kx):
            row &= masks[bisect_left(values, x)]
        while row:
            low = row & -row
            edges.append((i, low.bit_length() - 1))
            row ^= low
    return edges


def tail_mass(mu: Measure, c) -> Rational:
    """1-D closed tail mass mu([c, infinity)), exact.

    ``c`` is an exact rational, an int, a fraction string or a 1-tuple of
    one; floats raise TypeError.  The first call on a measure builds its tail
    index, one suffix sum over the sorted view, in O(N); a call then bisects
    its ints at ``ceil(c S)`` in O(log N) and builds one ``Fraction``, so a
    sweep over all N thresholds is O(N log N).
    """
    if mu.dim != 1:
        raise DimensionMismatch("tail_mass requires a 1-D measure")
    cp = as_point((c,) if not isinstance(c, (tuple, list)) else c, 1)[0]
    s, keys, d, suffix = mu._tail_index()
    return rat(suffix[bisect_left(keys, -(-cp.numerator * s // cp.denominator))], d)


def leq_st(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    """Decide mu <= nu in the stochastic order induced by the cone.

    Dominated iff a coupling is supported on {(x, y) : x <= y}; otherwise the
    witness is a set A of mu's atoms with mu(A) > nu(upset of A).
    """
    require_equal_dims(mu, nu)
    require_same_dim(cone, mu.dim)
    if mu.mass() != nu.mass():
        raise MassMismatch(
            f"total masses differ ({mu.mass()} vs {nu.mass()}); "
            "stochastic comparability requires equal normalization"
        )
    if mu.dim > 1:
        return _leq_flow(mu, nu, cone)
    # one key per atom: the sweep's coupling is the comonotone one
    keyed = _over_one_lcm(mu, nu, cone)
    plan = _keyed_sweep(mu, nu, cone, keyed)
    if plan is not None:
        return OrderVerdict(True, plan, None)
    # mass left over: one walk down the same keys finds the minimal cut
    point, _, ((xs, keys_mu, supplies), (_, keys_nu, demands)) = keyed
    top = sorted(range(len(xs)), key=keys_mu.__getitem__, reverse=True)
    levels_mu = [(keys_mu[i][0], supplies[i]) for i in top]
    levels_nu = sorted(((k, w) for (k,), w in zip(keys_nu, demands)), reverse=True)
    cut = _checked_cut(levels_mu, levels_nu, _tail_walk(levels_mu, levels_nu))
    return OrderVerdict(False, None, sorted(point(xs[i]) for i in top[:cut]))


def _tail_walk(xs: Sequence, ys: Sequence) -> int:
    """``cut`` for ``(level, weight)`` int pairs of two laws of equal total
    weight, each from the top (the largest level) down.  With
    ``gap = x(up c) - y(up c)``, the highest c of largest positive gap
    generates the minimal min cut, the first ``cut`` entries of xs; ``cut``
    is 0 iff x <= y."""
    gap = best = cut = j = 0
    for i, (x, w) in enumerate(xs):
        gap += w
        while j < len(ys) and ys[j][0] >= x:
            gap -= ys[j][1]
            j += 1
        if gap > best:
            best, cut = gap, i + 1
    return cut


def _checked_cut(xs: Sequence, ys: Sequence, cut: int) -> int:
    """``cut`` of ``_tail_walk(xs, ys)``, checked on the int levels: the
    upset generated by the first ``cut`` entries of xs, every level at or
    above the lowest of them, must weigh more under xs than under ys, or
    ``RuntimeError`` is raised, as ``_checked_plan`` raises for a coupling."""
    if cut:
        low = xs[cut - 1][0]
        if sum(w for x, w in xs if x >= low) > sum(w for y, w in ys if y >= low):
            return cut
    raise RuntimeError(f"cut of the top {cut} atoms is not a violating upset")


def _leq_flow(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    # Feasible iff max flow saturates the supplies over admissible edges
    # {(x, y) : x <= y}; on failure the min cut is the supply set A.  The
    # edges come from the normal keys of both views over one lcm, by bitmask
    # rows in the (i, j) order of the pairwise scan, and the supplies and
    # demands are the int weights over D.  A cut must weigh more than the
    # demand its edges reach.  Only the plan's weights, once per entry, and
    # the coordinates of its and the witness's points, once per distinct
    # value, are decoded to rationals.
    point, d, sides = _over_one_lcm(mu, nu, cone)
    (xs, keys_mu, supplies), (_, keys_nu, demands) = sides
    edges = _keyed_edges(keys_mu, keys_nu)
    result = transport_feasible(TransportInstance(supplies, demands, edges))
    if result.feasible:
        return OrderVerdict(True, _checked_plan(cone, point, d, sides, result.plan), None)
    cut = result.cut
    if sum(supplies[i] for i in cut) <= sum(demands[j] for j in {j for i, j in edges if i in cut}):
        raise RuntimeError("max-flow returned a cut that its neighbours can absorb")
    return OrderVerdict(False, None, [point(xs[i]) for i in sorted(cut)])


def _keyed_sweep(
    mu: Measure, nu: Measure, cone: Cone, keyed: Optional[tuple] = None
) -> Optional[CouplingPlan]:
    """A coupling of mu and nu, of equal mass, supported on {x <= y}, or None
    when there is none; for a cone of at most two integer normals, in any
    dimension, where x <= y is the product order on two int keys.

    The keys are ``_normal_keys`` of both views over one lcm, padded with 0
    to two coordinates.  They are visited by first coordinate, descending,
    nu's atoms before mu's at a tie, so the nu atoms seen so far are those
    whose first key is at least the current mu atom's.  Each mu atom takes
    the nu mass left of least second key at or above its own, found by
    bisection in a sorted list, splitting int weights as needed; mass left
    over means no coupling exists (Strassen 1965).  Taking the least such
    key is safe: every later mu atom has a first key at most this one's, so
    any nu atom it could use instead serves the later atoms at least as
    well.  With one key, as in 1-D, every second key is 0, so each mu atom
    takes the highest nu atom with mass left: the comonotone coupling.  The
    marginals and pairs are checked before the coupling is returned, as
    ``_leq_flow`` checks its plan.  ``keyed`` is
    ``_over_one_lcm(mu, nu, cone)`` when the caller has built it already.
    """
    point, d, sides = keyed or _over_one_lcm(mu, nu, cone)
    (xs, keys_mu, supplies), (ys, keys_nu, demands) = sides
    keys_mu, keys_nu = ([(*k, 0)[:2] for k in keys] for keys in (keys_mu, keys_nu))
    arrivals = sorted(range(len(ys)), key=lambda j: keys_nu[j][0], reverse=True)
    seconds, owners = [], []  # second keys of the nu atoms seen with mass left, ascending
    left, flows, t = demands[:], {}, 0
    for i in sorted(range(len(xs)), key=lambda i: keys_mu[i][0], reverse=True):
        first, second = keys_mu[i]
        while t < len(arrivals) and keys_nu[arrivals[t]][0] >= first:
            j = arrivals[t]
            pos = bisect_right(seconds, keys_nu[j][1])
            seconds.insert(pos, keys_nu[j][1])
            owners.insert(pos, j)
            t += 1
        w, pos = supplies[i], bisect_left(seconds, second)
        while w:
            if pos == len(owners):
                return None
            j = owners[pos]
            flows[i, j] = step = min(w, left[j])
            w -= step
            left[j] -= step
            if not left[j]:
                del seconds[pos], owners[pos]
    return _checked_plan(cone, point, d, sides, flows)


def _over_one_lcm(mu: Measure, nu: Measure, cone: Cone) -> tuple:
    """``(point, d, sides)`` for the order routes: both integer
    views over one lcm S of their scales and one lcm d of their weight
    denominators, each side ``(points, normal keys, weights)`` in the
    views' sorted order, and ``point``, which decodes an int point over S,
    each distinct coordinate once."""
    views = mu._int_view(), nu._int_view()
    s, d = lcm(*(view[0] for view in views)), lcm(*(view[2] for view in views))
    coord = cache(partial(rat, denominator=s))

    def point(x: tuple) -> tuple:
        return tuple(map(coord, x))

    sides = []
    for sm, coords, dm, weights in views:
        pts = [tuple(c * (s // sm) for c in x) for x in coords]
        sides.append((pts, _normal_keys(cone, pts), [w * (d // dm) for w in weights]))
    return point, d, sides


def _checked_plan(cone: Cone, point, d: int, sides: Sequence, flows: dict) -> CouplingPlan:
    """The coupling of the int ``flows`` ``{(i, j): f}`` from xs to ys of
    ``sides = ((xs, _, supplies), (ys, _, demands))``, in (i, j) order, which
    is (x, y) order on the point-sorted views, each entry ``f / d``.  The
    flows must sum to the supplies per row and to the demands per column,
    then each entry must be positive and each pair pass the public
    predicate, or ``RuntimeError`` is raised."""
    (xs, _, supplies), (ys, _, demands) = sides
    rows, cols = [0] * len(xs), [0] * len(ys)
    for (i, j), f in flows.items():
        rows[i] += f
        cols[j] += f
    if rows != supplies or cols != demands:
        raise RuntimeError("coupling marginals differ from the two laws")
    for (i, j), f in flows.items():
        if f <= 0:
            x, y = point_str(point(xs[i])), point_str(point(ys[j]))
            raise RuntimeError(f"coupling puts weight {rat(f, d)} on {x} with {y}")
    plan = {(point(xs[i]), point(ys[j])): rat(f, d) for (i, j), f in sorted(flows.items())}
    for x, y in plan:
        if not cone.leq_point(x, y):
            raise RuntimeError(f"coupling pairs {point_str(x)} with {point_str(y)}, not ordered")
    return CouplingPlan(plan)
