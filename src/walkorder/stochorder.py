"""Exact decider for the stochastic preorder between finitely supported measures.

``leq_st`` is the one decider and picks its route: one walk over closed tails
in 1-D, transportation feasibility over the admissible pairs {(x, y) : x <= y}
otherwise.  Both return a certificate: a coupling supported on the order
relation when dominated, or generators of a violating closed upset when not.
In 1-D one int walk (``_tail_walk``) down the levels of both laws' sorted
int tail indexes, put on one lattice, yields the minimal min cut or the
comonotone (quantile) coupling, the certificates the flow route gives
(Strassen 1965; Kamae, Krengel & O'Brien 1977); only these are decoded to
rationals.  ``dominance.min_n`` runs the same walk on its 1-D powers.  Tail
and upset masses are int weight sums, one ``Fraction`` per answer.

The flow route and ``principal_upset_masses`` map each point once to its
integer normal key (``_normal_keys``): over a common denominator S, the key
of x is ``<n, S x>`` for every integer normal n of the cone, so x <= y iff
each coordinate of x's key is at most y's.  The flow's admissible pairs are
read off these keys, and before a coupling is returned each of its pairs is
checked again with ``Cone.leq_point``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from math import lcm
from operator import ge, le, mul
from typing import Optional, Sequence

from .cones import Cone, is_upward_1d, require_same_dim
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
    """Mass mu gives to the closed upset generated by the given points, summed
    as int weights over the integer view's D."""
    require_same_dim(cone, mu.dim)
    gens = [as_point(g, mu.dim) for g in generators]
    _, _, d, weights = mu._int_view()
    above = (any(cone.leq_point(g, x) for g in gens) for x in mu.atoms)
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


def tail_mass(mu: Measure, c) -> Rational:
    """1-D closed tail mass mu([c, infinity)), exact.

    ``c`` is an exact rational, an int, a fraction string or a 1-tuple of
    one; floats raise TypeError.  The first call on a measure builds its tail
    index in O(N log N); a call then bisects its ints at ``ceil(c S)`` in
    O(log N) and builds one ``Fraction``, so a sweep over all N thresholds is
    O(N log N).
    """
    if mu.dim != 1:
        raise DimensionMismatch("tail_mass requires a 1-D measure")
    cp = as_point((c,) if not isinstance(c, (tuple, list)) else c, 1)[0]
    s, keys, d, _, suffix = mu._tail_index()
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
    # one int walk on both laws' levels; only the certificate is decoded
    s, d, xs, ys = _tops_1d(mu, nu, cone)
    cut, pairs = _tail_walk(xs, ys)
    if cut:
        return OrderVerdict(False, None, sorted((rat(x, s),) for x, _ in xs[:cut]))
    entries = [(((rat(x, s),), (rat(y, s),)), rat(w, d)) for x, y, w in pairs]
    # entries in sorted (x, y) order: the walk went down [0, inf)
    return OrderVerdict(True, CouplingPlan(dict(reversed(entries) if s > 0 else entries)), None)


def _tops_1d(mu: Measure, nu: Measure, cone: Cone) -> tuple:
    """``(s, d, xs, ys)``: the atoms of 1-D mu and nu as ``(level, weight)``
    int pairs, levels descending, from their tail indexes: point x is at
    level ``x * s`` and weight w is ``w * d``, for s and d the lcms of the
    indexes' scales; s < 0 on (-inf, 0] mirrors the order and the index."""
    indexes = mu._tail_index(), nu._tail_index()
    s = lcm(*(i[0] for i in indexes)) * (1 if is_upward_1d(cone) else -1)
    d = lcm(*(i[2] for i in indexes))
    down = -1 if s > 0 else 1
    return (s, d, *(
        list(zip([k * (s // sm) for k in keys], [w * (d // dm) for w in weights]))[::down]
        for sm, keys, dm, weights, _ in indexes
    ))


def _tail_walk(xs: Sequence, ys: Sequence, couple: bool = True) -> tuple[int, list]:
    """``(cut, pairs)`` for ``(level, weight)`` int pairs of two laws of
    equal total weight, each from the top (the largest level) down.  With
    ``gap = x(up c) - y(up c)``, the highest c of largest positive gap
    generates the minimal min cut, the first ``cut`` entries of xs; ``cut``
    is 0 iff x <= y.  Until the first positive gap, if ``couple``, c's weight
    is paired with entries of ys already passed, all at or above c: the
    comonotone coupling, as ``(x level, y level, weight)`` in walk order."""
    gap = best = rem = 0  # rem: unpaired weight of ys[k - 1]
    cut = j = k = 0
    pairs = []
    for i, (x, w) in enumerate(xs):
        gap += w
        while j < len(ys) and ys[j][0] >= x:
            gap -= ys[j][1]
            j += 1
        if gap > best:
            best, cut = gap, i + 1
        elif couple and not cut:
            while w:
                if not rem:
                    rem = ys[k][1]
                    k += 1
                step = min(w, rem)
                pairs.append((x, ys[k - 1][0], step))
                w -= step
                rem -= step
    return cut, pairs


def _leq_flow(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    # Feasible iff max flow saturates the supplies over admissible edges
    # {(x, y) : x <= y}; on failure the min cut is the supply set A.  Both
    # views go over one lcm S of their scales and one lcm D of their weight
    # denominators, sorted by point as every view is; the edges come
    # from their normal keys in the (i, j) order of the pairwise scan, and
    # the supplies and demands are the int weights over D.  Only the plan's
    # weights, once per entry, and the coordinates of its and the witness's
    # points, once per distinct value, are decoded to rationals.
    views = mu._int_view(), nu._int_view()
    s, d = lcm(*(view[0] for view in views)), lcm(*(view[2] for view in views))

    coord = cache(partial(rat, denominator=s))

    def point(x: tuple) -> tuple:
        return tuple(map(coord, x))

    sides = []
    for sm, coords, dm, weights in views:
        pts = [tuple(c * (s // sm) for c in x) for x in coords]
        sides.append((pts, _normal_keys(cone, pts), [w * (d // dm) for w in weights]))
    (xs, keys_mu, supplies), (ys, keys_nu, demands) = sides
    edges = [
        (i, j)
        for i, kx in enumerate(keys_mu)
        for j, ky in enumerate(keys_nu)
        if all(map(le, kx, ky))
    ]
    result = transport_feasible(TransportInstance(supplies, demands, edges))
    if result.feasible:
        flows = sorted(result.plan.items())
        plan = {(point(xs[i]), point(ys[j])): rat(f, d) for (i, j), f in flows}
        # the keys' verdict, checked pair by pair with the public predicate
        for x, y in plan:
            if not cone.leq_point(x, y):
                raise RuntimeError(f"coupling pairs {point_str(x)} with {point_str(y)}, not ordered")
        return OrderVerdict(True, CouplingPlan(plan), None)
    return OrderVerdict(False, None, [point(xs[i]) for i in sorted(result.cut)])
