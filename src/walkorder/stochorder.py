"""Exact decider for the stochastic preorder between finitely supported measures.

``leq_st`` is the one decider and picks its route: a single sweep over closed
tails in 1-D, transportation feasibility over the admissible pairs
{(x, y) : x <= y} otherwise.  Both return a certificate: a coupling supported
on the order relation when dominated, or generators of a violating closed
upset when not.  In 1-D the two routes give equal certificates: the comonotone
(quantile) coupling, or the minimal min cut (Strassen 1965; Kamae, Krengel &
O'Brien 1977).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Cone, require_same_dim
from .errors import DimensionMismatch, MassMismatch
from .measure import Measure, as_point, require_equal_dims
from .rational import Rational, ZERO
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
    """Mass mu gives to the closed upset generated by the given points."""
    require_same_dim(cone, mu.dim)
    gens = [as_point(g, mu.dim) for g in generators]
    total = ZERO
    for x, w in mu.atoms.items():
        if any(cone.leq_point(g, x) for g in gens):
            total += w
    return total


def tail_mass(mu: Measure, c) -> Rational:
    """1-D closed tail mass mu([c, infinity))."""
    if mu.dim != 1:
        raise DimensionMismatch("tail_mass requires a 1-D measure")
    cp = as_point((c,) if not isinstance(c, (tuple, list)) else c, 1)[0]
    return sum((w for x, w in mu.atoms.items() if x[0] >= cp), ZERO)


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
    if mu.dim == 1:
        return _leq_sweep(mu, nu, cone)
    return _leq_flow(mu, nu, cone)


def _leq_sweep(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    # The cone is [0, inf) or (-inf, 0].  Walk supp mu from the top of the order
    # down with gap = mu(up c) - nu(up c); the highest c of largest positive gap
    # generates the minimal min cut.
    ascending = cone.normals[0][0] > 0
    xs = sorted(mu.atoms.items(), reverse=ascending)
    ys = sorted(nu.atoms.items(), reverse=ascending)
    gap = best = ZERO
    cut = j = 0
    for i, (x, w) in enumerate(xs):
        gap += w
        while j < len(ys) and (ys[j][0] >= x if ascending else ys[j][0] <= x):
            gap -= ys[j][1]
            j += 1
        if gap > best:
            best, cut = gap, i + 1
    if cut:
        return OrderVerdict(False, None, sorted(x for x, _ in xs[:cut]))
    return OrderVerdict(True, _quantile_coupling(mu, nu), None)


def _quantile_coupling(mu: Measure, nu: Measure) -> CouplingPlan:
    # pair off mass at equal quantile levels; under tail dominance every
    # matched pair is ordered, and entries come out in sorted (x, y) order
    xs = sorted(mu.atoms.items())
    ys = sorted(nu.atoms.items())
    entries: dict = {}
    if not xs:
        return CouplingPlan(entries)
    i = j = 0
    rem_x, rem_y = xs[0][1], ys[0][1]
    while True:
        step = min(rem_x, rem_y)
        key = (xs[i][0], ys[j][0])
        entries[key] = entries.get(key, ZERO) + step
        rem_x -= step
        rem_y -= step
        if rem_x == 0:
            i += 1
            if i == len(xs):
                break
            rem_x = xs[i][1]
        if rem_y == 0:
            j += 1
            rem_y = ys[j][1]
    return CouplingPlan(entries)


def _leq_flow(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    # Feasible iff max flow saturates the supplies over admissible edges
    # {(x, y) : x <= y}; on failure the min cut is the supply set A.
    supp_mu = mu.support()
    supp_nu = nu.support()
    edges = [
        (i, j)
        for i, x in enumerate(supp_mu)
        for j, y in enumerate(supp_nu)
        if cone.leq_point(x, y)
    ]
    inst = TransportInstance.build(
        [mu.atoms[x] for x in supp_mu],
        [nu.atoms[y] for y in supp_nu],
        edges,
    )
    result = transport_feasible(inst)
    if result.feasible:
        plan = {
            (supp_mu[i], supp_nu[j]): f for (i, j), f in sorted(result.plan.items())
        }
        return OrderVerdict(True, CouplingPlan(plan), None)
    witness = sorted(supp_mu[i] for i in result.cut)
    return OrderVerdict(False, None, witness)
