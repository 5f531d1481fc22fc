"""Exact deciders for the stochastic preorder between finitely supported measures.

Two routes are provided: a 1-D fast path comparing closed-tail masses at
every support point, and a general path that reduces to bipartite
transportation feasibility over the admissible pairs {(x, y) : x <= y}.
Both return a certificate: a coupling supported on the order relation when
dominated, or generators of a violating closed upset when not.
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


def _check_masses(mu: Measure, nu: Measure) -> None:
    if mu.mass() != nu.mass():
        raise MassMismatch(
            f"total masses differ ({mu.mass()} vs {nu.mass()}); "
            "stochastic comparability requires equal normalization"
        )


def leq_st_1d(mu: Measure, nu: Measure) -> OrderVerdict:
    """1-D stochastic order via closed-tail comparison at every support point.

    The tail functions are piecewise constant, so checking thresholds in the
    union of the two supports is exhaustive.  On success the witness is the
    quantile coupling; on failure, the first violating threshold.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatch("leq_st_1d requires 1-D measures")
    _check_masses(mu, nu)
    thresholds = sorted({x[0] for x in mu.atoms} | {y[0] for y in nu.atoms})
    for c in thresholds:
        if tail_mass(mu, c) > tail_mass(nu, c):
            return OrderVerdict(False, None, [(c,)])
    return OrderVerdict(True, _quantile_coupling(mu, nu), None)


def _quantile_coupling(mu: Measure, nu: Measure) -> CouplingPlan:
    # pair off mass at equal quantile levels; under tail dominance every
    # matched pair is ordered
    xs = sorted(mu.atoms.items())
    ys = sorted(nu.atoms.items())
    entries: dict = {}
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


def leq_st(mu: Measure, nu: Measure, cone: Cone) -> OrderVerdict:
    """General stochastic-order decider via transportation feasibility.

    Feasible iff max flow saturates the supplies over admissible edges
    {(x, y) : x <= y}.  On failure the min-cut yields supply atoms A with
    mu(A) > nu(upset of A), returned as upset generators.
    """
    require_equal_dims(mu, nu)
    require_same_dim(cone, mu.dim)
    _check_masses(mu, nu)
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


def supp_dominates(mu: Measure, nu: Measure, cone: Cone) -> bool:
    """True iff every support point of mu is below every support point of nu.

    A sufficient condition for dominance at equal masses (the product
    coupling is then supported on the order relation).
    """
    require_equal_dims(mu, nu)
    require_same_dim(cone, mu.dim)
    return all(
        cone.leq_point(x, y) for x in mu.atoms for y in nu.atoms
    )
