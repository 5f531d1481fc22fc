"""Polyhedral positive cones, order predicates and dual-direction sampling.

A cone carries both a generator description (rays) and an inequality
description (normals: x is in the cone iff <n, x> >= 0 for every normal n),
plus a designated order unit that must be interior.  The constructor
cross-validates the two descriptions instead of converting; for dimensions
up to 3 ``from_generators`` fills in a missing side with one dual-generator
routine, as rays and normals generate each other's duals.  A 1-D cone is
[0, inf) or (-inf, 0]; ``is_upward_1d`` tells which.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .measure import Measure, Point, as_point, require_equal_dims, require_probability
from .rational import Rational, over_lcm, point_str, rat

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64).

    state += 0x9E3779B97F4A7C15 (mod 2^64), then the output is
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; return z ^ (z >> 31).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class Direction:
    """A dual-cone direction t, normalized so that <t, unit> = 1."""

    t: Point


def _dot(a: Point, b: Point) -> Rational:
    return sum(x * y for x, y in zip(a, b))


def _is_zero(v: Point) -> bool:
    return all(c == 0 for c in v)


def _primitive(v: Point) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, keeping sign."""
    _, ints = over_lcm(v)
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def _rank(vectors: Sequence[Point], dim: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _dual_generators(dim: int, vectors: Sequence[Point], extra: Sequence[Point] = ()) -> list[Point]:
    """Primitive generators of {x : <v, x> >= 0 for all v}, for dim 1 to 3:
    the candidates (both unit vectors, both perpendiculars of each vector, or
    both signs of each pairwise cross product), then ``extra``, that are
    nonzero and pair nonnegatively with every vector, deduplicated in order."""
    if dim == 1:
        candidates = [(rat(1),), (rat(-1),)]
    elif dim == 2:
        candidates = [c for a, b in vectors for c in ((-b, a), (b, -a))]
    else:
        crosses = [
            (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
            for (a1, a2, a3), (b1, b2, b3) in combinations(vectors, 2)
        ]
        candidates = [c for x in crosses for c in (x, tuple(-v for v in x))]
    seen: set[Point] = set()
    out: list[Point] = []
    for c in [*candidates, *extra]:
        if _is_zero(c) or any(_dot(c, v) < 0 for v in vectors):
            continue
        p = _primitive(c)
        if p not in seen:
            seen.add(p)
            out.append(as_point(p))
    return out


def _normals_from_rays(dim: int, rays: Sequence[Point]) -> list[Point]:
    """Facet normals of the cone generated by rays, for dim <= 3."""
    if _rank(rays, dim) < dim:
        raise ValueError("rays do not span the space; cone has no interior point")
    if not 1 <= dim <= 3:
        raise ValueError("ray-to-normal conversion is built in only for dim <= 3")
    normals = _dual_generators(dim, rays)
    if not normals:
        raise ValueError("cone has a trivial dual; supply normals explicitly")
    return normals


def _rays_from_normals(dim: int, normals: Sequence[Point]) -> list[Point]:
    """Generators of {x : <n, x> >= 0 for all n}, for dim <= 3.

    Supports pointed full-dimensional cones, plus the half-plane case in
    dim 2; anything with a larger lineality space must supply rays.
    """
    if not 1 <= dim <= 3:
        raise ValueError("normal-to-ray conversion is built in only for dim <= 3")
    if dim == 3 and _rank(normals, dim) < dim:
        raise ValueError("normal-to-ray conversion needs a pointed cone in dim 3; supply rays")
    # half-plane: both boundary rays plus the normal as an interior ray
    extra = normals[:1] if dim == 2 and len(normals) == 1 else ()
    rays = _dual_generators(dim, normals, extra)
    if not rays or _rank(rays, dim) < dim:
        raise ValueError("could not recover spanning rays; supply rays explicitly")
    return rays


class Cone:
    """Polyhedral positive cone on R^d with a designated interior order unit."""

    __slots__ = ("dim", "rays", "normals", "unit", "kind", "_int_normals")

    def __init__(
        self,
        dim: int,
        rays: Iterable[Sequence],
        normals: Iterable[Sequence],
        unit: Sequence,
        kind: str = "generators",
    ):
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        self.dim = dim
        self.rays = tuple(as_point(r, dim) for r in rays)
        self.normals = tuple(as_point(n, dim) for n in normals)
        self.unit = as_point(unit, dim)
        self.kind = kind
        if not self.rays or not self.normals:
            raise ValueError("a cone needs at least one ray and one normal")
        for v in self.rays + self.normals:
            if _is_zero(v):
                raise ValueError("zero vectors are not allowed as rays or normals")
        # each normal as coprime ints, each ray and the unit as ints over a
        # positive denominator: every <n, x> keeps its sign
        self._int_normals = tuple(_primitive(n) for n in self.normals)
        for r in self.rays:
            _, ri = over_lcm(r)
            for n, ni in zip(self.normals, self._int_normals):
                if sum(map(mul, ni, ri)) < 0:
                    raise ValueError(
                        f"ray {point_str(r)} violates normal {point_str(n)}: "
                        "descriptions are inconsistent"
                    )
        _, ui = over_lcm(self.unit)
        for n, ni in zip(self.normals, self._int_normals):
            if sum(map(mul, ni, ui)) <= 0:
                raise ValueError(
                    f"unit {point_str(self.unit)} is not interior (normal {point_str(n)})"
                )

    # -- constructors --------------------------------------------------------

    @classmethod
    def halfline(cls, unit: Sequence = (1,)) -> "Cone":
        """The nonnegative half-line in R^1."""
        return cls(1, [(1,)], [(1,)], unit, kind="halfline")

    @classmethod
    def orthant(cls, dim: int, unit: Sequence | None = None) -> "Cone":
        """The nonnegative orthant in R^d."""
        basis = [tuple(rat(int(i == j)) for j in range(dim)) for i in range(dim)]
        if unit is None:
            unit = (rat(1),) * dim
        return cls(dim, basis, basis, unit, kind="orthant")

    @classmethod
    def from_generators(
        cls,
        dim: int,
        rays: Iterable[Sequence] | None = None,
        normals: Iterable[Sequence] | None = None,
        unit: Sequence | None = None,
    ) -> "Cone":
        """Build from rays and/or normals; fills the missing side for dim <= 3."""
        if rays is None and normals is None:
            raise ValueError("need rays, normals, or both")
        rays_p = None if rays is None else [as_point(r, dim) for r in rays]
        normals_p = None if normals is None else [as_point(n, dim) for n in normals]
        if normals_p is None:
            normals_p = _normals_from_rays(dim, rays_p)
        if rays_p is None:
            rays_p = _rays_from_normals(dim, normals_p)
        if unit is None:
            unit = tuple(sum(col) for col in zip(*rays_p))
        return cls(dim, rays_p, normals_p, unit)

    # -- order predicates ------------------------------------------------------

    def leq_point(self, x: Sequence, y: Sequence) -> bool:
        """x <= y iff y - x lies in the cone.

        y - x is scaled to ints by the lcm of the coordinate denominators and
        tested against the integer normals, so no rational is built.
        """
        xp = as_point(x, self.dim)
        yp = as_point(y, self.dim)
        # inline, not over_lcm: the call adds ~0.3 us to ~7, paid once per atom
        # by upset_mass (behind cramer) and once per coupling pair by leq_st
        den = lcm(*(c.denominator for c in xp), *(c.denominator for c in yp))
        diff = [
            b.numerator * (den // b.denominator) - a.numerator * (den // a.denominator)
            for a, b in zip(xp, yp)
        ]
        return all(sum(n * d for n, d in zip(normal, diff)) >= 0 for normal in self._int_normals)

    def bounding_k(self, points: Iterable[Sequence]) -> int:
        """Smallest k in N with -k*unit <= x <= k*unit for all given points."""
        worst = rat(0)
        for p in points:
            pt = as_point(p, self.dim)
            for n in self.normals:
                q = abs(_dot(n, pt)) / _dot(n, self.unit)
                if q > worst:
                    worst = q
        return ceil(worst)

    # -- dual directions -------------------------------------------------------

    def _normalize_dual(self, t: Point) -> Point:
        s = _dot(t, self.unit)
        if s <= 0:
            raise ValueError(f"dual vector {point_str(t)} has nonpositive pairing with the unit")
        return tuple(c / s for c in t)

    def dual_directions(self, n_samples: int, seed: int = 0) -> list[Direction]:
        """Deterministic list of dual-cone directions, normalized to <t, unit> = 1.

        Contains every extreme ray of the dual cone (the normals), all pairwise
        midpoints of those rays, and ``n_samples`` pseudo-random convex
        combinations drawn with splitmix64 from ``seed``.  Exact duplicates are
        removed, preserving first occurrence.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be nonnegative")
        base = [self._normalize_dual(n) for n in self.normals]
        seen: set[Point] = set()
        out: list[Direction] = []

        def push(t: Point) -> None:
            if t not in seen:
                seen.add(t)
                out.append(Direction(t=t))

        for t in base:
            push(t)
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                push(tuple((a + b) / 2 for a, b in zip(base[i], base[j])))
        rng = SplitMix64(seed)
        for _ in range(n_samples):
            weights = [(rng.next_u64() >> 48) + 1 for _ in base]
            total = sum(weights)
            push(
                tuple(
                    sum(w * t[k] for w, t in zip(weights, base)) / total
                    for k in range(self.dim)
                )
            )
        return out

    def __repr__(self) -> str:
        return f"Cone(dim={self.dim}, kind={self.kind!r}, rays={len(self.rays)}, normals={len(self.normals)})"


def is_upward_1d(cone: Cone) -> bool:
    """True iff the cone is [0, inf) in R^1; the other 1-D cone is (-inf, 0]."""
    return cone.dim == 1 and cone.normals[0][0] > 0


def require_same_dim(cone: Cone, dim: int) -> None:
    if cone.dim != dim:
        raise DimensionMismatch(f"cone dimension {cone.dim} does not match {dim}")


def require_walk_pair(X: Measure, Y: Measure, cone: Cone | None = None) -> None:
    """Raise on the first fault, in this order: X, then Y, is not a probability
    measure; the cone (when given), then Y, differs from X in dimension."""
    require_probability(X, "X")
    require_probability(Y, "Y")
    if cone is not None:
        require_same_dim(cone, X.dim)
    require_equal_dims(X, Y)
