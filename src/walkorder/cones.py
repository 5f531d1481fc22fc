"""Polyhedral positive cones, order predicates and dual-direction sampling.

A cone carries both a generator description (rays) and an inequality
description (normals: x is in the cone iff <n, x> >= 0 for every normal n),
plus a designated order unit that must be interior.  The constructor
cross-validates the two descriptions instead of converting;
``from_generators`` fills in a missing side, in any dimension, with one
dual-generator routine, as rays and normals generate each other's duals.
That routine enumerates (dim-1)-subsets of the given vectors, so it refuses
inputs above ``MAX_DUAL_WORK``; those must supply both sides.  A 1-D cone
is [0, inf) or (-inf, 0]; ``is_upward_1d`` tells which.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .measure import Measure, Point, as_point, require_equal_dims, require_probability
from .rational import Rational, over_lcm, point_str, rat

_MASK64 = (1 << 64) - 1

#: the largest C(m, dim-1) * dim^4 for which m vectors are converted to the
#: other side: each (dim-1)-subset costs dim eliminations of order dim-1,
#: fewer than dim^4 int steps, so the minors take seconds at most in any dim.
#: Testing each candidate against all m vectors is not bounded by it.
MAX_DUAL_WORK = 6_000_000

#: the most pseudo-random directions ``Cone.dual_directions`` draws.  The
#: sweeps cost at least linear time in the rays and the d >= 2 rate ascent
#: quadratic time: at 1024 samples a ``rate-fn`` on 50 atoms takes 6 s in
#: 2-D and 10 s in 3-D (2 cores, Python 3.11), where ``--samples 10**8``
#: would run for days.
MAX_SAMPLES = 1024


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
    """Rank of the vectors, on their ints: each vector is reduced against a
    row-echelon basis of the ones before it and joins it if anything is left;
    stops once the rank reaches dim."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row), in order
    for v in vectors:
        _, row = over_lcm(v)
        for col, b in basis:
            if row[col]:
                row = [b[col] * x - row[col] * y for x, y in zip(row, b)]
                g = gcd(*row)
                row = [x // g for x in row] if g > 1 else row
        if any(row):
            basis.append((next(c for c, x in enumerate(row) if x), row))
            if len(basis) == dim:
                break
    return len(basis)


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square int matrix by fraction-free (Bareiss)
    elimination, which overwrites ``rows``; 1 for the empty matrix."""
    sign, prev, n = 1, 1, len(rows)
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        pivot = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot[k] - row[k] * pivot[j]) // prev
        prev = pivot[k]
    return sign * rows[-1][-1] if n else 1


def check_dual_work(dim: int, count: int) -> None:
    """Refuse, with ``ValueError``, to convert ``count`` vectors in ``dim``
    to the other side of a cone when C(count, dim-1) * dim^4 exceeds
    ``MAX_DUAL_WORK``; a dim below 1 is left to the ``Cone`` checks."""
    if dim >= 1 and comb(count, dim - 1) * dim**4 > MAX_DUAL_WORK:
        raise ValueError(f"{count} vectors in dim {dim} are too many to convert; supply both rays and normals")


def _dual_generators(dim: int, vectors: Sequence[Point], extra: Sequence[Point] = ()) -> list[Point]:
    """Primitive generators of {x : <v, x> >= 0 for all v}.

    The candidates are, for each (dim-1)-subset of the vectors in
    ``combinations`` order, its generalized cross product (the cofactors of
    ``[e; v_1 .. v_{dim-1}]`` times (-1)^(dim+1)) and that negated, then
    ``extra``; those that are nonzero and pair nonnegatively with every
    vector, deduplicated in order.  In dim 1 to 3 these are both unit
    vectors, both perpendiculars of each vector, and both signs of each
    pairwise cross product.  Minors and signs are taken on the vectors'
    ints, the signs once per distinct primitive candidate.  Raises before
    enumerating any subset when C(m, dim-1) * dim^4 exceeds
    ``MAX_DUAL_WORK`` for m vectors (``check_dual_work``).
    """
    check_dual_work(dim, len(vectors))
    ints = [over_lcm(v)[1] for v in vectors]
    candidates = []
    for sub in combinations(ints, dim - 1):
        x = tuple((-1) ** (dim + i + 1) * _det([[*r[:i], *r[i + 1:]] for r in sub]) for i in range(dim))
        candidates += (x, tuple(-c for c in x))
    seen: set[tuple[int, ...]] = set()
    out: list[Point] = []
    for c in [*candidates, *(over_lcm(e)[1] for e in extra)]:
        if not any(c):
            continue
        # a positive multiple keeps every sign: filter each direction once
        p = _primitive(c)
        if p not in seen:
            seen.add(p)
            if all(sum(map(mul, p, v)) >= 0 for v in ints):
                out.append(as_point(p))
    return out


def _normals_from_rays(dim: int, rays: Sequence[Point]) -> list[Point]:
    """Facet normals of the cone generated by rays, which must span R^dim."""
    if _rank(rays, dim) < dim:
        raise ValueError("rays do not span the space; cone has no interior point")
    normals = _dual_generators(dim, rays)
    if not normals:
        raise ValueError("cone has a trivial dual; supply normals explicitly")
    return normals


def _rays_from_normals(dim: int, normals: Sequence[Point]) -> list[Point]:
    """Generators of {x : <n, x> >= 0 for all n}.

    Supports pointed full-dimensional cones in every dim, plus the
    half-plane case in dim 2; anything with a larger lineality space must
    supply rays.
    """
    if dim >= 3 and _rank(normals, dim) < dim:
        raise ValueError(f"normal-to-ray conversion needs a pointed cone in dim {dim}; supply rays")
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
        primitives = [_primitive(n) for n in self.normals]
        for r in self.rays:
            _, ri = over_lcm(r)
            for n, ni in zip(self.normals, primitives):
                if sum(map(mul, ni, ri)) < 0:
                    raise ValueError(
                        f"ray {point_str(r)} violates normal {point_str(n)}: "
                        "descriptions are inconsistent"
                    )
        _, ui = over_lcm(self.unit)
        for n, ni in zip(self.normals, primitives):
            if sum(map(mul, ni, ui)) <= 0:
                raise ValueError(
                    f"unit {point_str(self.unit)} is not interior (normal {point_str(n)})"
                )
        # one per facet direction, in first-given order: a repeated direction
        # adds a key coordinate that orders nothing new but steers the sweep
        self._int_normals = tuple(dict.fromkeys(primitives))

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
        """Build from rays and/or normals; fills in the missing side in any
        dimension, for at most ``MAX_DUAL_WORK`` (see ``_dual_generators``)."""
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
        # inline, not over_lcm, and a loop, not all(): this runs once per atom
        # of upset_mass (behind cramer) and once per coupling pair of leq_st
        # and of min_n's sweep
        den = lcm(*[c.denominator for c in xp + yp])
        diff = [
            b.numerator * (den // b.denominator) - a.numerator * (den // a.denominator)
            for a, b in zip(xp, yp)
        ]
        for normal in self._int_normals:
            if sum(map(mul, normal, diff)) < 0:
                return False
        return True

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
        removed, preserving first occurrence.  ``n_samples`` above
        ``MAX_SAMPLES`` is refused before anything is drawn.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be nonnegative")
        if n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}")
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
