"""Cone validation, order predicates, and dual-direction enumeration."""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

import pytest

from walkorder import Cone, DimensionMismatch, cones
from walkorder.cones import (
    SplitMix64,
    _dot,
    _is_zero,
    _normals_from_rays,
    _primitive,
    _rank,
    _rays_from_normals,
    require_walk_pair,
)
from walkorder.measure import Measure, as_point
from walkorder.rational import rat

from conftest import cube_rays


def pts(*coords):
    return tuple(tuple(rat(str(c)) if isinstance(c, str) else rat(c) for c in p) for p in coords)


class TestConstruction:
    def test_rays_must_satisfy_normals(self):
        with pytest.raises(ValueError):
            Cone(2, [(1, 0), (0, 1)], [(1, -1)], (1, 1))

    def test_inconsistent_descriptions_name_the_first_failing_pair(self):
        # rays in order, then normals in order; rational points print as such
        rays = [(1, 0), ("-1/3", "2/5")]
        normals = [(0, 1), ("1/2", 0), (3, -1)]
        message = r"^ray \(-1/3, 2/5\) violates normal \(1/2, 0\): descriptions are inconsistent$"
        with pytest.raises(ValueError, match=message):
            Cone(2, rays, normals, (1, 1))
        with pytest.raises(ValueError, match=message):
            Cone.from_generators(2, rays=rays, normals=normals)
        with pytest.raises(ValueError, match=r"^unit \(2/3, -1/7\) is not interior \(normal \(0, 1\)\)$"):
            Cone(2, [(1, 0), (0, 1)], [("1/2", 0), (0, 1)], ("2/3", "-1/7"))
        with pytest.raises(ValueError, match=r"^unit \(0, 0\) is not interior \(normal \(1, 0\)\)$"):
            Cone.orthant(2, unit=(0, 0))

    def test_repeated_normal_directions_give_one_integer_normal(self):
        # one integer normal per facet direction, in first-given order; the
        # ray and unit checks still name the first failing given normal
        for normals in ([(1, 0), (2, 0), (0, 1)], [(2, 0), (0, 3), (1, 0), ("1/2", 0)]):
            cone = Cone(2, [(1, 0), (0, 1)], normals, (1, 1))
            assert cone._int_normals == ((1, 0), (0, 1))
        normals = [(1, 0), (2, 0), (0, 1)]
        with pytest.raises(ValueError, match=r"^ray \(1, -1\) violates normal \(0, 1\): "):
            Cone(2, [(1, 0), (1, -1)], normals, (1, 1))
        with pytest.raises(ValueError, match=r"^unit \(1, 0\) is not interior \(normal \(0, 1\)\)$"):
            Cone(2, [(1, 0), (0, 1)], normals, (1, 0))
        assert Cone(1, [(1,)], [(1,), (3,)], (2,))._int_normals == ((1,),)

    def test_high_dimensional_orthant_builds_fast(self):
        # the ray/normal check runs on ints: 150 x 150 pairs of 150 coordinates
        start = time.perf_counter()
        cone = Cone.orthant(150)
        assert time.perf_counter() - start < 5
        assert cone.leq_point((0,) * 150, (1,) * 150)
        assert not cone.leq_point((1,) * 150, (0,) * 149 + (2,))

    def test_unit_must_be_interior(self):
        with pytest.raises(ValueError, match=r"^unit \(1, 0\) is not interior \(normal \(0, 1\)\)$"):
            Cone.orthant(2, unit=(1, 0))

    def test_dual_vector_off_the_unit_is_named_readably(self, orthant2):
        with pytest.raises(ValueError, match=r"^dual vector \(-1/2, 0\) has nonpositive pairing"):
            orthant2._normalize_dual(pts(("-1/2", 0))[0])

    def test_ray_normal_nonnegativity_holds_for_builtins(self):
        for cone in (Cone.halfline(), Cone.orthant(2), Cone.orthant(3)):
            for r in cone.rays:
                for n in cone.normals:
                    assert _dot(n, r) >= 0

    def test_from_generators_fills_normals_2d(self):
        cone = Cone.from_generators(2, rays=[(1, 0), (1, 1)], unit=(2, 1))
        assert set(cone.normals) == set(pts((0, 1), (1, -1)))

    def test_from_generators_fills_rays_2d(self):
        cone = Cone.from_generators(2, normals=[(0, 1), (1, -1)], unit=(2, 1))
        assert set(cone.rays) == set(pts((1, 0), (1, 1)))

    def test_from_generators_roundtrip_3d(self):
        cone = Cone.from_generators(3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert set(cone.normals) == set(pts((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        back = Cone.from_generators(3, normals=cone.normals)
        assert set(back.rays) == set(cone.rays)

    def test_halfplane_normals_to_rays(self):
        cone = Cone.from_generators(2, normals=[(0, 1)], unit=(0, 1))
        assert cone.leq_point((0, 0), (5, 0))
        assert cone.leq_point((0, 0), (-5, 0))
        assert cone.leq_point((0, 0), (0, 3))
        assert not cone.leq_point((0, 0), (0, -1))

    def test_halfplane_rays_in_order(self):
        # the boundary rays as the perpendiculars (-b, a) and (b, -a) of the
        # normal (a, b), then the normal itself
        cone = Cone.from_generators(2, normals=[(1, 2)])
        assert cone.rays == pts((-2, 1), (2, -1), (1, 2))

    def test_degenerate_rays_rejected(self):
        with pytest.raises(ValueError):
            Cone.from_generators(2, rays=[(1, 0), (-1, 0)])


def ref_normals_from_rays(dim, rays):
    """The ray-to-normal conversion as it stood before the shared dual routine."""
    if _rank(rays, dim) < dim:
        raise ValueError("rays do not span the space; cone has no interior point")
    candidates = []
    if dim == 1:
        candidates = [(rat(1),), (rat(-1),)]
    elif dim == 2:
        for a, b in rays:
            candidates.append((-b, a))
            candidates.append((b, -a))
    elif dim == 3:
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                (a1, a2, a3), (b1, b2, b3) = rays[i], rays[j]
                cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
                if not _is_zero(cross):
                    candidates.append(cross)
                    candidates.append(tuple(-c for c in cross))
    else:
        raise ValueError("ray-to-normal conversion is built in only for dim <= 3")
    seen, normals = set(), []
    for n in candidates:
        if _is_zero(n) or any(_dot(n, r) < 0 for r in rays):
            continue
        p = _primitive(n)
        if p not in seen:
            seen.add(p)
            normals.append(as_point(p))
    if not normals:
        raise ValueError("cone has a trivial dual; supply normals explicitly")
    return normals


def ref_rays_from_normals(dim, normals):
    """The normal-to-ray conversion as it stood before the shared dual routine."""
    candidates = []
    if dim == 1:
        candidates = [(rat(1),), (rat(-1),)]
    elif dim == 2:
        for a, b in normals:
            candidates.append((b, -a))
            candidates.append((-b, a))
        if len(normals) == 1:
            candidates.append(normals[0])
    elif dim == 3:
        if _rank(normals, dim) < dim:
            raise ValueError("normal-to-ray conversion needs a pointed cone in dim 3; supply rays")
        for i in range(len(normals)):
            for j in range(i + 1, len(normals)):
                (a1, a2, a3), (b1, b2, b3) = normals[i], normals[j]
                cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
                if not _is_zero(cross):
                    candidates.append(cross)
                    candidates.append(tuple(-c for c in cross))
    else:
        raise ValueError("normal-to-ray conversion is built in only for dim <= 3")
    seen, rays = set(), []
    for r in candidates:
        if _is_zero(r) or any(_dot(n, r) < 0 for n in normals):
            continue
        p = _primitive(r)
        if p not in seen:
            seen.add(p)
            rays.append(as_point(p))
    if not rays or _rank(rays, dim) < dim:
        raise ValueError("could not recover spanning rays; supply rays explicitly")
    return rays


def outcome(convert, dim, vectors):
    try:
        return convert(dim, vectors)
    except ValueError as exc:
        return str(exc)


class TestConversionsAgainstReference:
    """The shared dual-generator routine against the two separate conversions
    it replaced: equal normals in equal order, equal ray sets, equal errors."""

    def random_input(self, rng):
        dim = rng.choice([1, 2, 2, 3, 3])
        k = 1 if dim == 2 and rng.random() < 0.15 else rng.randint(1, 4)  # half-planes
        vectors = []
        for _ in range(k):
            if rng.random() < 0.05:
                vectors.append((rat(0),) * dim)
            elif vectors and rng.random() < 0.1:  # a multiple: non-spanning sets
                vectors.append(tuple(rat(rng.randint(-2, 3)) * c for c in rng.choice(vectors)))
            else:
                vectors.append(tuple(rat(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(dim)))
        return dim, vectors

    def test_random_inputs(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(3200):
            dim, vectors = self.random_input(rng)
            normals = outcome(_normals_from_rays, dim, vectors)
            assert normals == outcome(ref_normals_from_rays, dim, vectors), (dim, vectors)
            rays = outcome(_rays_from_normals, dim, vectors)
            ref = outcome(ref_rays_from_normals, dim, vectors)
            if isinstance(ref, str):
                assert rays == ref, (dim, vectors)
            else:
                assert isinstance(rays, list) and set(rays) == set(ref), (dim, vectors)
            kinds = {(dim, "normals", isinstance(normals, str)), (dim, "rays", isinstance(rays, str))}
            if any(_is_zero(v) for v in vectors):
                kinds.add("zero vector")
            if dim == 2 and len(vectors) == 1 and not isinstance(rays, str):
                kinds.add("half-plane")
            if _rank(vectors, dim) < dim:
                kinds.add("non-spanning")
            seen |= kinds
        for dim in (1, 2, 3):
            for side in ("normals", "rays"):
                assert {(dim, side, False), (dim, side, True)} <= seen
        assert {"zero vector", "half-plane", "non-spanning"} <= seen


def cross_rays(dim):
    """The rays (+-e_i, 1) of the cone over the cross-polytope in R^(dim-1)."""
    return [tuple(s if j == i else 0 for j in range(dim - 1)) + (1,) for i in range(dim - 1) for s in (1, -1)]


def primitive_set(vectors):
    return {as_point(_primitive(as_point(v))) for v in vectors}


class TestConversionsAboveDim3:
    """The one dual-generator routine in dims 4 and 5: the side it fills in is
    the side given by hand, and the dual of the dual gives the extreme rays."""

    @pytest.mark.parametrize("dim", [4, 5])
    def test_rays_only_equals_both_sides(self, dim):
        # the cube and cross-polytope cones are each other's duals
        orthant = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        rng = random.Random(dim)
        for rays, normals in [(cube_rays(dim), cross_rays(dim)), (cross_rays(dim), cube_rays(dim)),
                              (orthant, orthant)]:
            given = Cone.from_generators(dim, rays=rays, normals=normals)
            for cone in (Cone.from_generators(dim, rays=rays), Cone.from_generators(dim, normals=normals)):
                assert set(cone.rays) == set(given.rays) and set(cone.normals) == set(given.normals)
                for _ in range(200):
                    x, y = (tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(2))
                    assert cone.leq_point(x, y) == given.leq_point(x, y)
            assert Cone.from_generators(dim, rays=rays).unit == given.unit

    @pytest.mark.parametrize("dim", [4, 5])
    def test_dual_of_dual_gives_the_extreme_rays(self, dim):
        # points of the moment curve are all extreme; sums of them are not
        rng = random.Random(40 + dim)
        extreme = [tuple(t**k for k in range(dim)) for t in range(1, dim + 4)]
        inner = [tuple(map(sum, zip(*rng.sample(extreme, 3)))) for _ in range(4)]
        rays = [as_point(r) for r in extreme + inner]
        rng.shuffle(rays)
        normals = _normals_from_rays(dim, rays)
        for n in normals:  # a facet: nonnegative on every ray, zero on dim - 1 independent ones
            assert all(_dot(n, r) >= 0 for r in rays)
            assert _rank([r for r in rays if _dot(n, r) == 0], dim) == dim - 1
        assert set(_rays_from_normals(dim, normals)) == primitive_set(extreme)

    def test_lineality_needs_rays_in_every_dim(self):
        # the normal of a half-space cuts out no pointed cone
        for dim in (3, 4, 5):
            with pytest.raises(ValueError, match=rf"^normal-to-ray conversion needs a pointed cone in dim {dim}; supply rays$"):
                Cone.from_generators(dim, normals=[(1,) + (0,) * (dim - 1)])


class TestConversionBound:
    """An input whose subset enumeration would run for minutes is refused
    before the first subset, with one line that says to supply both sides."""

    #: the most vectors each dim admits under MAX_DUAL_WORK
    LARGEST = {2: 375_000, 3: 385, 4: 53, 5: 23, 6: 16, 7: 13}

    @pytest.fixture
    def subsets(self, monkeypatch):
        """Each call of the enumeration, which yields no subset."""
        calls = []
        monkeypatch.setattr(cones, "combinations", lambda *args: calls.append(args) or iter(()))
        return calls

    def test_largest_admitted_sizes(self, subsets):
        for dim, m in self.LARGEST.items():
            point = as_point((1,) * dim)
            assert cones._dual_generators(dim, [point] * m) == []
            assert len(subsets) == 1
            with pytest.raises(ValueError, match=rf"^{m + 1} vectors in dim {dim} are too many to convert; "
                                                 r"supply both rays and normals$"):
                cones._dual_generators(dim, [point] * (m + 1))
            assert len(subsets) == 1
            subsets.clear()
        assert comb(2000, 2) * 3**4 > cones.MAX_DUAL_WORK and comb(40, 4) * 5**4 > cones.MAX_DUAL_WORK

    @pytest.mark.parametrize("dim, side, m", [(3, "rays", 2000), (5, "normals", 40), (4, "rays", 54)])
    def test_refused_before_any_subset(self, subsets, dim, side, m):
        rng = random.Random(m)
        vectors = [(1,) * dim] + [tuple(rng.randint(0, 9) for _ in range(dim)) for _ in range(m - 1)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^{m} vectors in dim {dim} are too many to convert; "):
            Cone.from_generators(dim, **{side: vectors})
        assert time.perf_counter() - start < 5
        assert subsets == []


class TestDualGeneratorFilter:
    def test_sign_filter_runs_once_per_primitive_candidate(self, monkeypatch):
        # coplanar rays give cross products that are multiples of +-e3: the
        # sign filter pairs each distinct primitive candidate, not each
        # candidate, with the m vectors
        rng = random.Random(100)
        rays = [(rng.randint(-50, 50), rng.randint(-50, 50), 0) for _ in range(100)]
        rays = [r for r in rays if any(r)] + [(0, 0, 1)]
        primitives = set()
        for u, v in combinations(rays, 2):
            c = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
            if any(c):
                primitives |= {_primitive(c), _primitive(tuple(-x for x in c))}
        products = []
        mul = cones.mul
        monkeypatch.setattr(cones, "mul", lambda a, b: products.append(1) or mul(a, b))
        assert cones._dual_generators(3, [as_point(r) for r in rays]) == [(0, 0, 1)]
        assert 0 < len(products) <= len(primitives) * len(rays) * 3


def rank_reference(vectors, dim):
    """``cones._rank`` as it eliminated in ``Fraction``s over every row."""
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


class TestRank:
    """The int row-echelon rank against ``Fraction`` elimination."""

    def test_equals_fraction_elimination(self):
        rng = random.Random(61)
        seen = set()
        for _ in range(2500):
            dim = rng.randint(1, 5)
            wide = rng.random() < 0.3

            def coord():
                if not wide:
                    return rat(rng.randint(-4, 4), rng.randint(1, 3))
                return rat(rng.randint(-4, 4) * 3**45 + rng.randint(-2, 2), rng.choice((1, 2**65 + 3)))

            vectors = []
            for _ in range(rng.randint(0, 7)):
                roll = rng.random()
                if roll < 0.1:
                    vectors.append((rat(0),) * dim)
                elif vectors and roll < 0.3:  # a multiple of an earlier vector
                    vectors.append(tuple(coord() * c for c in rng.choice(vectors)))
                elif len(vectors) > 1 and roll < 0.45:  # a combination of two
                    a, b = rng.sample(vectors, 2)
                    f, g = coord(), coord()
                    vectors.append(tuple(f * x + g * y for x, y in zip(a, b)))
                else:
                    vectors.append(tuple(coord() for _ in range(dim)))
            rank = _rank(vectors, dim)
            assert rank == rank_reference(vectors, dim), (dim, vectors)
            seen.add((dim, rank == dim))
            if any(_is_zero(v) for v in vectors):
                seen.add("zero vector")
            if wide and rank > 1:
                seen.add("wide")
        assert {(dim, full) for dim in range(1, 6) for full in (False, True)} <= seen
        assert {"zero vector", "wide"} <= seen

    def test_stops_at_full_rank(self):
        # the third vector completes the rank in 2-D; none after it is read
        drawn = []

        def vectors():
            for k in range(1, 375_002):
                drawn.append(k)
                yield as_point((k, k + (k == 3)))

        assert _rank(vectors(), 2) == 2 and drawn == [1, 2, 3]


class TestLeqPoint:
    def test_orthant_examples(self, orthant2):
        assert orthant2.leq_point((0, 0), (1, 1))
        assert not orthant2.leq_point((0, 1), (1, 0))
        assert not orthant2.leq_point((1, 0), (0, 1))

    def test_generators_cone_examples(self):
        cone = Cone.from_generators(2, rays=[(1, 0), (1, 1)], unit=(2, 1))
        assert cone.leq_point((0, 0), (2, 1))
        assert not cone.leq_point((0, 0), (0, 1))

    def test_reflexive_transitive_translation_invariant(self, orthant2):
        rng = random.Random(21)
        for _ in range(50):
            x, y, z, a = (
                (rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5))) for _ in range(4)
            )
            assert orthant2.leq_point(x, x)
            if orthant2.leq_point(x, y) and orthant2.leq_point(y, z):
                assert orthant2.leq_point(x, z)
            shifted = orthant2.leq_point(
                tuple(c + d for c, d in zip(x, a)), tuple(c + d for c, d in zip(y, a))
            )
            assert orthant2.leq_point(x, y) == shifted

    def test_matches_rational_dot_products(self):
        # the integer predicate against <n, y - x> >= 0 over the rational normals
        cones = [
            Cone.halfline(),
            Cone(1, [(-2,)], [("-3/2",)], (-5,)),  # (-inf, 0], non-primitive normal
            Cone(2, [(1, 0), (1, 1)], [(0, "2/3"), (4, -4)], (2, 1)),
            Cone.from_generators(2, normals=[(0, 1)], unit=(0, 1)),  # half-plane
            Cone.orthant(3, unit=("1/2", 2, "3/4")),
            Cone(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)], [(0, 0, "5/3"), (0, 6, -6), (1, -1, 0)], (3, 2, 1)),
        ]
        rng = random.Random(23)
        for cone in cones:
            outcomes = set()
            for _ in range(200):
                x, y = (
                    tuple(rat(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(cone.dim))
                    for _ in range(2)
                )
                expected = all(_dot(n, tuple(b - a for a, b in zip(x, y))) >= 0 for n in cone.normals)
                assert cone.leq_point(x, y) == expected
                assert cone.leq_point(x, x)
                outcomes.add(expected)
            assert outcomes == {True, False}

    def test_mixed_denominators_match_fraction_reference(self):
        # points whose coordinates have distinct, large and prime
        # denominators, given as Fractions, ints and number strings alike
        cones = [
            Cone.orthant(2),
            Cone.from_generators(2, rays=[(2, -1), (-1, 3)]),
            Cone(2, [(1, 0), (1, 1)], [(0, "2/3"), (4, -4)], (2, 1)),
            Cone.orthant(4, unit=(1, "1/2", 3, "5/7")),
        ]
        dens = (1, 2, 3, 7, 10**12 + 39, 2**61 - 1)
        rng = random.Random(24)
        for cone in cones:
            outcomes = set()
            for _ in range(300):
                x, y = (
                    [rat(rng.randint(-10**15, 10**15), rng.choice(dens)) for _ in range(cone.dim)]
                    for _ in range(2)
                )
                if rng.random() < 0.5:  # y moved up by a combination of the rays
                    coeffs = [rat(rng.randint(0, 5), rng.choice(dens)) for _ in cone.rays]
                    y = [c + sum(k * r[i] for k, r in zip(coeffs, cone.rays)) for i, c in enumerate(x)]
                diff = [b - a for a, b in zip(x, y)]
                expected = all(sum(n_i * d for n_i, d in zip(n, diff)) >= 0 for n in cone.normals)
                forms = (tuple(x), tuple(str(c) for c in y))
                assert cone.leq_point(*forms) == expected
                ints = [c.numerator for c in x]
                up = [c - k for c, k in zip(x, ints)]
                assert cone.leq_point(ints, x) == all(_dot(n, up) >= 0 for n in cone.normals)
                outcomes.add(expected)
            assert outcomes == {True, False}, cone

    def test_numpy_integer_rays(self):
        # np.int64 rays once gave np.int64 normals, which overflow past 2^63
        import numpy as np

        cone = Cone.from_generators(2, rays=[(np.int64(1), np.int64(0)), (np.int64(0), np.int64(1))])
        assert all(type(c) is int for n in cone._int_normals for c in n)
        assert cone.leq_point((0, 0), (4 * 2**62, 0))
        assert not cone.leq_point((0, 0), (4 * 2**62, -1))

    def test_floats_rejected(self, orthant2):
        with pytest.raises(TypeError):
            orthant2.leq_point((0.5, 0), (1, 1))
        with pytest.raises(TypeError):
            orthant2.leq_point((0, 0), (1, 1.0))


class TestBoundingK:
    def test_halfline(self, halfline):
        assert halfline.bounding_k([(-3,), (2,)]) == 3

    def test_orthant(self, orthant2):
        assert orthant2.bounding_k([(2, -1)]) == 2

    def test_empty(self, halfline):
        assert halfline.bounding_k([]) == 0

    def test_generators_cone_against_exhaustive_search(self):
        cone = Cone.from_generators(2, rays=[(1, 0), (1, 1)], unit=(2, 1))
        points = [(rat(3), rat(1))]
        k = cone.bounding_k(points)

        def ok(kk: int) -> bool:
            ku = tuple(rat(kk) * u for u in cone.unit)
            neg = tuple(-c for c in ku)
            return all(cone.leq_point(p, ku) and cone.leq_point(neg, p) for p in points)

        assert ok(k)
        assert k == 0 or not ok(k - 1)

    def test_minimality_random(self, orthant2):
        rng = random.Random(22)
        for _ in range(20):
            points = [
                (rat(rng.randint(-9, 9), rng.randint(1, 4)), rat(rng.randint(-9, 9), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            k = orthant2.bounding_k(points)
            ku = (rat(k), rat(k))
            neg = (rat(-k), rat(-k))
            assert all(orthant2.leq_point(p, ku) and orthant2.leq_point(neg, p) for p in points)
            if k > 0:
                km = (rat(k - 1), rat(k - 1))
                negm = (rat(1 - k), rat(1 - k))
                assert not all(
                    orthant2.leq_point(p, km) and orthant2.leq_point(negm, p) for p in points
                )


class TestDualDirections:
    def test_halfline_single_ray(self, halfline):
        dirs = halfline.dual_directions(0)
        assert [d.t for d in dirs] == [ (rat(1),) ]

    def test_orthant_extremes_and_midpoint(self, orthant2):
        dirs = orthant2.dual_directions(0)
        assert [d.t for d in dirs] == list(pts((1, 0), (0, 1), ("1/2", "1/2")))

    def test_generators_cone_dual_rays(self):
        cone = Cone.from_generators(2, rays=[(1, 0), (1, 1)], unit=(2, 1))
        dirs = cone.dual_directions(0)
        assert pts((0, 1))[0] in {d.t for d in dirs}
        assert pts((1, -1))[0] in {d.t for d in dirs}

    def test_sampled_directions_normalized_and_dual(self, orthant2):
        dirs = orthant2.dual_directions(40, seed=123)
        for d in dirs:
            assert sum(t * u for t, u in zip(d.t, orthant2.unit)) == 1
            for r in orthant2.rays:
                assert _dot(d.t, r) >= 0
        assert len({d.t for d in dirs}) == len(dirs)

    def test_deterministic_for_fixed_seed(self, orthant2):
        a = orthant2.dual_directions(16, seed=7)
        b = orthant2.dual_directions(16, seed=7)
        assert [d.t for d in a] == [d.t for d in b]
        c = orthant2.dual_directions(16, seed=8)
        assert [d.t for d in a] != [d.t for d in c]

    def test_sample_count_bounded_before_any_draw(self, orthant2, monkeypatch):
        dirs = orthant2.dual_directions(cones.MAX_SAMPLES, seed=1)
        assert len(dirs) <= 3 + cones.MAX_SAMPLES

        def no_draw(seed):
            raise AssertionError("a direction was drawn")

        monkeypatch.setattr(cones, "SplitMix64", no_draw)
        for n in (cones.MAX_SAMPLES + 1, 10**8):
            with pytest.raises(ValueError, match=f"^n_samples must be at most {cones.MAX_SAMPLES}$"):
                orthant2.dual_directions(n)
        with pytest.raises(ValueError, match="^n_samples must be nonnegative$"):
            orthant2.dual_directions(-1)


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 0 from the documented recurrence
        rng = SplitMix64(0)
        stream = [rng.next_u64() for _ in range(3)]
        assert stream == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]


class TestDimChecks:
    def test_walk_pair_checks_in_order(self, halfline, orthant2):
        line, plane = Measure(1, {(0,): 1}), Measure(2, {(0, 0): 1})
        half = Measure(2, {(0, 0): "1/2"})
        cases = [
            ((half, half, orthant2), "X must be normalized to total mass 1"),
            ((plane, half, halfline), "Y must be normalized to total mass 1"),
            ((plane, line, halfline), "cone dimension 1 does not match 2"),
            ((plane, line, orthant2), "measure dimensions differ: 2 vs 1"),
            ((plane, line, None), "measure dimensions differ: 2 vs 1"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                require_walk_pair(*args)
        require_walk_pair(plane, plane, orthant2)
        require_walk_pair(line, line)

    def test_leq_point_dim_mismatch(self, orthant2):
        with pytest.raises(DimensionMismatch):
            orthant2.leq_point((0,), (1, 1))
        with pytest.raises(DimensionMismatch):
            orthant2.leq_point((0, 0), (1, 1, 1))
