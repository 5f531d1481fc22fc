"""Cone validation, order predicates, and dual-direction enumeration."""

from __future__ import annotations

import random
import time

import pytest

from walkorder import Cone, DimensionMismatch
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
        dim = rng.choice([1, 2, 2, 3, 3, 4])
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
            if dim <= 3 and _rank(vectors, dim) < dim:
                kinds.add("non-spanning")
            seen |= kinds
        for dim in (1, 2, 3):
            for side in ("normals", "rays"):
                assert {(dim, side, False), (dim, side, True)} <= seen
        assert {(4, "normals", True), (4, "rays", True)} <= seen
        assert {"zero vector", "half-plane", "non-spanning"} <= seen


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
