"""Measure construction and the semialgebra operations."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from operator import lt

import pytest

from walkorder import (
    AtomBudgetExceeded,
    DimensionMismatch,
    Measure,
    convolve,
    convolve_power,
    delta,
    mix,
    project,
    shift,
)
from walkorder.measure import from_ratios
from walkorder.rational import as_ratio, rat

from conftest import (
    int_view_reference,
    kernel_settings,
    measure_reference,
    measures_on,
    project_ints_reference,
    random_measure_1d,
    random_measure_2d,
    random_measure_3d,
)


def m1(mapping) -> Measure:
    return Measure(1, {(k,): v for k, v in mapping.items()})


class TestConstruction:
    def test_zero_weight_atoms_dropped(self):
        m = Measure(1, {(0,): 0, (1,): 1})
        assert sorted(m.atoms) == [(rat(1),)]

    def test_duplicate_points_merge(self):
        m = Measure(1, [((0,), "1/4"), ((0,), "3/4")])
        assert m.weight((0,)) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Measure(1, {(0,): "-1/2"})

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Measure(1, {(0.5,): 1})
        with pytest.raises(TypeError):
            Measure(1, {(0,): 0.5})

    def test_wrong_point_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            Measure(2, {(0,): 1})

    def test_numpy_integers_read_as_python_ints(self):
        # an np.int64 coordinate kept as it is wraps at 2^63 in the kernels
        import numpy as np

        mu = Measure(1, {(np.int64(2**62),): np.int64(1), (0,): 1}).normalized()
        s, coords, d, weights = mu._int_view()
        assert all(type(v) is int for v in (s, d, *weights, *(c for x in coords for c in x)))
        assert convolve_power(mu, 3).support() == [(rat(k * 2**62),) for k in range(4)]

    def test_equals_fraction_route(self):
        # Fractions, ints and strings, with repeats written another way and
        # zero weights: the view, the atoms (sorted by point) and the repr are
        # those of the route that merged on Fraction weights
        rng = random.Random(29)

        def written(q):
            forms = [q, str(q), f" {q.numerator * 5}/{q.denominator * 5} "]
            if q.denominator == 1:
                forms.append(q.numerator)
            if q.denominator in (2, 4):
                forms.append(f"{q.numerator / q.denominator!r}e0")
            return rng.choice(forms)

        for _ in range(200):
            dim = rng.randint(1, 3)
            points = [tuple(rat(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))) for _ in range(dim))
                      for _ in range(rng.randint(1, 5))]
            weights = [rat(rng.randint(0, 4), rng.choice((1, 2, 6))) for _ in range(rng.randint(0, 9))]
            atoms = [(tuple(map(written, rng.choice(points))), written(w)) for w in weights]
            cleaned, view, text = measure_reference(dim, atoms)
            m = Measure(dim, atoms)
            assert m._int_view() == view and repr(m) == text
            assert list(m.atoms.items()) == list(cleaned.items())

    def test_atoms_view_is_read_only(self):
        m = m1({0: 1})
        with pytest.raises(TypeError):
            m.atoms[(rat(0),)] = rat(2)

    def test_normalized(self):
        m = Measure(1, {(0,): 3, (1,): 1})
        n = m.normalized()
        assert n.mass() == 1 and n.weight((0,)) == rat(3, 4)


class TestDelta:
    def test_scalar(self):
        assert delta((0,)) == m1({0: 1})

    def test_planar(self):
        d = delta((1, 1))
        assert d.dim == 2 and d.mass() == 1

    def test_delta_convolution_is_addition(self):
        assert convolve(delta((2,)), delta((3,))) == delta((5,))


class TestMix:
    def test_two_deltas(self):
        m = mix([("1/2", delta((0,))), ("1/2", delta((1,)))])
        assert m == m1({0: "1/2", 1: "1/2"})

    def test_zero_coefficient_drops_term(self):
        mu = m1({0: "1/2", 1: "1/2"})
        nu = m1({7: 1})
        assert mix([(1, mu), (0, nu)]) == mu

    def test_atom_merging(self):
        assert mix([("1/4", delta((0,))), ("3/4", delta((0,)))]) == m1({0: 1})

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            mix([("-1/2", delta((0,)))])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mix([(1, delta((0,))), (1, delta((0, 0)))])


class TestConvolve:
    def test_bernoulli_square(self):
        b = m1({0: "1/2", 1: "1/2"})
        assert convolve(b, b) == m1({0: "1/4", 1: "1/2", 2: "1/4"})

    def test_identity_element(self):
        rng = random.Random(11)
        for _ in range(10):
            mu = random_measure_1d(rng)
            assert convolve(mu, delta((0,))) == mu

    def test_commutative_associative(self):
        rng = random.Random(12)
        for _ in range(10):
            a, b, c = (random_measure_1d(rng, max_atoms=4) for _ in range(3))
            assert convolve(a, b) == convolve(b, a)
            assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_mass_and_support_products(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_measure_2d(rng, max_atoms=4)
            b = random_measure_2d(rng, max_atoms=4)
            conv = convolve(a, b)
            assert conv.mass() == a.mass() * b.mass()
            minkowski = {
                tuple(x + y for x, y in zip(p, q)) for p in a.atoms for q in b.atoms
            }
            assert set(conv.atoms) == minkowski

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convolve(delta((0,)), delta((0, 0)))


class TestConvolvePower:
    def test_deterministic_walk(self):
        assert convolve_power(delta((1,)), 4) == delta((4,))

    def test_power_zero_is_unit(self):
        assert convolve_power(m1({3: 1}), 0) == delta((0,))

    def test_binomial_cube(self):
        b = m1({0: "1/2", 1: "1/2"})
        assert convolve_power(b, 3) == m1({0: "1/8", 1: "3/8", 2: "3/8", 3: "1/8"})

    def test_matches_sequential_convolutions(self):
        rng = random.Random(14)
        for _ in range(5):
            mu = random_measure_1d(rng, max_atoms=3, span=4)
            acc = delta((0,))
            for n in range(1, 9):
                acc = convolve(acc, mu)
                assert convolve_power(mu, n) == acc

    def test_non_lattice_support_against_enumeration_oracle(self):
        mu = m1({0: "1/3", "1/3": "1/3", "1/2": "1/3"})
        steps = (rat(0), rat(1, 3), rat(1, 2))
        supp = {rat(0)}
        for _ in range(40):
            supp = {s + a for s in supp for a in steps}
        result = convolve_power(mu, 40, cap=10**4)
        assert {p[0] for p in result.atoms} == supp
        assert len(result) == len(supp) <= 10**4

    def test_atom_budget_exceeded(self):
        mu = m1({0: "1/3", "1/3": "1/3", "1/2": "1/3"})
        with pytest.raises(AtomBudgetExceeded):
            convolve_power(mu, 40, cap=50)


def naive_convolve(a: dict, b: dict) -> dict:
    """Reference convolution: the pairwise loop over exact rational points."""
    out = {}
    for x, wx in a.items():
        for y, wy in b.items():
            key = tuple(p + q for p, q in zip(x, y))
            out[key] = out.get(key, 0) + wx * wy
    return out


def naive_power_sizes(a: dict, dim: int, n: int) -> tuple[dict, list[int]]:
    """a^n by the repeated-squaring schedule of convolve_power, with the atom
    count of every intermediate product."""
    acc, base, sizes = {(rat(0),) * dim: rat(1)}, a, []
    while n:
        if n & 1:
            acc = naive_convolve(acc, base)
            sizes.append(len(acc))
        n >>= 1
        if n:
            base = naive_convolve(base, base)
            sizes.append(len(base))
    return acc, sizes


class TestLatticeKernel:
    """convolve and convolve_power against the naive rational oracle."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_convolve_matches_oracle(self, hyp, dim):
        @kernel_settings(hyp)
        @hyp.given(measures_on(hyp, dim), measures_on(hyp, dim))
        def check(mu, nu):
            conv = convolve(mu, nu)
            # same atoms and values as the pairwise loop, sorted by point
            assert list(conv.atoms.items()) == sorted(naive_convolve(mu.atoms, nu.atoms).items())
            assert conv.mass() == mu.mass() * nu.mass()

        check()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_power_matches_oracle(self, hyp, dim):
        st = hyp.strategies

        @kernel_settings(hyp)
        @hyp.given(measures_on(hyp, dim), st.sampled_from([0, 1, 2, 4, 8, 3, 5, 7]))
        def check(mu, n):
            power = convolve_power(mu, n)
            expected, _ = naive_power_sizes(dict(mu.atoms), dim, n)
            assert list(power.atoms.items()) == sorted(expected.items())
            assert power.mass() == mu.mass() ** n

        check()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cap_is_the_largest_intermediate(self, hyp, dim):
        st = hyp.strategies

        @kernel_settings(hyp)
        @hyp.given(measures_on(hyp, dim), st.sampled_from([1, 2, 4, 3, 5, 7]))
        def check(mu, n):
            expected, sizes = naive_power_sizes(dict(mu.atoms), dim, n)
            cap = max(sizes)
            assert dict(convolve_power(mu, n, cap=cap).atoms) == expected
            with pytest.raises(AtomBudgetExceeded, match=f"atom cap of {cap - 1}$"):
                convolve_power(mu, n, cap=cap - 1)

        check()


class TestShiftProject:
    def test_shift_examples(self):
        assert shift(m1({0: 1}), (2,)) == m1({2: 1})
        b = m1({0: "1/2", 1: "1/2"})
        assert shift(b, (0,)) == b
        assert shift(b, (-1,)) == m1({-1: "1/2", 0: "1/2"})

    def test_shift_is_delta_convolution(self):
        rng = random.Random(15)
        for _ in range(10):
            mu = random_measure_2d(rng)
            a = (rat(rng.randint(-3, 3)), rat(rng.randint(-3, 3)))
            assert shift(mu, a) == convolve(mu, delta(a))

    def test_project_examples(self):
        assert project(delta((1, 2)), (1, 1)) == m1({3: 1})
        cross = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
        assert project(cross, (1, 1)) == m1({1: 1})
        assert project(cross, (2, 1)) == m1({1: "1/2", 2: "1/2"})

    def test_project_commutes_with_convolve(self):
        rng = random.Random(16)
        for _ in range(10):
            a = random_measure_2d(rng, max_atoms=4)
            b = random_measure_2d(rng, max_atoms=4)
            t = (rat(rng.randint(0, 3)), rat(rng.randint(1, 3)))
            assert project(convolve(a, b), t) == convolve(project(a, t), project(b, t))


def naive_project(mu: Measure, t) -> dict:
    """Reference pushforward: the rational loop over the atoms of mu."""
    out = {}
    for x, w in mu.atoms.items():
        key = (sum(tc * xc for tc, xc in zip(t, x)),)
        out[key] = out[key] + w if key in out else w
    return out


def functionals(hyp, dim: int):
    """Hypothesis strategy: functionals with coordinates of mixed denominators,
    negatives and zeros included."""
    st = hyp.strategies
    coord = st.builds(rat, st.integers(-7, 7), st.sampled_from([1, 2, 3, 5, 9]))
    return st.tuples(*[coord] * dim)


class TestIntegerView:
    """project on the integer view against the rational pushforward."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_project_matches_rational_pushforward(self, hyp, dim):
        merged = []

        @kernel_settings(hyp)
        @hyp.given(measures_on(hyp, dim), functionals(hyp, dim))
        def check(mu, t):
            # a twin of every atom moved along a vector orthogonal to t, so
            # atoms merge in every dimension
            v = (t[1], -t[0]) + (rat(0),) * (dim - 2) if dim > 1 else (rat(0),)
            twins = [(tuple(a + b for a, b in zip(x, v)), w) for x, w in mu.atoms.items()]
            for m in (mu, Measure(dim, list(mu.atoms.items()) + twins)):
                expected = naive_project(m, t)
                for tv in (t, [str(c) for c in t]):
                    proj = project(m, tv)
                    # same atoms and values as the rational loop, sorted by point
                    assert list(proj.atoms.items()) == sorted(expected.items())
                    assert all(type(c) is type(rat(0)) for x in proj.atoms for c in x)
                    assert proj.mass() == m.mass()
                merged.append(len(expected) < len(m))

        check()
        assert any(merged)

    def test_project_merges_and_sorts_by_point(self):
        mu = Measure(
            2,
            [
                (("1/2", "1/3"), "1/3"),
                (("-1/2", "5/3"), "1/6"),
                ((2, "-1/5"), "1/4"),
                ((-1, "1/3"), "1/4"),
            ],
        )
        # <t, x> = 1/2, 1/2, 37/30, -1/2: the first two merge
        expected = [
            ((rat(-1, 2),), rat(1, 4)),
            ((rat(1, 2),), rat(1, 2)),
            ((rat(37, 30),), rat(1, 4)),
        ]
        assert list(project(mu, ("2/3", "1/2")).atoms.items()) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_view_decodes_to_the_atoms(self, hyp, dim):
        @kernel_settings(hyp)
        @hyp.given(measures_on(hyp, dim), functionals(hyp, dim))
        def check(mu, t):
            proj = project(mu, t)
            outputs = (convolve(mu, mu), convolve_power(mu, 3), mu.normalized())
            for m in (mu, proj, Measure(1, proj.atoms), *outputs):
                assert m._int_view() == int_view_reference(m)
                s, coords, d, weights = m._int_view()
                assert all(type(v) is int for v in (s, d, *weights))
                assert [tuple(rat(c, s) for c in x) for x in coords] == list(m.atoms)
                assert [rat(w, d) for w in weights] == list(m.atoms.values())
                assert m._int_view() is m._int_view()

        check()

    def test_matches_the_inline_reference(self):
        rng = random.Random(157)
        draws = (random_measure_1d, random_measure_2d, random_measure_3d)
        merged = 0
        for i in range(300):
            mu = draws[i % 3](rng)
            t = tuple(rat(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(mu.dim))
            if i % 4 == 1:  # a mass other than 1, with weights over other denominators
                scaled = {x: w * rat(rng.randint(1, 9), 7) for x, w in mu.atoms.items()}
                mu = Measure(mu.dim, scaled)
            elif i % 4 == 2 and mu.dim > 1:  # twins that merge when projected on e_0
                v = (0,) + (rng.randint(1, 5),) * (mu.dim - 1)
                mu = mix([(rat(1, 2), mu), (rat(1, 2), shift(mu, v))])
                t = (rat(rng.randint(1, 9), rng.randint(1, 12)),) + (rat(0),) * (mu.dim - 1)
            assert mu._int_view() == int_view_reference(mu)
            # every operation's output carries the canonical view
            for m in (convolve(mu, mu), convolve_power(mu, 3), mu.normalized(), project(mu, t)):
                assert m._int_view() == int_view_reference(m)
            got = project(mu, t)._int_view()
            assert got == project_ints_reference(mu, t)
            merged += len(got[1]) < len(mu)
        assert merged > 50
        for dim in (1, 2, 3):
            empty = Measure(dim, {})
            assert empty._int_view() == int_view_reference(empty)
            t = (1,) * dim
            assert project(empty, t)._int_view() == project_ints_reference(empty, t)

    def test_empty_measure(self):
        empty = Measure(2, {})
        assert empty._int_view() == (1, [], 1, [])
        assert len(project(empty, ("1/2", 3))) == 0
        assert project(empty, (1, 1)).mass() == 0

    def test_functional_is_checked(self):
        mu = Measure(2, {(0, 1): 1})
        with pytest.raises(DimensionMismatch):
            project(mu, (1,))
        with pytest.raises(TypeError):
            project(mu, (0.5, 1))


class TestKnownMass:
    """Derived measures take their mass from the operation; it must equal the
    exact sum of their weights."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mass_is_sum_of_weights(self, hyp, dim):
        @kernel_settings(hyp)
        @hyp.given(
            measures_on(hyp, dim),
            measures_on(hyp, dim),
            functionals(hyp, dim),
            hyp.strategies.sampled_from([0, 1, 2, 3, 5]),
        )
        def check(mu, nu, a, n):
            outputs = [
                project(mu, a),
                shift(mu, a),
                mu.normalized(),
                convolve(mu, nu),
                convolve_power(mu, n),
            ]
            for out in outputs:
                assert out.mass() == sum(out.atoms.values(), rat(0))

        check()


def counting_fractions(built: list):
    """Wrap ``Fraction.__new__`` to append the arguments of every call to
    ``built``; returns the original, which the caller puts back."""
    original = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    return original


class TestKernelsOnInts:
    """The operations compute on integer views: until ``atoms`` is read, no
    ``Fraction`` is built, and the decoded atoms are those of the rational
    loops, sorted by point."""

    def test_no_fraction_until_atoms_are_read(self):
        rng = random.Random(163)
        draws = (random_measure_1d, random_measure_2d, random_measure_3d)
        cases = []
        for i in range(30):
            mu, nu = draws[i % 3](rng), draws[i % 3](rng)
            k = rat(rng.randint(1, 9), 7)
            scaled = Measure(mu.dim, {x: w * k for x, w in mu.atoms.items()})
            t = tuple(rat(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(mu.dim))
            a = tuple(rat(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(mu.dim))
            c = (rat(rng.randint(1, 5), rng.randint(1, 5)), rat(rng.randint(0, 3), 2))
            cases.append((mu, nu, scaled, t, a, c))
        built = []
        original = counting_fractions(built)
        try:
            outputs = []
            for mu, nu, scaled, t, a, c in cases:
                empty = Measure(mu.dim)
                results = [
                    convolve(mu, nu),
                    convolve(mu, empty),
                    *(convolve_power(mu, n) for n in (0, 1, 4)),
                    convolve_power(empty, 4),
                    project(mu, t),
                    shift(mu, a),
                    scaled.normalized(),
                    mix([(c[0], mu), (c[1], scaled)]),
                ]
                for m in results:
                    assert len(m) == len(m._int_view()[1])
                    if m.dim == 1:
                        m._tail_index()
                outputs.append(results)
        finally:
            Fraction.__new__ = original
        assert built == []

        for (mu, nu, scaled, t, a, c), results in zip(cases, outputs):
            # scaled has mu's points, in mu's order
            mixed = {x: c[0] * w + c[1] * scaled.atoms[x] for x, w in mu.atoms.items()}
            mass = scaled.mass()
            expected = [
                naive_convolve(mu.atoms, nu.atoms),
                {},
                *(naive_power_sizes(dict(mu.atoms), mu.dim, n)[0] for n in (0, 1, 4)),
                {},
                naive_project(mu, t),
                {tuple(p + q for p, q in zip(x, a)): w for x, w in mu.atoms.items()},
                {x: w / mass for x, w in scaled.atoms.items()},
                mixed,
            ]
            for m, atoms in zip(results, expected):
                assert list(m.atoms.items()) == sorted(atoms.items())


class TestCanonicalForm:
    """Every operation returns the canonical view: points strictly
    increasing and both gcds 1, so equal measures have identical views and
    ``==`` compares them without decoding an atom."""

    @staticmethod
    def outputs(rng: random.Random, mu: Measure, nu: Measure) -> list:
        dim = mu.dim
        items = list(mu.atoms.items())
        (x, w), rest = items[0], items[1:]
        # mu's atoms shuffled, with the first split in two entries that merge
        written = rest + [(x, w / 3), (x, w * 2 / 3)]
        rng.shuffle(written)
        ratios = [(tuple(map(as_ratio, pt)), as_ratio(v)) for pt, v in written]
        scaled = Measure(dim, [(pt, v * rat(rng.randint(1, 9), 7)) for pt, v in written])
        t = tuple(rat(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(dim))
        a = tuple(rat(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(dim))
        c = rat(rng.randint(0, 4), 4)
        return [
            mu,
            Measure(dim, written),
            from_ratios(dim, ratios),
            convolve(mu, nu),
            convolve(nu, mu),
            *(convolve_power(mu, n) for n in range(5)),
            project(mu, t),
            project(nu, t),
            shift(mu, a),
            shift(shift(mu, a), tuple(-v for v in a)),
            mix([(c, mu), (1 - c, nu)]),
            mix([(1 - c, nu), (c, mu)]),
            scaled,
            scaled.normalized(),
            delta(a),
            delta((0,) * dim),
        ]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_views_are_canonical(self, dim):
        rng = random.Random(170 + dim)
        draw = (random_measure_1d, random_measure_2d, random_measure_3d)[dim - 1]
        measures = []
        for _ in range(12):
            measures += self.outputs(rng, draw(rng), draw(rng))
        for m in measures:
            s, coords, d, weights = m._int_view()
            assert all(map(lt, coords, coords[1:]))
            assert math.gcd(s, *chain.from_iterable(coords)) == 1
            assert math.gcd(d, *weights) == 1
        # only each draw's mu has decoded atoms yet, so == may not decode any
        built = []
        original = counting_fractions(built)
        try:
            verdicts = [[a == b for b in measures] for a in measures]
        finally:
            Fraction.__new__ = original
        assert built == []
        decoded = [(m.dim, dict(m.atoms)) for m in measures]
        assert verdicts == [[a == b for b in decoded] for a in decoded]
        # each draw has at least 36 ordered pairs of equal measures: mu, its
        # shuffled and split lists, its first power, its shift and back and
        # its normalized scaling (30); the swapped convolution, the swapped
        # mixture, and the 0th power with the unit mass at 0 (2 each)
        equal_pairs = sum(map(sum, verdicts)) - len(measures)
        assert equal_pairs >= 36 * 12
