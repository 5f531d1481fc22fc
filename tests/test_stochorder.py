"""Exact stochastic-order deciders and their certificates."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import le, sub

import pytest

from walkorder import (
    Cone,
    DimensionMismatch,
    MassMismatch,
    Measure,
    convolve,
    convolve_power,
    delta,
    leq_st,
    mix,
    project,
    shift,
    upset_mass,
)
from walkorder import solvers, stochorder
from walkorder.rational import ZERO, rat
from walkorder.stochorder import (
    _keyed_edges,
    _keyed_sweep,
    _leq_flow,
    principal_upset_masses,
    tail_mass,
)

from conftest import (
    CONES_1D,
    cube_rays,
    kernel_settings,
    leq_flow_reference,
    measures_on,
    random_measure_1d,
    random_measure_2d,
    random_measure_3d,
    transport_feasible_reference,
    upset_mass_reference,
)


def m1(mapping) -> Measure:
    return Measure(1, {(k,): v for k, v in mapping.items()})


def check_coupling(plan, mu, nu, cone) -> None:
    row = {}
    col = {}
    for (x, y), w in plan.entries.items():
        assert w > 0
        assert cone.leq_point(x, y)
        row[x] = row.get(x, ZERO) + w
        col[y] = col.get(y, ZERO) + w
    assert row == dict(mu.atoms)
    assert col == dict(nu.atoms)


def certificate(v) -> tuple:
    """Verdict, upset witness and coupling entries in order, for exact comparison."""
    plan = None if v.witness_coupling is None else list(v.witness_coupling.entries.items())
    return v.dominated, v.witness_upset, plan


class TestUpsetMass:
    def test_tail(self, halfline):
        b = m1({0: "1/2", 1: "1/2"})
        assert upset_mass(b, halfline, [(1,)]) == rat(1, 2)

    def test_whole_space(self, halfline):
        b = m1({0: "1/2", 1: "1/2"})
        assert upset_mass(b, halfline, [(-5,)]) == 1

    def test_planar(self, orthant2):
        mu = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
        assert upset_mass(mu, orthant2, [(1, 0)]) == rat(1, 2)

    CONES = (
        *CONES_1D,
        Cone.orthant(2),
        Cone.from_generators(2, rays=[("1/2", "1/3"), ("-1/5", 1)]),
        Cone.orthant(3),
    )

    @staticmethod
    def reference(mu: Measure, cone: Cone, gens: list) -> Fraction:
        """The Fraction scan: an atom counts when some generator lies below
        it by every normal of the cone."""
        def below(g, x) -> bool:
            return all(sum(((a - b) * c for a, b, c in zip(x, g, n)), ZERO) >= 0 for n in cone.normals)

        return sum((w for x, w in mu.atoms.items() if any(below(g, x) for g in gens)), ZERO)

    def test_several_generators_match_the_fraction_scan(self):
        # also against upset_mass_reference, the decoded route: 1-D to 3-D,
        # both half-lines, views with S > 1, several generators, some off
        # the view's lattice (a denominator that does not divide S)
        rng = random.Random(91)
        draws = {1: random_measure_1d, 2: random_measure_2d, 3: random_measure_3d}
        masses, seen = set(), set()
        for i in range(90):
            cone = self.CONES[i % len(self.CONES)]
            mu = draws[cone.dim](rng)
            for walk in (mu, convolve_power(mu, rng.randint(2, 3)), Measure(cone.dim, {})):
                atoms = sorted(walk.atoms) or [(rat(0),) * cone.dim]
                gens = [
                    rng.choice(atoms)
                    if rng.random() < 0.5
                    else tuple(rat(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(cone.dim))
                    for _ in range(rng.randint(1, 4))
                ]
                got = upset_mass(walk, cone, gens)
                assert got == self.reference(walk, cone, gens) == upset_mass_reference(walk, cone, gens)
                assert type(got) is Fraction
                masses.add(got)
                s = walk._int_view()[0]
                up = cone.dim > 1 or cone.normals[0][0] > 0
                off = any(s % c.denominator for g in gens for c in g)
                seen.add((cone.dim, up, s > 1, off, len(gens) > 1, 0 < got < 1))
        assert {ZERO, 1} < masses  # empty, full and partial upsets all seen
        assert {(d, up, True, True, True, True) for d, up in ((1, True), (1, False), (2, True), (3, True))} <= seen

    def test_reads_no_decoded_atom(self, monkeypatch):
        mu = Measure(2, {("1/2", 0): "1/3", (1, "1/3"): "2/3"})
        expected = upset_mass(mu, Cone.orthant(2), [(0, 0), ("1/2", "1/3")])
        monkeypatch.setattr(Measure, "atoms", property(lambda self: pytest.fail("atoms decoded")))
        assert upset_mass(mu, Cone.orthant(2), [(0, 0), ("1/2", "1/3")]) == expected == 1


class TestPrincipalUpsetMasses:
    """The integer-coordinate masses against upset_mass, one generator at a time."""

    CONES = (
        Cone.orthant(2),
        Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
        Cone.from_generators(2, rays=[("1/2", "1/3"), ("-1/5", 1)]),
        Cone.orthant(3),
        Cone.from_generators(3, rays=[(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
    )

    @staticmethod
    def generators(rng: random.Random, mu: Measure, other: Measure) -> list:
        # atoms of both measures (upset boundaries on atoms) and off-lattice points
        gens = sorted(set(mu.atoms) | set(other.atoms))
        gens += [
            tuple(rat(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(mu.dim))
            for _ in range(8)
        ]
        return gens

    def check(self, mu: Measure, cone: Cone, gens: list) -> list:
        got = principal_upset_masses(mu, cone, gens)
        expected = [upset_mass(mu, cone, [g]) for g in gens]
        assert got == expected
        assert all(type(m) is type(ZERO) for m in got)
        return got

    def test_random_measures_and_cones(self):
        rng = random.Random(81)
        masses = set()
        for i in range(60):
            cone = self.CONES[i % len(self.CONES)]
            draw = random_measure_2d if cone.dim == 2 else random_measure_3d
            mu, other = draw(rng).normalized(), draw(rng).normalized()
            masses.update(self.check(mu, cone, self.generators(rng, mu, other)))
        assert {ZERO, 1} < masses  # empty, full and partial upsets all seen

    def test_derived_walks(self):
        # the convolution powers relative_rate_lhs queries, at generators
        # moved down by its lift n * eps * unit
        rng = random.Random(82)
        for i in range(20):
            cone = self.CONES[i % len(self.CONES)]
            draw = random_measure_2d if cone.dim == 2 else random_measure_3d
            mu = draw(rng, max_atoms=3).normalized()
            n = rng.randint(1, 4)
            walk = convolve_power(mu, n)
            lift = tuple(rat(n, 64) * u for u in cone.unit)
            gens = self.generators(rng, walk, mu)
            self.check(walk, cone, [tuple(map(sub, g, lift)) for g in gens])

    def test_edges(self, orthant2):
        mu = Measure(2, {("1/3", "2/3"): "1/2", (1, 0): "1/2"})
        assert principal_upset_masses(mu, orthant2, []) == []
        assert self.check(mu, orthant2, [("1/3", "2/3"), ("1/3", "2/3001"), (2, 2)]) == [
            rat(1, 2), rat(1, 2), ZERO,
        ]
        with pytest.raises(DimensionMismatch):
            principal_upset_masses(mu, Cone.halfline(), [(0,)])


class TestLeqSt1D:
    def test_deltas(self, halfline):
        assert leq_st(delta((0,)), delta((1,)), halfline).dominated

    def test_bernoulli_pair(self, halfline):
        v = leq_st(m1({0: "1/2", 1: "1/2"}), m1({0: "1/4", 1: "3/4"}), halfline)
        assert v.dominated
        check_coupling(v.witness_coupling, m1({0: "1/2", 1: "1/2"}), m1({0: "1/4", 1: "3/4"}), halfline)

    def test_violation_witness(self, halfline):
        v = leq_st(m1({0: "1/2", 3: "1/2"}), delta((1,)), halfline)
        assert not v.dominated
        assert v.witness_upset == [(rat(3),)]

    def test_mass_mismatch(self, halfline):
        with pytest.raises(MassMismatch):
            leq_st(delta((0,)), m1({1: "1/2"}), halfline)


class TestLeqStGeneral:
    def test_supp_criterion_pair(self, orthant2):
        mu = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
        v = leq_st(mu, delta((1, 1)), orthant2)
        assert v.dominated
        check_coupling(v.witness_coupling, mu, delta((1, 1)), orthant2)

    def test_forced_plan(self, orthant2):
        mu = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
        nu = Measure(2, {(2, 0): "1/2", (0, 2): "1/2"})
        v = leq_st(mu, nu, orthant2)
        assert v.dominated
        expected = {
            ((rat(0), rat(1)), (rat(0), rat(2))): rat(1, 2),
            ((rat(1), rat(0)), (rat(2), rat(0))): rat(1, 2),
        }
        assert dict(v.witness_coupling.entries) == expected

    def test_no_admissible_edges(self, orthant2):
        mu = delta((1, 1))
        nu = Measure(2, {(-1, 3): "1/2", (3, -1): "1/2"})
        v = leq_st(mu, nu, orthant2)
        assert not v.dominated
        assert v.witness_upset == [(rat(1), rat(1))]
        assert upset_mass(mu, orthant2, v.witness_upset) > upset_mass(nu, orthant2, v.witness_upset)

    def test_mass_mismatch(self, halfline):
        with pytest.raises(MassMismatch):
            leq_st(delta((0,)), m1({1: "1/2"}), halfline)

    def test_non_orthant_cone(self):
        cone = Cone.from_generators(2, rays=[(1, 0), (1, 1)], unit=(2, 1))
        assert leq_st(delta((0, 0)), delta((2, 1)), cone).dominated
        v = leq_st(delta((0, 0)), delta((0, 1)), cone)
        assert not v.dominated and v.witness_upset == [(rat(0), rat(0))]


class TestAgreementAndCertificates:
    def test_fast_path_agrees_with_flow_path(self, halfline):
        rng = random.Random(42)
        agree = 0
        for _ in range(80):
            mu = random_measure_1d(rng)
            nu = random_measure_1d(rng)
            v1 = _leq_flow(mu, nu, halfline)
            v2 = leq_st(mu, nu, halfline)
            assert certificate(v1) == certificate(v2)
            agree += 1
            if v2.dominated:
                check_coupling(v2.witness_coupling, mu, nu, halfline)
            else:
                gens = v2.witness_upset
                assert upset_mass(mu, halfline, gens) > upset_mass(nu, halfline, gens)
        assert agree == 80

    def test_monotone_under_convolution(self, halfline):
        rng = random.Random(43)
        checked = 0
        while checked < 15:
            mu = random_measure_1d(rng, max_atoms=4, span=6)
            nu = random_measure_1d(rng, max_atoms=4, span=6)
            if mu.mass() != nu.mass() or not leq_st(mu, nu, halfline).dominated:
                continue
            kappa = random_measure_1d(rng, max_atoms=3, span=6)
            assert leq_st(convolve(mu, kappa), convolve(nu, kappa), halfline).dominated
            checked += 1

    def test_reflexive(self, halfline):
        rng = random.Random(44)
        for _ in range(20):
            mu = random_measure_1d(rng)
            assert leq_st(mu, mu, halfline).dominated

    def test_transitive_on_chains(self, halfline):
        rng = random.Random(45)
        for _ in range(15):
            mu = random_measure_1d(rng, max_atoms=4, span=5)
            step1 = (rat(rng.randint(0, 4), rng.randint(1, 3)),)
            step2 = (rat(rng.randint(0, 4), rng.randint(1, 3)),)
            nu = mix([("1/2", shift(mu, step1)), ("1/2", mu)])
            rho = shift(nu, step2)
            assert leq_st(mu, nu, halfline).dominated
            assert leq_st(nu, rho, halfline).dominated
            assert leq_st(mu, rho, halfline).dominated


class TestSweepCertificates:
    def test_sweep_certificates_equal_flow(self):
        rng = random.Random(46)
        seen = set()
        for _ in range(150):
            mu = random_measure_1d(rng, max_atoms=rng.randint(1, 8), span=rng.choice([2, 6, 24]))
            if rng.random() < 0.4:
                # nearby pairs: each atom moved by a small lattice step
                nu = Measure(1, [((x[0] + rng.randint(-1, 3),), w) for x, w in mu.atoms.items()])
            else:
                nu = random_measure_1d(rng, max_atoms=rng.randint(1, 8), span=rng.choice([2, 6, 24]))
            for cone in CONES_1D:
                v = leq_st(mu, nu, cone)
                assert certificate(v) == certificate(_leq_flow(mu, nu, cone))
                seen.add((cone.normals[0][0] > 0, v.dominated))
        assert len(seen) == 4  # both verdicts on both orientations

    def test_zero_mass_pair(self):
        empty = Measure(1, {})
        for cone in CONES_1D:
            v = leq_st(empty, empty, cone)
            assert certificate(v) == certificate(_leq_flow(empty, empty, cone)) == (True, None, [])

    def test_pairing_stops_at_the_first_positive_gap(self, monkeypatch):
        # each paired step takes one min(); the verdict cannot show pairing
        # that goes on past the cut, since its coupling is dropped
        steps = []

        def counting_min(*args):
            steps.append(args)
            return min(*args)

        monkeypatch.setattr(stochorder, "min", counting_min, raising=False)
        nu = m1({k: "1/10" for k in range(10)})
        for cone in CONES_1D:
            # mu's atom at the far end lies above all of nu in the cone order,
            # so the gap is positive at once; nu <= mu, by pairing every atom
            far = 20 if cone.normals[0][0] > 0 else -20
            mu = m1({far: "1/2", **{k: "1/20" for k in range(10)}})
            assert not leq_st(mu, nu, cone).dominated
            assert steps == []
            assert leq_st(nu, mu, cone).dominated and len(steps) >= 10
            steps.clear()

    def test_one_dimensional_route_skips_flow_and_checks_its_coupling(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("1-D leq_st must not build order edges or run the flow")

        monkeypatch.setattr(solvers, "transport_feasible", forbidden)
        monkeypatch.setattr(stochorder, "transport_feasible", forbidden)
        mu = m1({0: "1/2", 1: "1/2"})
        nu = m1({1: "1/2", 2: "1/2"})
        for cone in CONES_1D:
            # one direction is dominated and the other is not, on either orientation
            assert {leq_st(mu, nu, cone).dominated, leq_st(nu, mu, cone).dominated} == {True, False}
        # the coupling is checked pair by pair, as on the flow route: a
        # predicate that rejects one of its pairs turns the verdict into an error
        leq_point = Cone.leq_point
        rejected = ((rat(1),), (rat(2),))
        monkeypatch.setattr(Cone, "leq_point", lambda self, x, y: (x, y) != rejected and leq_point(self, x, y))
        with pytest.raises(RuntimeError, match=r"^coupling pairs \(1\) with \(2\), not ordered$"):
            leq_st(mu, nu, Cone.halfline())

    def test_one_dimensional_keys_built_once(self, monkeypatch):
        # the sweep and, where it leaves mass over, the walk read one set of keys
        calls = []
        over_one_lcm = stochorder._over_one_lcm

        def counted(*args):
            calls.append(args)
            return over_one_lcm(*args)

        monkeypatch.setattr(stochorder, "_over_one_lcm", counted)
        mu = m1({0: "1/2", 3: "1/2"})
        nu = m1({1: "1/2", 2: "1/2"})
        seen = set()
        for cone in CONES_1D:
            for a, b in ((mu, nu), (nu, mu), (nu, nu)):
                calls.clear()
                v = leq_st(a, b, cone)
                assert len(calls) == 1
                assert certificate(v) == certificate(_leq_flow(a, b, cone))
                seen.add(v.dominated)
        assert seen == {True, False}

    def test_one_dimensional_cut_is_checked(self, monkeypatch):
        # X puts 1/2 at 3, above all of Y: the walk cuts at the top atom.  A
        # walk that cuts at both atoms, or at none, names no violating upset
        mu = m1({0: "1/2", 3: "1/2"})
        nu = m1({1: "1/2", 2: "1/2"})
        for cone in CONES_1D:
            assert not leq_st(mu, nu, cone).dominated
        for cut in (lambda xs, ys: len(xs), lambda xs, ys: 0):
            monkeypatch.setattr(stochorder, "_tail_walk", cut)
            for cone in CONES_1D:
                with pytest.raises(RuntimeError, match=r"^cut of the top [02] atoms is not a violating upset$"):
                    leq_st(mu, nu, cone)


def laws_1d(hyp, dens):
    """Hypothesis strategy: 1-D probability laws of ``measures_on``."""
    return measures_on(hyp, 1, dens).map(Measure.normalized)


def moves(hyp, dens):
    """Hypothesis strategy: ten nonnegative moves, one per atom of a law."""
    st = hyp.strategies
    step = st.builds(rat, st.integers(0, 4), st.sampled_from(dens))
    return st.lists(step, min_size=10, max_size=10)


def moved_up(mu: Measure, cone: Cone, first: list, second: list) -> Measure:
    """Half of each atom of mu moved up the cone by its move in ``first``, the
    other half by its move in ``second``; so mu <= the result."""
    atoms = sorted(mu.atoms.items())
    return Measure(1, [
        ((x + m * cone.unit[0],), w / 2)
        for ms in (first, second)
        for ((x,), w), m in zip(atoms, ms)
    ])


def assert_certified(v, mu: Measure, nu: Measure, cone: Cone) -> None:
    """A coupling on ordered pairs with mu and nu as marginals, or an upset
    that carries more mu mass than nu mass."""
    if v.dominated:
        check_coupling(v.witness_coupling, mu, nu, cone)
    else:
        assert upset_mass(mu, cone, v.witness_upset) > upset_mass(nu, cone, v.witness_upset)


# coordinate denominators: every law in (1/6)Z, or laws on lattices of their own
LATTICES = [(1, 2, 3, 6), (1, 2, 3, 5, 7)]


class TestOrderLaws1D:
    """Order laws of the 1-D int walk behind ``leq_st``, on all three 1-D cones."""

    @pytest.mark.parametrize("dens", LATTICES)
    def test_reflexive(self, hyp, dens):
        @kernel_settings(hyp)
        @hyp.given(laws_1d(hyp, dens))
        def check(mu):
            for cone in CONES_1D:
                v = leq_st(mu, mu, cone)
                assert v.dominated
                assert v.witness_coupling.entries == {(x, x): w for x, w in mu.atoms.items()}

        check()

    @pytest.mark.parametrize("dens", LATTICES)
    def test_transitive(self, hyp, dens):
        @kernel_settings(hyp)
        @hyp.given(laws_1d(hyp, dens), laws_1d(hyp, dens), *[moves(hyp, dens)] * 4)
        def check(mu, other, m1, m2, m3, m4):
            for cone in CONES_1D:
                nu = moved_up(mu, cone, m1, m2)
                rho = moved_up(nu, cone, m3, m4)
                assert leq_st(mu, nu, cone).dominated and leq_st(nu, rho, cone).dominated
                assert leq_st(mu, rho, cone).dominated
                # a law drawn on its own, below nu or above nu
                if leq_st(other, nu, cone).dominated:
                    assert leq_st(other, rho, cone).dominated
                if leq_st(nu, other, cone).dominated:
                    assert leq_st(mu, other, cone).dominated

        check()

    @pytest.mark.parametrize("dens", LATTICES)
    def test_convolution_preserves_the_order(self, hyp, dens):
        @kernel_settings(hyp)
        @hyp.given(laws_1d(hyp, dens), laws_1d(hyp, dens), laws_1d(hyp, dens), *[moves(hyp, dens)] * 2)
        def check(mu, other, kappa, m1, m2):
            for cone in CONES_1D:
                for nu in (moved_up(mu, cone, m1, m2), other):
                    v = leq_st(mu, nu, cone)
                    assert v.dominated or nu is other
                    w = leq_st(convolve(mu, kappa), convolve(nu, kappa), cone)
                    assert w.dominated or not v.dominated
                    assert_certified(w, convolve(mu, kappa), convolve(nu, kappa), cone)

        check()

    @pytest.mark.parametrize("dens", LATTICES)
    def test_every_verdict_certified(self, hyp, dens):
        @kernel_settings(hyp)
        @hyp.given(laws_1d(hyp, dens), laws_1d(hyp, dens), *[moves(hyp, dens)] * 2)
        def check(mu, other, m1, m2):
            for cone in CONES_1D:
                nu = moved_up(mu, cone, m1, m2)
                for a, b in ((mu, nu), (nu, mu), (mu, other), (other, mu)):
                    assert_certified(leq_st(a, b, cone), a, b, cone)

        check()


class TestFlowCertificates:
    """``leq_st`` in d >= 2 against ``_leq_flow`` run on the ``Fraction``
    max-flow reference: the same verdict, coupling entries and upset."""

    CONES = (
        Cone.orthant(2),
        Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
        Cone.orthant(3),
        Cone.from_generators(3, rays=[(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
    )

    @staticmethod
    def moved_up(rng: random.Random, mu: Measure, cone: Cone) -> Measure:
        # every atom moved by a random nonnegative combination of the rays
        def step():
            coeffs = [rat(rng.randint(0, 3), rng.randint(1, 4)) for _ in cone.rays]
            return [sum((c * r[k] for c, r in zip(coeffs, cone.rays)), ZERO) for k in range(mu.dim)]

        return Measure(mu.dim, [
            (tuple(a + b for a, b in zip(x, step())), w) for x, w in mu.atoms.items()
        ])

    def test_equal_to_reference_flow(self, monkeypatch):
        rng = random.Random(48)
        pairs = []
        for c, cone in enumerate(self.CONES):
            draw = random_measure_2d if cone.dim == 2 else random_measure_3d
            for _ in range(30):
                mu = draw(rng, max_atoms=8)
                nu = self.moved_up(rng, mu, cone)
                pairs += [(c, mu, nu), (c, nu, mu), (c, mu, draw(rng, max_atoms=8))]
        got = [certificate(leq_st(mu, nu, self.CONES[c])) for c, mu, nu in pairs]
        monkeypatch.setattr(stochorder, "transport_feasible", transport_feasible_reference)
        expected = [certificate(_leq_flow(mu, nu, self.CONES[c])) for c, mu, nu in pairs]
        assert got == expected
        verdicts = {(c, v[0]) for (c, _, _), v in zip(pairs, got)}
        assert len(verdicts) == 2 * len(self.CONES)  # both verdicts on every cone
        assert sum(len(v[2]) > 2 for v in got if v[0]) > 60  # couplings that split mass


def on_lattice(rng: random.Random, dim: int, den: int, span: int) -> Measure:
    """Random probability measure with every coordinate in (1/den)Z."""
    atoms = {
        tuple(rat(rng.randint(-span, span), den) for _ in range(dim)): rat(rng.randint(1, 9))
        for _ in range(rng.randint(1, 8))
    }
    return Measure(dim, atoms).normalized()


class TestKeyedEdges:
    """The flow route reads its admissible pairs off integer normal keys; the
    pairwise ``Cone.leq_point`` scan of ``leq_flow_reference`` gives the same
    edges in the same order, so the verdict, the coupling entries in order
    and the upset are the same."""

    CONES = (
        Cone.orthant(2),
        Cone.from_generators(2, rays=[("1/2", "1/3"), ("-1/5", 1)]),
        Cone.from_generators(2, normals=[(1, "1/2")]),  # a half-plane: one normal
        Cone.orthant(3),
        Cone.from_generators(3, rays=[("1/2", 0, 0), (1, "1/3", 0), (1, 1, "2/7")]),
    )

    @staticmethod
    def pairs(rng: random.Random, cone: Cone) -> list:
        draw = random_measure_2d if cone.dim == 2 else random_measure_3d
        far = (rat(10**40, 3), rat(-(10**35), 7), rat(10**30 + 1))[: cone.dim]
        out = []
        for k in range(12):
            own = k % 3 == 1  # each law on a lattice of its own
            mu = on_lattice(rng, cone.dim, 7, 30) if own else draw(rng, max_atoms=8)
            nu = TestFlowCertificates.moved_up(rng, mu, cone)
            other = on_lattice(rng, cone.dim, 5, 20) if own else draw(rng, max_atoms=8)
            if k % 3 == 2:  # coordinates far past any float's integer range
                mu, nu, other = (shift(m, far) for m in (mu, nu, other))
            out += [(mu, nu), (nu, mu), (mu, other), (other, mu)]
        return out

    def test_equal_to_pairwise_reference(self):
        rng = random.Random(49)
        for cone in self.CONES:
            verdicts = set()
            for mu, nu in self.pairs(rng, cone):
                got = leq_st(mu, nu, cone)
                assert certificate(got) == certificate(leq_flow_reference(mu, nu, cone))
                assert_certified(got, mu, nu, cone)
                verdicts.add(got.dominated)
            assert verdicts == {True, False}, cone

    def test_edge_builder_equals_pairwise_scan(self):
        # the bitmask rows give the pairwise scan's list, in its (i, j) order
        assert _keyed_edges([()] * 2, [()] * 3) == [(i, j) for i in range(2) for j in range(3)]
        rng = random.Random(51)
        seen = set()
        for _ in range(1500):
            k = rng.randint(0, 3)
            scale = rng.choice((1, 1, 2**64 + 3))
            values = [rng.randint(-4, 4) * scale + rng.randint(-1, 1) for _ in range(rng.randint(1, 5))]
            keys_mu, keys_nu = (
                [tuple(rng.choice(values) for _ in range(k)) for _ in range(rng.choice((0, *range(1, 13))))]
                for _ in range(2)
            )
            expected = [
                (i, j) for i, kx in enumerate(keys_mu) for j, ky in enumerate(keys_nu) if all(map(le, kx, ky))
            ]
            assert _keyed_edges(keys_mu, keys_nu) == expected, (keys_mu, keys_nu)
            seen.add(("k", k, bool(expected)))
            seen.add(("empty", not keys_mu, not keys_nu))
            flat = [c for key in keys_mu + keys_nu for c in key]
            if len(set(flat)) < len(flat):
                seen.add("ties")
            if flat and min(flat) < 0:
                seen.add("negative")
            if flat and max(map(abs, flat)) > 2**64 and expected:
                seen.add("wide")
        assert {("k", k, True) for k in range(4)} <= seen
        assert {("empty", True, False), ("empty", False, True), "ties", "negative", "wide"} <= seen

    def test_benchmark_sized_pairs_equal_reference(self, monkeypatch):
        # 60 to 92 atoms a side, as in the benchmark's order checks: many
        # augmenting paths run, and carried flows return to 0 on the way
        inserted = []
        insort = solvers.insort
        monkeypatch.setattr(solvers, "insort", lambda a, x: inserted.append(x) or insort(a, x))
        rng = random.Random(52)
        returned = 0
        for cone in self.CONES:
            verdicts = set()
            for _ in range(2):
                points, size = set(), rng.randint(60, 92)
                while len(points) < size:
                    points.add(tuple(rat(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(cone.dim)))
                mu = Measure(cone.dim, {x: rng.randint(1, 9) for x in points}).normalized()
                nu = TestFlowCertificates.moved_up(rng, mu, cone)
                for a, b in ((mu, nu), (nu, mu)):
                    inserted.clear()
                    got = leq_st(a, b, cone)
                    assert certificate(got) == certificate(leq_flow_reference(a, b, cone))
                    verdicts.add(got.dominated)
                    if got.dominated:  # one insertion per plan entry, one more per return to 0
                        returned += len(inserted) - len(got.witness_coupling.entries)
            assert verdicts == {True, False}, cone
        assert returned >= 100, returned

    def test_leq_point_checks_only_the_plan(self, monkeypatch):
        # one call per coupling pair on a dominated verdict; none on a violated one
        calls = []
        leq_point = Cone.leq_point

        def counted(self, x, y):
            calls.append((x, y))
            return leq_point(self, x, y)

        monkeypatch.setattr(Cone, "leq_point", counted)
        rng = random.Random(50)
        seen = set()
        for cone in self.CONES:
            for mu, nu in self.pairs(rng, cone)[:16]:
                calls.clear()
                v = leq_st(mu, nu, cone)
                expected = [] if not v.dominated else list(v.witness_coupling.entries)
                assert calls == expected
                seen.add(v.dominated)
        assert seen == {True, False}

    def test_unordered_plan_pair_raises(self, monkeypatch):
        # a flow that pairs atoms the cone does not order is refused
        mu = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
        nu = Measure(2, {(1, 1): "1/2", (2, 2): "1/2"})
        cone = Cone.orthant(2)
        assert leq_st(mu, nu, cone).dominated
        monkeypatch.setattr(stochorder, "_normal_keys", lambda cone, coords: [()] * len(list(coords)))
        with pytest.raises(RuntimeError, match="not ordered"):
            leq_st(nu, mu, cone)


def laws_planar(hyp):
    """Hypothesis strategy: planar probability laws of ``measures_on``."""
    return measures_on(hyp, 2, (1, 2, 3)).map(Measure.normalized)


def moved_up_on(mu: Measure, cone: Cone, first: list, second: list) -> Measure:
    """Half of each atom i (of at most 10) of mu moved up by ``m[i]`` times
    one of the cone's rays plus ``m[i - 5]`` times its unit, for m =
    ``first``, the other half for m = ``second``; every move lies in the
    cone, so mu <= the result, in any dimension."""
    atoms = sorted(mu.atoms.items())
    rays, unit = cone.rays, cone.unit
    return Measure(mu.dim, [
        (tuple(c + m[i] * r + m[i - 5] * u for c, r, u in zip(x, rays[i % len(rays)], unit)), w / 2)
        for m in (first, second)
        for i, (x, w) in enumerate(atoms)
    ])


class TestOrderLawsPlanar:
    """Order laws of the flow route behind ``leq_st`` in d = 2, on the orthant
    and on a cone with rational rays."""

    CONES = (Cone.orthant(2), Cone.from_generators(2, rays=[("1/2", "1/3"), ("-1/5", 1)]))

    def test_reflexive(self, hyp):
        @kernel_settings(hyp)
        @hyp.given(laws_planar(hyp))
        def check(mu):
            for cone in self.CONES:
                v = leq_st(mu, mu, cone)
                assert v.dominated
                assert v.witness_coupling.entries == {(x, x): w for x, w in sorted(mu.atoms.items())}

        check()

    def test_transitive(self, hyp):
        dens = (1, 2, 3)

        @kernel_settings(hyp)
        @hyp.given(laws_planar(hyp), laws_planar(hyp), *[moves(hyp, dens)] * 4)
        def check(mu, other, m1, m2, m3, m4):
            for cone in self.CONES:
                nu = moved_up_on(mu, cone, m1, m2)
                rho = moved_up_on(nu, cone, m3, m4)
                assert leq_st(mu, nu, cone).dominated and leq_st(nu, rho, cone).dominated
                assert leq_st(mu, rho, cone).dominated
                if leq_st(other, nu, cone).dominated:
                    assert leq_st(other, rho, cone).dominated
                if leq_st(nu, other, cone).dominated:
                    assert leq_st(mu, other, cone).dominated

        check()

    def test_convolution_preserves_the_order(self, hyp):
        dens = (1, 2, 3)

        @kernel_settings(hyp)
        @hyp.given(laws_planar(hyp), laws_planar(hyp), laws_planar(hyp), *[moves(hyp, dens)] * 2)
        def check(mu, other, kappa, m1, m2):
            for cone in self.CONES:
                for nu in (moved_up_on(mu, cone, m1, m2), other):
                    v = leq_st(mu, nu, cone)
                    assert v.dominated or nu is other
                    w = leq_st(convolve(mu, kappa), convolve(nu, kappa), cone)
                    assert w.dominated or not v.dominated
                    assert_certified(w, convolve(mu, kappa), convolve(nu, kappa), cone)

        check()

    def test_every_verdict_certified(self, hyp):
        dens = (1, 2, 3)

        @kernel_settings(hyp)
        @hyp.given(laws_planar(hyp), laws_planar(hyp), *[moves(hyp, dens)] * 2)
        def check(mu, other, m1, m2):
            for cone in self.CONES:
                nu = moved_up_on(mu, cone, m1, m2)
                for a, b in ((mu, nu), (nu, mu), (mu, other), (other, mu)):
                    assert_certified(leq_st(a, b, cone), a, b, cone)

        check()


class TestOrderLaws3D:
    """Order laws of ``leq_st`` in d = 3, on the orthant and on the cone over
    a square, each verdict certified: every coupling passes
    ``check_coupling``, every upset carries more mass of the lower law."""

    CONES = (Cone.orthant(3), Cone.from_generators(3, rays=cube_rays(3)))
    DENS = (1, 2)

    @classmethod
    def laws(cls, hyp):
        return measures_on(hyp, 3, cls.DENS).map(Measure.normalized)

    @staticmethod
    def leq(mu: Measure, nu: Measure, cone: Cone) -> bool:
        v = leq_st(mu, nu, cone)
        assert_certified(v, mu, nu, cone)
        return v.dominated

    def test_reflexive(self, hyp):
        @kernel_settings(hyp)
        @hyp.given(self.laws(hyp))
        def check(mu):
            for cone in self.CONES:
                v = leq_st(mu, mu, cone)
                check_coupling(v.witness_coupling, mu, mu, cone)
                assert v.witness_coupling.entries == {(x, x): w for x, w in sorted(mu.atoms.items())}

        check()

    def test_moved_up_chains_are_transitive(self, hyp):
        @kernel_settings(hyp)
        @hyp.given(self.laws(hyp), self.laws(hyp), *[moves(hyp, self.DENS)] * 4)
        def check(mu, other, m1, m2, m3, m4):
            for cone in self.CONES:
                nu = moved_up_on(mu, cone, m1, m2)
                rho = moved_up_on(nu, cone, m3, m4)
                assert self.leq(mu, nu, cone) and self.leq(nu, rho, cone)
                assert self.leq(mu, rho, cone)
                if self.leq(other, nu, cone):
                    assert self.leq(other, rho, cone)
                if self.leq(nu, other, cone):
                    assert self.leq(mu, other, cone)

        check()

    def test_convolution_preserves_the_order(self, hyp):
        seen = set()

        @hyp.settings(kernel_settings(hyp), max_examples=30)
        @hyp.given(self.laws(hyp), self.laws(hyp), self.laws(hyp), *[moves(hyp, self.DENS)] * 2)
        def check(mu, other, kappa, m1, m2):
            for cone in self.CONES:
                for nu in (moved_up_on(mu, cone, m1, m2), other):
                    below = self.leq(mu, nu, cone)
                    assert below or nu is other
                    after = self.leq(convolve(mu, kappa), convolve(nu, kappa), cone)
                    assert after or not below
                    seen.add((below, after))

        check()
        assert {(True, True), (False, False)} <= seen


class TestKeyedSweep:
    """``_keyed_sweep``, the greedy coupling on two int keys behind d >= 2
    ``min_n``, against ``leq_flow_reference``: a coupling exactly when the
    reference finds one, on ordered pairs with the inputs as marginals."""

    CONES = (
        Cone.orthant(2),
        Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
        Cone.from_generators(2, rays=[(2, -1), (-1, 3)]),
        Cone.from_generators(2, normals=[(1, "1/2")]),  # a half-plane: one key
        # a 3-D wedge {x1 >= 0, x2 >= 0}: its two normals derived from rays,
        # then given in the other order
        Cone.from_generators(3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)]),
        Cone.from_generators(3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)], normals=[(0, 1, 0), (1, 0, 0)]),
    )

    @staticmethod
    def agree(mu: Measure, nu: Measure, cone: Cone):
        plan = _keyed_sweep(mu, nu, cone)
        assert (plan is not None) == leq_flow_reference(mu, nu, cone).dominated, (mu, nu, cone)
        if plan is not None:
            check_coupling(plan, mu, nu, cone)
        return plan

    @staticmethod
    def tied(rng: random.Random, cone: Cone) -> Measure:
        """Atoms on a coarse lattice, so that many share a first key."""
        atoms = {
            tuple(rat(rng.randint(-2, 2)) for _ in range(cone.dim)): rat(rng.randint(1, 4))
            for _ in range(rng.randint(1, 7))
        }
        return Measure(cone.dim, atoms).normalized()

    def test_seeded_pairs_and_powers(self):
        rng = random.Random(53)
        for cone in self.CONES:
            assert len(cone._int_normals) <= 2
            draw = random_measure_2d if cone.dim == 2 else random_measure_3d
            seen = set()
            for k in range(30):
                mu = self.tied(rng, cone) if k % 2 else draw(rng, max_atoms=6)
                nu = TestFlowCertificates.moved_up(rng, mu, cone)
                other = self.tied(rng, cone) if k % 3 else draw(rng, max_atoms=6)
                n = 1 + k % 3
                if n > 1:
                    mu, nu, other = (convolve_power(m, n) for m in (mu, nu, other))
                for a, b in ((mu, nu), (nu, mu), (mu, other), (other, mu)):
                    plan = self.agree(a, b, cone)
                    seen.add(plan is not None)
                    if plan is not None and len(plan.entries) > len(a):
                        seen.add("split")
                    firsts = [key[0] for key in stochorder._normal_keys(cone, a._int_view()[1])]
                    if len(set(firsts)) < len(firsts):
                        seen.add("tie")
            assert seen == {True, False, "split", "tie"}, cone

    def test_hypothesis_pairs(self, hyp):
        dens = (1, 2, 3)

        @kernel_settings(hyp)
        @hyp.given(laws_planar(hyp), laws_planar(hyp), *[moves(hyp, dens)] * 2, hyp.strategies.integers(1, 3))
        def check(mu, other, m1, m2, n):
            for cone in self.CONES[:4]:
                nu = moved_up_on(mu, cone, m1, m2)
                assert self.agree(mu, nu, cone) is not None
                for a, b in ((nu, mu), (mu, other), (other, mu)):
                    self.agree(a, b, cone)
                self.agree(convolve_power(mu, n), convolve_power(other, n), cone)

        check()

    def test_unordered_pair_raises(self, monkeypatch):
        # the coupling is checked pair by pair: a predicate that rejects one
        # of its pairs turns the verdict into an error
        mu = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
        nu = Measure(2, {(1, 1): "1/2", (2, 2): "1/2"})
        cone = Cone.orthant(2)
        plan = _keyed_sweep(mu, nu, cone)
        assert plan is not None
        rejected = list(plan.entries)[-1]
        leq_point = Cone.leq_point
        monkeypatch.setattr(Cone, "leq_point", lambda self, x, y: (x, y) != rejected and leq_point(self, x, y))
        with pytest.raises(RuntimeError, match=r"^coupling pairs \(1, 0\) with \(1, 1\), not ordered$"):
            _keyed_sweep(mu, nu, cone)


class TestPlanMarginals:
    """``_checked_plan`` sums the int flows of every coupling it is handed:
    a plan that loses or moves one unit of flow raises, on the sweep routes
    (1-D ``leq_st``, planar ``_keyed_sweep``) and on the flow route."""

    PLANAR = (
        Measure(2, {(0, 1): "1/3", (1, 0): "2/3"}),
        Measure(2, {(1, 1): "1/2", (2, 2): "1/2"}),
        Cone.orthant(2),
    )

    @staticmethod
    def drop_one_unit(flows: dict) -> dict:
        (i, j), f = max(flows.items())
        return {**flows, (i, j): f - 1}

    @staticmethod
    def move_one_unit(flows: dict) -> dict:
        # the row sums stay, one column gains the unit another loses
        (i, j), f = max(flows.items())
        other = next(jj for (ii, jj) in flows if jj != j)
        moved = {**flows, (i, j): f - 1}
        moved[i, other] = moved.get((i, other), 0) + 1
        return moved

    @staticmethod
    def patch_check(monkeypatch, alter):
        checked_plan = stochorder._checked_plan
        monkeypatch.setattr(
            stochorder,
            "_checked_plan",
            lambda cone, point, d, sides, flows: checked_plan(cone, point, d, sides, alter(flows)),
        )

    @pytest.mark.parametrize("alter", ["drop_one_unit", "move_one_unit"])
    def test_sweep_plans(self, monkeypatch, alter):
        mu, nu, cone = self.PLANAR
        halfline = Cone.halfline()
        x, y = m1({0: "1/3", 2: "2/3"}), m1({1: "1/4", 3: "3/4"})
        assert _keyed_sweep(mu, nu, cone) is not None and leq_st(x, y, halfline).dominated
        self.patch_check(monkeypatch, getattr(self, alter))
        with pytest.raises(RuntimeError, match=r"^coupling marginals differ from the two laws$"):
            _keyed_sweep(mu, nu, cone)
        with pytest.raises(RuntimeError, match=r"^coupling marginals differ from the two laws$"):
            leq_st(x, y, halfline)

    def test_flow_plan(self, monkeypatch):
        mu, nu, cone = self.PLANAR
        assert leq_st(mu, nu, cone).dominated
        transport = stochorder.transport_feasible

        def short(inst):
            result = transport(inst)
            return solvers.TransportResult(True, self.drop_one_unit(result.plan), None)

        monkeypatch.setattr(stochorder, "transport_feasible", short)
        with pytest.raises(RuntimeError, match=r"^coupling marginals differ from the two laws$"):
            leq_st(mu, nu, cone)


def naive_tail(mu: Measure, c):
    """The O(N) scan that the tail index replaces."""
    return sum((w for x, w in mu.atoms.items() if x[0] >= c), ZERO)


def probe_thresholds(mu: Measure) -> list:
    """Every atom, every midpoint between neighbours, and points below the
    minimum and above the maximum."""
    xs = sorted(x[0] for x in mu.atoms)
    if not xs:
        return [rat(0), rat(-5, 3), rat(7, 2)]
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    return xs + mids + [xs[0] - 1, xs[0] - rat(1, 7), xs[-1] + rat(1, 7), xs[-1] + 1]


def threshold_forms(c) -> list:
    forms = [c, (c,), [c], str(c)]
    if c.denominator == 1:
        forms.append(int(c))
    return forms


def assert_tails_exact(mu: Measure) -> None:
    for c in probe_thresholds(mu):
        expected = naive_tail(mu, c)
        for form in threshold_forms(c):
            got = tail_mass(mu, form)
            assert got == expected and type(got) is type(expected), (c, form)


class TestTailMass:
    """tail_mass answers from a lazily built index; the naive scan is the oracle."""

    def test_matches_naive_scan(self, hyp):
        @kernel_settings(hyp)
        @hyp.given(measures_on(hyp, 1))
        def check(mu):
            assert_tails_exact(mu)
            assert_tails_exact(mu)  # repeated queries reuse the index

        check()

    def test_derived_measures(self, hyp):
        st = hyp.strategies

        @kernel_settings(hyp)
        @hyp.given(
            measures_on(hyp, 1),
            st.sampled_from([0, 1, 2, 3, 5, 8]),
            st.builds(rat, st.integers(-6, 6), st.sampled_from([1, 3, 4])),
            st.builds(rat, st.integers(1, 5), st.sampled_from([1, 2, 7])),
        )
        def check(mu, n, a, f):
            assert_tails_exact(mu)  # an index on the source must not leak
            assert_tails_exact(convolve_power(mu, n))
            assert_tails_exact(shift(mu, (a,)))
            # project along (f,) scales by f; -f also mirrors, as on (-inf, 0]
            assert_tails_exact(project(mu, (f,)))
            assert_tails_exact(project(convolve_power(mu, n), (-f,)))

        check()

    def test_empty_measure(self):
        for empty in (Measure(1, {}), Measure(1, {(3,): 0}), mix([(0, delta((1,)))])):
            assert_tails_exact(empty)
            assert tail_mass(empty, -10) == ZERO

    def test_float_threshold_rejected(self):
        mu = m1({0: "1/2", 1: "1/2"})
        for c in (0.5, (0.5,), [1.0]):
            with pytest.raises(TypeError):
                tail_mass(mu, c)
        with pytest.raises(TypeError):
            tail_mass(Measure(1, {}), 0.5)

    def test_two_dimensional_rejected(self):
        mu = Measure(2, {(0, 0): "1/2", (1, 1): "1/2"})
        with pytest.raises(DimensionMismatch):
            tail_mass(mu, 0)
        with pytest.raises(DimensionMismatch):
            tail_mass(m1({0: 1}), (0, 0))
