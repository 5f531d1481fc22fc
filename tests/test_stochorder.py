"""Exact stochastic-order deciders and their certificates."""

from __future__ import annotations

import random

import pytest

from walkorder import (
    Cone,
    MassMismatch,
    Measure,
    convolve,
    delta,
    leq_st,
    mix,
    shift,
    upset_mass,
)
from walkorder import solvers, stochorder
from walkorder.rational import ZERO, rat
from walkorder.stochorder import _leq_flow

from conftest import random_measure_1d


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


# the three shapes a 1-D cone takes: [0, inf), (-inf, 0], and (-inf, 0] with
# a scaled normal and unit
CONES_1D = [
    Cone.halfline(),
    Cone(1, [(-1,)], [(-1,)], (-1,)),
    Cone(1, [(-2,)], [(-3,)], (-5,)),
]


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

    def test_one_dimensional_route_skips_flow_and_leq_point(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("1-D leq_st must not build order edges or run the flow")

        monkeypatch.setattr(Cone, "leq_point", forbidden)
        monkeypatch.setattr(solvers, "transport_feasible", forbidden)
        monkeypatch.setattr(stochorder, "transport_feasible", forbidden)
        mu = m1({0: "1/2", 1: "1/2"})
        nu = m1({1: "1/2", 2: "1/2"})
        for cone in CONES_1D:
            # one direction is dominated and the other is not, on either orientation
            assert {leq_st(mu, nu, cone).dominated, leq_st(nu, mu, cone).dominated} == {True, False}
