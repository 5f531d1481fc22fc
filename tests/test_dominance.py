"""Minimal-n certification, catalyst search, growth exponents."""

from __future__ import annotations

import random

import pytest

from walkorder import (
    AtomBudgetExceeded,
    Measure,
    catalyst_1d,
    convolve,
    convolve_power,
    delta,
    growth_exponent,
    leq_st,
    min_n,
    shift,
    spectral_verdict,
)
from walkorder.dominance import default_catalyst_grid
from walkorder.rational import rat
from walkorder.spectrum import VIOLATED

from conftest import bernoulli, random_measure_1d

# frozen from the exact convolution + tail-comparison oracle
CURATED_N0 = 14
CURATED_FAILURES = [1, 2, 3, 4, 5, 7, 9, 11, 13]


def m1(mapping) -> Measure:
    return Measure(1, {(k,): v for k, v in mapping.items()})


class TestMinN:
    def test_immediate_dominance(self, halfline):
        res = min_n(delta((0,)), delta((1,)), halfline, n_max=4)
        assert res.found and res.n0 == 1 and res.failures == []

    def test_bernoulli_pair(self, halfline):
        res = min_n(bernoulli("1/2"), bernoulli("3/4"), halfline, n_max=8)
        assert res.found and res.n0 == 1

    def test_curated_pair_regression(self, halfline, curated_pair):
        X, Y = curated_pair
        res = min_n(X, Y, halfline, n_max=16)
        assert res.found
        assert res.n0 == CURATED_N0
        assert [n for n, _ in res.failures] == CURATED_FAILURES
        assert res.stable_through == 16

    def test_curated_pair_against_convolution_oracle(self, halfline, curated_pair):
        X, Y = curated_pair
        fails = [
            n
            for n in range(1, 17)
            if not leq_st(convolve_power(X, n), convolve_power(Y, n), halfline).dominated
        ]
        assert fails == CURATED_FAILURES

    def test_not_found_when_last_n_fails(self, halfline, curated_pair):
        X, Y = curated_pair
        res = min_n(X, Y, halfline, n_max=5)
        assert not res.found and res.n0 is None
        assert res.stable_through == 5

    def test_translation_sanity(self, halfline):
        rng = random.Random(61)
        for _ in range(10):
            X = random_measure_1d(rng, max_atoms=4, span=5).normalized()
            a = (rat(rng.randint(0, 5), rng.randint(1, 3)),)
            res = min_n(X, shift(X, a), halfline, n_max=3)
            assert res.found and res.n0 == 1

    def test_found_implies_never_spectrally_violated(self, halfline):
        rng = random.Random(62)
        found_cases = 0
        attempts = 0
        while found_cases < 10 and attempts < 200:
            attempts += 1
            X = random_measure_1d(rng, max_atoms=3, span=4).normalized()
            Y = shift(X, (rat(rng.randint(0, 3), 2),)) if rng.random() < 0.6 else (
                random_measure_1d(rng, max_atoms=3, span=4).normalized()
            )
            res = min_n(X, Y, halfline, n_max=6)
            if not res.found:
                continue
            found_cases += 1
            assert spectral_verdict(X, Y, halfline).verdict != VIOLATED
        assert found_cases == 10

    def test_atom_budget_propagates(self, halfline):
        mu = m1({0: "1/3", "1/3": "1/3", "1/2": "1/3"})
        with pytest.raises(AtomBudgetExceeded):
            min_n(mu, shift(mu, (1,)), halfline, n_max=40, cap=50)


class TestCatalyst:
    def test_dominated_pair_needs_only_delta(self):
        c = catalyst_1d(bernoulli("1/2"), bernoulli("3/4"), [0])
        assert c is not None and c.verified
        assert c.Z == delta((0,))

    def test_curated_pair_frozen_catalyst(self, halfline, curated_pair):
        # regression baseline: the LP finds a verified catalyst on the grid
        # {0, 1/10, ..., 3} even though the pair is not dominated at n = 1
        X, Y = curated_pair
        assert not leq_st(X, Y, halfline).dominated
        c = catalyst_1d(X, Y, [rat(k, 10) for k in range(31)])
        assert c is not None
        assert c.verified
        assert leq_st(convolve(X, c.Z), convolve(Y, c.Z), halfline).dominated
        assert c.grid_step == rat(1, 10)

    def test_mean_violated_pair_not_found_on_any_grid(self):
        X = bernoulli("3/4")
        Y = bernoulli("1/2")
        grids = (
            [0],
            [rat(k, 4) for k in range(5)],
            [rat(k, 10) for k in range(31)],
            [rat(k, 8) for k in range(17)],
        )
        for grid in grids:
            assert catalyst_1d(X, Y, grid) is None

    def test_returned_catalysts_always_verified(self):
        rng = random.Random(63)
        returned = 0
        for _ in range(40):
            X = random_measure_1d(rng, max_atoms=3, span=3).normalized()
            Y = random_measure_1d(rng, max_atoms=3, span=3).normalized()
            grid = default_catalyst_grid(X, Y)
            if len(grid) > 40:
                continue
            c = catalyst_1d(X, Y, grid)
            if c is not None:
                returned += 1
                assert c.verified
        assert returned > 0

    def test_default_grid_uses_lattice_step(self, curated_pair):
        X, Y = curated_pair
        grid = default_catalyst_grid(X, Y)
        assert grid[0] == 0 and grid[1] == rat(1, 10)


class TestGrowthExponent:
    def test_equal_deltas(self, halfline):
        assert growth_exponent(delta((0,)), delta((0,)), halfline) == 0

    def test_shifted_delta(self, halfline):
        assert growth_exponent(delta((0,)), delta((3,)), halfline) == 3

    def test_bernoulli_pair_within_bound(self, halfline):
        k = growth_exponent(bernoulli("1/2"), bernoulli("3/4"), halfline)
        assert k == 1
        assert k <= 2 * halfline.bounding_k([(0,), (1,)])

    def test_random_pairs_bound_and_reverify(self, halfline):
        rng = random.Random(64)
        for _ in range(12):
            mu = random_measure_1d(rng, max_atoms=4, span=5).normalized()
            nu = random_measure_1d(rng, max_atoms=4, span=5).normalized()
            k = growth_exponent(mu, nu, halfline)
            bound = 2 * halfline.bounding_k(list(mu.atoms) + list(nu.atoms))
            assert 0 <= k <= bound
            assert leq_st(nu, shift(mu, (rat(k),)), halfline).dominated
            if k > 0:
                assert not leq_st(nu, shift(mu, (rat(k - 1),)), halfline).dominated
