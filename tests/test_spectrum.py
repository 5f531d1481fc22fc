"""Normalized-CGF spectrum sweeps and the ray/overall verdict logic."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from walkorder import (
    Measure,
    SpectrumOptions,
    SpectrumPoint,
    compare_on_ray,
    convolve_power,
    delta,
    leq_st_1d,
    lev,
    project,
    shift,
    spectral_verdict,
)
from walkorder.cones import Cone
from walkorder.rational import rat
from walkorder.spectrum import (
    NON_STRICT_ONLY,
    STRICT,
    STRICT_ON_RAY,
    TIE_ON_RAY,
    VIOLATED,
    VIOLATED_ON_RAY,
    _golden_min,
    _Projected,
)

from conftest import random_measure_1d


def m1(mapping) -> Measure:
    return Measure(1, {(k,): v for k, v in mapping.items()})


def direction_1d():
    return Cone.halfline().dual_directions(0)[0]


BERNOULLI_LEV_AT_1 = 0.6201145069582775  # log((1 + e) / 2), direct evaluation


class TestLev:
    def test_delta_is_constant_across_radials(self):
        d = direction_1d()
        for r in (-math.inf, -2.5, 0.0, 1e-6, 3.0, math.inf):
            assert lev(delta((2,)), SpectrumPoint(d, r)) == pytest.approx(2.0, abs=1e-12)

    def test_bernoulli_exceptional_points(self):
        b = m1({0: "1/2", 1: "1/2"})
        d = direction_1d()
        assert lev(b, SpectrumPoint(d, 0.0)) == 0.5
        assert lev(b, SpectrumPoint(d, math.inf)) == 1.0
        assert lev(b, SpectrumPoint(d, -math.inf)) == 0.0

    def test_bernoulli_temperate_value(self):
        b = m1({0: "1/2", 1: "1/2"})
        assert lev(b, SpectrumPoint(direction_1d(), 1.0)) == pytest.approx(
            BERNOULLI_LEV_AT_1, abs=1e-14
        )

    def test_requires_probability(self):
        with pytest.raises(ValueError):
            lev(m1({0: "1/2"}), SpectrumPoint(direction_1d(), 0.0))


class TestLevInvariants:
    def test_interval_property(self):
        rng = random.Random(51)
        d = direction_1d()
        for _ in range(15):
            mu = random_measure_1d(rng).normalized()
            lo = min(float(x[0]) for x in mu.atoms)
            hi = max(float(x[0]) for x in mu.atoms)
            for r in (-50.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 50.0):
                v = lev(mu, SpectrumPoint(d, r))
                assert lo - 1e-9 <= v <= hi + 1e-9

    def test_monotone_in_radial(self):
        rng = random.Random(52)
        d = direction_1d()
        grid = [-200.0, -20.0, -2.0, -0.2, 0.0, 0.2, 2.0, 20.0, 200.0]
        for _ in range(15):
            mu = random_measure_1d(rng).normalized()
            vals = [lev(mu, SpectrumPoint(d, r)) for r in grid]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_translation_equivariance(self):
        rng = random.Random(53)
        d = direction_1d()
        for _ in range(10):
            mu = random_measure_1d(rng).normalized()
            a = rat(rng.randint(-4, 4), rng.randint(1, 4))
            for r in (-math.inf, -3.0, 0.0, 0.7, math.inf):
                v = lev(mu, SpectrumPoint(d, r))
                w = lev(shift(mu, (a,)), SpectrumPoint(d, r))
                assert w == pytest.approx(v + float(a), abs=1e-9)

    def test_seam_continuity(self):
        # 6-atom measures supported in [-1, 1]: the big-radial values must sit
        # within 1e-5 of the exact tropical ends, tiny radials of the mean
        rng = random.Random(54)
        d = direction_1d()
        for _ in range(12):
            atoms = {}
            for _ in range(6):
                atoms[(rat(rng.randint(-16, 16), 16),)] = rat(rng.randint(1, 8), 64)
            mu = Measure(1, atoms).normalized()
            p = _Projected(project(mu, d.t))
            for r, exact in ((1e6, float(p.max)), (-1e6, float(p.min)),
                             (1e-8, float(p.mean)), (-1e-8, float(p.mean))):
                assert abs(lev(mu, SpectrumPoint(d, r)) - exact) < 1e-5

    def test_reduction_to_projection(self, orthant2):
        rng = random.Random(55)
        d = orthant2.dual_directions(4, seed=9)[3]
        mu = Measure(
            2, {(0, 1): "1/4", (1, 0): "1/4", (1, 1): "1/4", (0, 0): "1/4"}
        )
        one_d = project(mu, d.t)
        t1 = direction_1d()
        for r in (-math.inf, -1.5, 0.0, 2.25, math.inf):
            assert lev(mu, SpectrumPoint(d, r)) == lev(one_d, SpectrumPoint(t1, r))


class TestProjected:
    """The identities the spectral sweep and the relative rate share."""

    def test_lev_at_is_log_mgf_over_r_bit_for_bit(self):
        rng = random.Random(57)
        d = direction_1d()
        radials = [s * 10.0**k * f for s in (1, -1) for k in range(-6, 4) for f in (1.0, 0.37)]
        for _ in range(20):
            p = _Projected(project(random_measure_1d(rng, max_atoms=5).normalized(), d.t))
            for r in radials:
                # the stabilised expression lev_at used before log_mgf existed
                a = r * p.z
                m = a.max()
                direct = float((m + math.log(float(np.dot(p.w, np.exp(a - m))))) / r)
                assert p.lev_at(r) == p.log_mgf(r) / r == direct

    def test_golden_min_of_negation_is_golden_max(self):
        def golden_max(f, lo, hi, tol):
            # the maximiser relative_rate_rhs used before it called _golden_min:
            # golden-section minimisation of -f, with the minimum negated back
            invphi = (math.sqrt(5) - 1) / 2
            a, b = lo, hi
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            fc, fd = -f(c), -f(d)
            while (b - a) > tol:
                if fc <= fd:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = -f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = -f(d)
            theta, val = (c, fc) if fc <= fd else (d, fd)
            return theta, -val

        def f(x):
            return math.log1p(x) - 0.8 * x * x + 0.25 * x

        for lo, hi, tol in ((0.0, 1.0, 1e-12), (0.05, 0.3, 1e-9), (0.2, 1.4, 1e-6)):
            theta, neg = _golden_min(lambda x: -f(x), lo, hi, tol)
            assert (theta, -neg) == golden_max(f, lo, hi, tol)


class TestCompareOnRay:
    def test_constant_gap(self):
        rc = compare_on_ray(delta((0,)), delta((1,)), direction_1d())
        assert rc.verdict == STRICT_ON_RAY
        assert rc.min_margin == pytest.approx(1.0, abs=1e-12)

    def test_identical_measures_tie(self):
        b = m1({0: "1/2", 1: "1/2"})
        rc = compare_on_ray(b, b, direction_1d())
        assert rc.verdict == TIE_ON_RAY
        assert rc.min_margin == 0.0

    def test_tropical_violation(self):
        b = m1({0: "1/2", 1: "1/2"})
        rc = compare_on_ray(b, delta(("1/2",)), direction_1d())
        assert rc.verdict == VIOLATED_ON_RAY
        assert rc.argmin_radial == math.inf
        assert rc.min_margin == pytest.approx(-0.5, abs=1e-12)

    def test_sample_rows_cover_seams(self):
        rc = compare_on_ray(delta((0,)), delta((1,)), direction_1d())
        radials = [row[1] for row in rc.samples]
        assert radials[0] == -math.inf and radials[-1] == math.inf
        assert any(r == 0.0 for r in radials)


class TestSpectralVerdict:
    def test_strict_deltas(self, halfline):
        rep = spectral_verdict(delta((0,)), delta((1,)), halfline)
        assert rep.verdict == STRICT
        assert not rep.sampled_only

    def test_violated_at_arctic(self, halfline):
        rep = spectral_verdict(m1({0: "1/4", 1: "3/4"}), m1({0: "1/2", 1: "1/2"}), halfline)
        assert rep.verdict == VIOLATED
        assert rep.witnesses[0].radial == 0.0  # mean 3/4 > 1/2, exact arctic witness

    def test_curated_pair_strict_with_dense_sweep_oracle(self, halfline, curated_pair):
        X, Y = curated_pair
        rep = spectral_verdict(X, Y, halfline)
        assert rep.verdict == STRICT

        # independent oracle: 100000-point dense sweep of the margin curve
        px = _Projected(project(X, (rat(1),)))
        py = _Projected(project(Y, (rat(1),)))
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 100002)[1:-1]
        rs = np.tan(thetas)
        margins = py.lev_curve(rs) - px.lev_curve(rs)
        assert margins.min() > 0
        assert float(py.min - px.min) == pytest.approx(0.1)
        assert float(py.mean - px.mean) == pytest.approx(0.07)
        assert float(py.max - px.max) == pytest.approx(0.2)

    def test_equal_measures_non_strict_only(self, halfline):
        b = m1({0: "1/2", 1: "1/2"})
        rep = spectral_verdict(b, b, halfline)
        assert rep.verdict == NON_STRICT_ONLY

    def test_orthant_flags_sampling(self, orthant2):
        X = Measure(2, {(0, 0): 1})
        Y = Measure(2, {(1, 1): 1})
        rep = spectral_verdict(X, Y, orthant2, SpectrumOptions(n_samples=8))
        assert rep.verdict == STRICT
        assert rep.sampled_only


class TestForwardNecessity:
    def test_dominated_pairs_never_violated(self, halfline):
        # pairs confirmed dominated at some n <= 4 by the exact convolution
        # oracle must never produce a Violated spectral verdict
        rng = random.Random(56)
        confirmed = 0
        attempts = 0
        while confirmed < 25 and attempts < 400:
            attempts += 1
            X = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            if rng.random() < 0.5:
                step = (rat(rng.randint(0, 3), rng.randint(1, 4)),)
                Y = shift(X, step)
            else:
                Y = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            if not any(
                leq_st_1d(convolve_power(X, n), convolve_power(Y, n)).dominated
                for n in range(1, 5)
            ):
                continue
            confirmed += 1
            rep = spectral_verdict(X, Y, halfline)
            assert rep.verdict != VIOLATED
        assert confirmed == 25
