"""Rate function, relative decay rates, and the empirical Cramér check."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from walkorder import (
    Cone,
    DimensionMismatch,
    Measure,
    convolve_power,
    cramer_empirical,
    delta,
    log_mgf,
    mix,
    rate_function,
    relative_rate_lhs,
    relative_rate_rhs,
)
import walkorder.ldp as ldp_mod
import walkorder.spectrum as spectrum_mod
from walkorder.ldp import (
    EXACT_LIMIT,
    GRID_REFINED,
    MAX_ITER,
    RateOptions,
    _conic_combination,
    relative_rate_curve,
)
from walkorder.measure import project, shift
from walkorder.spectrum import _Projected
from walkorder.stochorder import upset_mass
from walkorder.rational import log_rat, rat

from conftest import (
    CONES_1D,
    bernoulli,
    cube_rays,
    log_mgf_reference,
    random_measure_1d,
    random_measure_2d,
    random_measure_3d,
    rate_multid_reference,
    relative_rate_lhs_1d_reference,
    relative_rate_lhs_scan_reference,
    relative_rate_rhs_reference,
)

LN2 = math.log(2)
LN32 = math.log(3) - math.log(2)
BERNOULLI_RATE_AT_34 = LN2 + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)  # 0.130812...


def m1(mapping) -> Measure:
    return Measure(1, {(k,): v for k, v in mapping.items()})


def binomial_tail(n: int, p, k_min: int):
    """Exact P(Binomial(n, p) >= k_min) as a rational."""
    q = 1 - p
    total = rat(0)
    for k in range(max(k_min, 0), n + 1):
        total += rat(comb(n, k)) * p**k * q ** (n - k)
    return total


class TestLogMgf:
    def test_delta(self):
        assert log_mgf(delta((2,)), (3,)) == pytest.approx(6.0, abs=1e-12)

    def test_normalization(self):
        assert log_mgf(bernoulli("1/2"), (0,)) == 0.0

    def test_direct_value(self):
        assert log_mgf(bernoulli("1/2"), (1,)) == pytest.approx(
            math.log((1 + math.e) / 2), abs=1e-14
        )


class TestRateFunction:
    def test_at_mean_is_zero(self, halfline):
        res = rate_function(bernoulli("1/2"), ("1/2",), halfline)
        assert res.value == 0.0 and res.certified == EXACT_LIMIT

    def test_above_max_is_infinite(self, halfline):
        res = rate_function(bernoulli("1/2"), ("6/5",), halfline)
        assert res.value == math.inf and res.certified == EXACT_LIMIT

    def test_closed_form_legendre_value(self, halfline):
        res = rate_function(bernoulli("1/2"), ("3/4",), halfline)
        assert res.value == pytest.approx(BERNOULLI_RATE_AT_34, abs=1e-9)
        assert res.certified == GRID_REFINED

    def test_at_support_max(self, halfline):
        res = rate_function(bernoulli("1/2"), (1,), halfline)
        assert res.value == pytest.approx(LN2, abs=1e-14)
        assert res.certified == EXACT_LIMIT

    def test_bisection_agrees_with_dense_grid(self, halfline):
        # cross-check: maximize t*c - log_mgf on a 100000-point grid
        rng = random.Random(71)
        for _ in range(6):
            mu = random_measure_1d(rng, max_atoms=4, span=4).normalized()
            zs = sorted(float(x[0]) for x in mu.atoms)
            mean = sum(float(x[0]) * float(w) for x, w in mu.atoms.items())
            lo, hi = mean, max(zs)
            if hi - lo < 1e-6:
                continue
            c = rat(int((lo + 0.6 * (hi - lo)) * 1024), 1024)
            if float(c) <= lo or float(c) >= hi:
                continue
            res = rate_function(mu, (c,), halfline)
            ts = np.linspace(0.0, 200.0, 100000)
            z = np.array(zs)
            wts = np.array([float(mu.atoms[(x,)]) for x in sorted(r[0] for r in mu.atoms)])
            a = ts[:, None] * z[None, :]
            m = a.max(axis=1)
            lm = m + np.log((wts[None, :] * np.exp(a - m[:, None])).sum(axis=1))
            grid_best = (ts * float(c) - lm).max()
            assert res.value == pytest.approx(grid_best, abs=1e-7)

    def test_nonnegative_zero_at_mean_monotone(self, halfline):
        rng = random.Random(72)
        for _ in range(8):
            mu = random_measure_1d(rng, max_atoms=4, span=4).normalized()
            mean = sum((x[0] * w for x, w in mu.atoms.items()), rat(0))
            assert rate_function(mu, (mean,), halfline).value == 0.0
            cs = sorted(
                rat(rng.randint(-40, 40), 8) for _ in range(4)
            )
            vals = [rate_function(mu, (c,), halfline).value for c in cs]
            assert all(v >= 0 for v in vals)
            above = [(c, v) for c, v in zip(cs, vals) if c >= mean]
            assert all(b >= a - 1e-9 for (_, a), (_, b) in zip(above, above[1:]))

    def test_convexity_on_segments(self, halfline):
        rng = random.Random(73)
        mu = bernoulli("1/2")
        for _ in range(10):
            c1 = rat(rng.randint(0, 16), 16)
            c2 = rat(rng.randint(0, 16), 16)
            mid = (c1 + c2) / 2
            v1 = rate_function(mu, (c1,), halfline).value
            v2 = rate_function(mu, (c2,), halfline).value
            vm = rate_function(mu, (mid,), halfline).value
            assert vm <= (v1 + v2) / 2 + 1e-9

    def test_planar_product_measure_separates(self, orthant2):
        # independent coordinates: the rate at (c, c) is twice the 1-D rate
        b2 = Measure(
            2,
            {
                (0, 0): "1/4",
                (0, 1): "1/4",
                (1, 0): "1/4",
                (1, 1): "1/4",
            },
        )
        res = rate_function(b2, ("3/4", "3/4"), orthant2)
        assert res.value == pytest.approx(2 * BERNOULLI_RATE_AT_34, abs=1e-6)
        assert res.certified == GRID_REFINED

    def test_planar_above_support_is_infinite(self, orthant2):
        b2 = Measure(2, {(0, 0): "1/2", (1, 1): "1/2"})
        res = rate_function(b2, (2, 0), orthant2)
        assert res.value == math.inf and res.certified == EXACT_LIMIT

    def test_threshold_rounding_to_support_max_returns(self):
        # float(1 - 10**-20) == 1.0 == float(z_max): the tilt bracket must stay
        # finite.  Run in a subprocess so a hang fails the test instead of
        # stalling the suite.
        code = (
            "from walkorder import Cone, Measure, rate_function\n"
            "from walkorder.rational import rat\n"
            "b = Measure(1, {(0,): '1/2', (1,): '1/2'})\n"
            "res = rate_function(b, (1 - rat(1, 10**20),), Cone.halfline())\n"
            "print(repr(res.value))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
            )
        except subprocess.TimeoutExpired:
            pytest.fail("rate_function did not return within 30 s")
        assert proc.returncode == 0, proc.stderr
        value = float(proc.stdout)
        assert math.isfinite(value) and 0.0 <= value <= LN2
        assert value == pytest.approx(LN2, abs=1e-9)


class TestRelativeRateRhs:
    def test_equal_measures(self, halfline):
        assert relative_rate_rhs(bernoulli("1/2"), bernoulli("1/2"), halfline).value == 0.0

    def test_bernoulli_pair_monotone_limit(self, halfline):
        res = relative_rate_rhs(bernoulli("3/4"), bernoulli("1/2"), halfline)
        assert res.value == pytest.approx(LN32, abs=1e-6)

    def test_tropical_divergence(self, halfline):
        res = relative_rate_rhs(delta((2,)), bernoulli("1/2"), halfline)
        assert res.value == math.inf and res.certified == EXACT_LIMIT

    def test_zero_for_dominated_pairs(self, halfline):
        # dominated pairs decay no faster: the supremum sits at t = 0
        pairs = [
            (bernoulli("1/2"), bernoulli("3/4")),
            (delta((0,)), delta((1,))),
            (m1({0: "1/2", 1: "1/2"}), m1({1: "1/2", 2: "1/2"})),
        ]
        for X, Y in pairs:
            assert relative_rate_rhs(X, Y, halfline).value == 0.0


class TestRelativeRateRhsEquivalence:
    def test_matches_the_numpy_scalar_loop(self, halfline, orthant2):
        rng = random.Random(71)
        finite = 0
        for i in range(18):
            cone, draw = (orthant2, random_measure_2d) if i % 2 else (halfline, random_measure_1d)
            X = draw(rng, max_atoms=4).normalized()
            kind = i % 3
            if kind == 0:
                Y = draw(rng, max_atoms=4).normalized()
            elif kind == 1:
                Y = shift(X, (rat(rng.randint(0, 2), 3),) * X.dim)
            else:
                # the same top on every ray with less weight there: a finite positive rate
                low = tuple(min(c) - 1 for c in zip(*X.atoms))
                Y = mix([(rat(1, 2), X), (rat(1, 2), delta(low))])
            opts = RateOptions(grid_points=rng.choice([33, 129]), n_samples=6)
            res = relative_rate_rhs(X, Y, cone, opts)
            value, best = relative_rate_rhs_reference(X, Y, cone, opts)
            assert type(res.value) is float and res.value.hex() == value.hex()
            assert res.maximizer == best
            if best is not None:
                assert type(res.maximizer[1]) is float
            finite += math.isfinite(value) and value > 0
        assert finite >= 3


def count_refinements(monkeypatch) -> dict:
    """Count the brackets each refinement route of ``spectrum`` searches."""
    calls = {"scalar": 0, "lockstep": 0}
    scalar, many = spectrum_mod._golden_min, spectrum_mod._golden_min_many

    def counted_scalar(f, lo, hi, *rest):
        calls["scalar"] += 1
        return scalar(f, lo, hi, *rest)

    def counted_many(f, lo, hi, *rest):
        calls["lockstep"] += len(lo)
        return many(f, lo, hi, *rest)

    monkeypatch.setattr(spectrum_mod, "_golden_min", counted_scalar)
    monkeypatch.setattr(spectrum_mod, "_golden_min_many", counted_many)
    return calls


class TestRelativeRateRhsManyRays:
    """All rays' brackets refined by one call, against the ray-by-ray
    reference: the same value and maximizer bit for bit, on both routes."""

    CONES = (
        lambda: Cone.orthant(2),
        lambda: Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
        lambda: Cone.orthant(3),
        lambda: Cone.from_generators(3, rays=cube_rays(3)),
    )

    @staticmethod
    def assert_matches(X, Y, cone, opts):
        res = relative_rate_rhs(X, Y, cone, opts)
        value, best = relative_rate_rhs_reference(X, Y, cone, opts)
        assert type(res.value) is float and res.value.hex() == value.hex()
        assert res.maximizer == best
        if best is not None:
            assert res.maximizer[1].hex() == best[1].hex()
        return res

    def test_two_and_three_dimensional_pairs(self, monkeypatch):
        calls = count_refinements(monkeypatch)
        rng = random.Random(33)
        seen = set()
        for i in range(16):
            cone = self.CONES[i % 4]()
            draw = random_measure_2d if cone.dim == 2 else random_measure_3d
            X = draw(rng, max_atoms=5).normalized()
            kind = (i // 4) % 3
            if kind == 0:
                Y = draw(rng, max_atoms=5).normalized()
            elif kind == 1:
                # the same top on every ray with less weight there: each
                # ray's r -> inf limit is log 2, and the grid rises to it
                low = tuple(min(c) - 1 for c in zip(*X.atoms))
                Y = mix([(rat(1, 2), X), (rat(1, 2), delta(low))])
            else:
                Y = shift(X, tuple(rat(rng.randint(0, 2), 3) for _ in range(cone.dim)))
            opts = RateOptions(grid_points=rng.choice([65, 129]), n_samples=rng.randint(8, 16),
                               seed=rng.randint(0, 9))
            for lockstep_min in (1, 10**9):
                monkeypatch.setattr(spectrum_mod, "LOCKSTEP_MIN", lockstep_min)
                res = self.assert_matches(X, Y, cone, opts)
            if kind == 1:
                assert res.value == pytest.approx(LN2, abs=1e-12)
                seen.add("tied limit")
            elif math.isinf(res.value):
                seen.add("inf")
            elif res.value > 0:
                seen.add("interior")
        assert seen == {"inf", "tied limit", "interior"}
        assert calls["scalar"] > 0 and calls["lockstep"] > 0

    def test_infinite_exit_on_a_later_ray(self, monkeypatch):
        # X's top exceeds Y's on the ray (0, 1) only, which comes second
        calls = count_refinements(monkeypatch)
        X = Measure(2, {(0, 3): "1/2", (0, 0): "1/2"})
        Y = Measure(2, {(1, 2): "1/2", (0, 0): "1/2"})
        cone = Cone.orthant(2)
        first, second = cone.dual_directions(0)[:2]
        assert _Projected.of(X, first.t).max <= _Projected.of(Y, first.t).max
        assert _Projected.of(X, second.t).max > _Projected.of(Y, second.t).max
        res = self.assert_matches(X, Y, cone, RateOptions(n_samples=12))
        assert res.value == math.inf and res.maximizer == (second, math.inf)
        assert res.certified == EXACT_LIMIT
        assert calls == {"scalar": 0, "lockstep": 0}  # no grid was swept

    def test_one_dimensional_lattice_pairs_stay_scalar(self, monkeypatch, halfline):
        # distinct two-atom steps on {0, 1} with weights over 11, as the 1-D
        # rel-rate queries of the benchmark draw them: one ray, 6 to 9
        # brackets, where equal steps give a flat profile of 513 brackets
        calls = count_refinements(monkeypatch)
        for a, b in itertools.permutations(range(1, 11), 2):
            X, Y = m1({0: rat(a, 11), 1: rat(11 - a, 11)}), m1({0: rat(b, 11), 1: rat(11 - b, 11)})
            self.assert_matches(X, Y, halfline, None)
        assert calls["scalar"] > 0 and calls["lockstep"] == 0


class TestConicCombination:
    """Each row of ``lam`` against the sum of its conic combination."""

    def test_bitwise_equal_to_the_array_sum(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            n_rays, dim = int(rng.integers(1, 49)), int(rng.integers(1, 4))
            rays = [rng.normal(size=dim) * 10.0 ** rng.integers(-8, 8) for _ in range(n_rays)]
            lam = rng.exponential(size=n_rays) * 10.0 ** rng.integers(-12, 4)
            lam[rng.random(n_rays) < 0.3] = 0.0
            lam[rng.random(n_rays) < 0.2] = -0.0
            for r in rays:
                r[rng.random(dim) < 0.2] = -0.0
            lam = np.maximum(lam + 0.0 * lam, 0.0) if rng.random() < 0.5 else lam
            rows = np.array([lam, lam[::-1], 0.5 * lam])
            got = _conic_combination(rows, np.array(rays))
            assert got.shape == (3, dim) and got.dtype == np.float64
            for row, value in zip(rows, got):
                expected = sum(l * r for l, r in zip(row, rays))
                assert value.tobytes() == expected.tobytes()

    def test_signed_zeros(self):
        rows = np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]])
        rays = [np.array([1.0, -2.0]), np.array([-0.0, 3.0]), np.array([-1.0, -0.0])]
        got = _conic_combination(rows, np.array(rays))
        for row, value in zip(rows, got):
            expected = sum(l * r for l, r in zip(row, rays))
            assert value.tobytes() == expected.tobytes()
        # int 0 + -0.0 is 0.0 in both
        assert got.tolist() == [[0.0, 0.0], [0.0, 0.0]] and not np.signbit(got).any()


class TestRateMultidReference:
    """The ascent of ``_rate_multid``, all starts in lockstep, against
    ``rate_multid_reference``, one start after another and one call per ray
    and per coordinate: the same value, maximizer direction and radial, bit
    for bit."""

    CONES = (
        lambda: Cone.orthant(2),
        lambda: Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
        lambda: Cone.from_generators(3, rays=cube_rays(3)),
    )

    @staticmethod
    def assert_same(res, ref, case=None):
        assert type(res.value) is float and res.value.hex() == ref.value.hex(), (case, res, ref)
        assert res.certified == ref.certified
        if ref.maximizer is None:
            assert res.maximizer is None
        else:
            assert res.maximizer[0] == ref.maximizer[0]
            assert res.maximizer[1].hex() == ref.maximizer[1].hex()

    def test_seeded_laws(self):
        rng = random.Random(32)
        seen = set()
        for k in range(24):
            cone = self.CONES[k % 3]()
            n_atoms = (1, 2, 3, 80)[k // 3] if k < 12 else rng.randint(4, 80)
            atoms = {}
            while len(atoms) < n_atoms:
                x = tuple(rat(rng.randint(-40, 40), rng.choice((1, 2, 7))) for _ in range(cone.dim))
                atoms[x] = rng.randint(1, 9)
            mu = Measure(cone.dim, atoms).normalized()
            mean = [sum(w * x[i] for x, w in mu.atoms.items()) for i in range(cone.dim)]
            top = rng.choice(list(mu.atoms))
            s = rat(rng.choice((1, 2, 3, 4, 5)), 4)
            c = tuple(m + s * (x - m) for m, x in zip(mean, top))
            opts = RateOptions(n_samples=rng.choice((2, 5, 16, 32, 48)), seed=rng.randint(0, 3))
            res = rate_function(mu, c, cone, opts)
            ref = rate_multid_reference(mu, c, cone, opts)
            self.assert_same(res, ref, k)
            seen.add("inf" if math.isinf(ref.value) else "positive" if ref.value > 0 else "zero")
        assert seen == {"inf", "positive", "zero"}

    @staticmethod
    def lattice_law(seed: int) -> tuple:
        """A law of 20 to 60 lattice atoms, a threshold between its mean and
        one atom, a cone and options, drawn from ``seed``."""
        rng = random.Random(seed)
        cone = (
            Cone.orthant(2),
            Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
            Cone.from_generators(3, rays=cube_rays(3)),
            Cone.orthant(3),
        )[seed % 4]
        n_atoms, box = rng.randint(20, 60), 20 if cone.dim == 2 else 8
        atoms = {}
        while len(atoms) < n_atoms:
            atoms[tuple(rng.randint(0, box) for _ in range(cone.dim))] = rng.randint(1, 9)
        mu = Measure(cone.dim, atoms).normalized()
        mean = [sum(w * x[i] for x, w in mu.atoms.items()) for i in range(cone.dim)]
        top = rng.choice(list(mu.atoms))
        s = rat(rng.choice((1, 2, 3)), 4)
        c = tuple(m + s * (x - m) for m, x in zip(mean, top))
        return mu, c, cone, RateOptions(n_samples=rng.randint(4, 16), seed=rng.randint(0, 9))

    def test_starts_stop_at_different_steps(self):
        # seed 2: 18 starts take 88 to 200 steps, 8 of them MAX_ITER;
        # seeds 21 and 37: 18 to 135 and 16 to 106 steps
        reached_max = 0
        for seed in (2, 21, 37):
            mu, c, cone, opts = self.lattice_law(seed)
            taken = []
            ref = rate_multid_reference(mu, c, cone, opts, taken)
            self.assert_same(rate_function(mu, c, cone, opts), ref, seed)
            assert ref.value > 0 and len(set(taken)) > 1
            reached_max += taken.count(MAX_ITER)
        assert reached_max > 0

    def test_a_start_that_ends_at_zero_scores_zero(self):
        # every start of these two ends at t = 0, where the float objective is
        # the residue -log(sum ws) > 0; it must not win, or t = 0 would be
        # the maximizer and the nearest direction would read 0 / 0
        mu, c, cone, _ = self.lattice_law(32)
        ten = Measure(2, {(i, i % 3): rat(1, 10) for i in range(10)})
        for law, point, opts in ((mu, c, RateOptions(n_samples=5, seed=7)), (ten, (0, 0), RateOptions())):
            s, coords, dw, weights = law._int_view()
            zs = np.array([[v / s for v in x] for x in coords])
            ws = np.array([w / dw for w in weights])
            residue, _ = ldp_mod._objectives(np.zeros((1, 2)), zs, ws, np.zeros(2))
            assert residue[0] > 0.0
            res = rate_function(law, point, Cone.orthant(2), opts)
            assert (res.value, res.maximizer, res.certified) == (0.0, None, GRID_REFINED)

    def test_more_starts_than_one_chunk(self, monkeypatch):
        chunks = []
        ascend = ldp_mod._ascend

        def counted(lam, *rest):
            chunks.append(len(lam))
            return ascend(lam, *rest)

        monkeypatch.setattr(ldp_mod, "_ascend", counted)
        mu, c, cone, opts = self.lattice_law(2)
        ref = rate_multid_reference(mu, c, cone, opts)
        default = ldp_mod.BATCH_ELEMENTS
        for budget in (1, 200, default):
            monkeypatch.setattr(ldp_mod, "BATCH_ELEMENTS", budget)
            del chunks[:]
            self.assert_same(rate_function(mu, c, cone, opts), ref, budget)
            assert sum(chunks) == len(cone.dual_directions(opts.n_samples, opts.seed)) + 1
            assert (len(chunks) > 1) == (budget < default)


class TestRelativeRateLhs:
    def test_equal_measures_zero(self, halfline):
        assert relative_rate_lhs(bernoulli("1/2"), bernoulli("1/2"), halfline, 10, "1/4") == 0.0

    def test_bernoulli_pair_exact_at_n16(self, halfline):
        val = relative_rate_lhs(bernoulli("3/4"), bernoulli("1/2"), halfline, 16, "1/64")
        assert val >= LN32 - 1e-9
        # independent oracle: best threshold is c = 1 with ratio (3/2)^16
        assert val == pytest.approx(LN32, abs=1e-12)

    def test_delta_vs_bernoulli(self, halfline):
        # numerator concentrated at 0; denominator tail at c <= eps is full
        val = relative_rate_lhs(delta((0,)), bernoulli("1/2"), halfline, 8, "1/16")
        assert val == 0.0

    def test_resonant_epsilon_regression(self, halfline):
        # at n = 64 the shift eps = 1/64 reaches one lattice step 1/n of the
        # scaled walk, so every closed denominator tail takes in one more atom;
        # the exact value is ln(3/2) - ln(65)/64, reproduced from first principles
        val = relative_rate_lhs(bernoulli("3/4"), bernoulli("1/2"), halfline, 64, "1/64")
        num = binomial_tail(64, rat(3, 4), 64)
        den = binomial_tail(64, rat(1, 2), 63)
        expected = (log_rat(num) - log_rat(den)) / 64
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(LN32 - math.log(65) / 64, abs=1e-12)

    def test_full_tail_oracle_n8(self, halfline):
        # exhaustive independent recomputation of the supremum at n = 8
        X, Y, n, eps = bernoulli("3/4"), bernoulli("1/2"), 8, rat(1, 64)
        best = -math.inf
        for c_num in range(0, 2 * n + 2):
            c = rat(c_num, n)
            num = binomial_tail(n, rat(3, 4), math.ceil(c * n))
            k_min = math.ceil((c - eps) * n)
            den = binomial_tail(n, rat(1, 2), k_min)
            if num == 0:
                continue
            if den == 0:
                best = math.inf
                break
            best = max(best, (log_rat(num) - log_rat(den)) / n)
        val = relative_rate_lhs(X, Y, halfline, n, eps)
        assert val == pytest.approx(best, abs=1e-12)


class TestRelativeRateLhsChecks:
    def test_measure_dimensions_checked(self, halfline, orthant2):
        # the eps shift of the 2-D walk used to report "point has 1 coordinates, expected 2"
        plane = Measure(2, {(0, 0): 1})
        with pytest.raises(DimensionMismatch, match="^measure dimensions differ: 1 vs 2$"):
            relative_rate_lhs(delta((0,)), plane, halfline, 4, "1/4")
        with pytest.raises(DimensionMismatch, match="^measure dimensions differ: 2 vs 1$"):
            relative_rate_lhs(plane, delta((0,)), orthant2, 4, "1/4")

    def test_checks_in_the_order_of_the_rhs(self, halfline):
        plane, half = Measure(2, {(0, 0): 1}), m1({0: "1/2"})
        for f in (
            lambda X, Y, c: relative_rate_lhs(X, Y, c, 4, "1/4"),
            relative_rate_rhs,
            relative_rate_curve,
        ):
            with pytest.raises(ValueError, match="^X must be normalized"):
                f(half, plane, halfline)
            with pytest.raises(ValueError, match="^Y must be normalized"):
                f(plane, half, halfline)
            with pytest.raises(DimensionMismatch, match="^cone dimension 1 does not match 2$"):
                f(plane, delta((0,)), halfline)


def naive_relative_lhs_1d(X: Measure, Y: Measure, n: int, eps) -> float:
    """relative_rate_lhs on the half-line as the O(N^2) scan it replaced: one
    pass over every atom for each threshold."""
    inv_n = rat(1, n)
    num = {x[0] * inv_n: w for x, w in convolve_power(X, n).atoms.items()}
    den = {y[0] * inv_n + eps: w for y, w in convolve_power(Y, n).atoms.items()}
    best = -math.inf
    for c in sorted(set(num) | set(den)):
        a = sum((w for x, w in num.items() if x >= c), rat(0))
        b = sum((w for y, w in den.items() if y >= c), rat(0))
        if a == 0:
            continue
        if b == 0:
            return math.inf
        best = max(best, (log_rat(a) - log_rat(b)) / n)
    return best


class TestRelativeRateLhsTable:
    """The tail-index table against the naive scan, float for float."""

    def test_random_pairs_match_naive_scan(self, halfline):
        rng = random.Random(72)
        checked = set()
        for _ in range(30):
            X = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            Y = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            n = rng.choice([1, 2, 5, 8, 16])
            eps = rng.choice([rat(1, 64), rat(1, 3), rat(2)])
            val = relative_rate_lhs(X, Y, halfline, n, eps)
            assert val == naive_relative_lhs_1d(X, Y, n, eps), (X, Y, n, eps)
            checked.add(math.isinf(val))
        assert checked == {False, True}  # finite and infinite suprema both seen

    @pytest.mark.parametrize("n", [1, 7, 32, 64, 100])
    def test_bernoulli_pair_matches_naive_scan(self, halfline, n):
        # at n = 64, n*eps = 1 puts Y^n + lift on X^n's lattice: thresholds merge
        X, Y = bernoulli("3/4"), bernoulli("1/2")
        val = relative_rate_lhs(X, Y, halfline, n, "1/64")
        assert val == naive_relative_lhs_1d(X, Y, n, rat(1, 64))

    def test_large_n_returns_fast(self):
        # an O(N^2) scan of the thresholds takes about 11 s at n = 1024 on a
        # 2-core x86 host, the tail index about 0.4 s; a subprocess turns a
        # return to the scan into a failure instead of a slow suite
        code = (
            "from walkorder import Cone, Measure, relative_rate_lhs\n"
            "X = Measure(1, {(0,): '1/4', (1,): '3/4'})\n"
            "Y = Measure(1, {(0,): '1/2', (1,): '1/2'})\n"
            "print(repr(relative_rate_lhs(X, Y, Cone.halfline(), 1024, '1/64')))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=5
            )
        except subprocess.TimeoutExpired:
            pytest.fail("relative_rate_lhs at n = 1024 did not return within 5 s")
        assert proc.returncode == 0, proc.stderr
        assert 0.0 < float(proc.stdout) < LN32


def mirrored(mu: Measure) -> Measure:
    return Measure(1, {(-x[0],): w for x, w in mu.atoms.items()})


def principal_upset_lhs(X: Measure, Y: Measure, cone: Cone, n: int, eps) -> float:
    """relative_rate_lhs from first principles in any dimension: every
    principal closed upset of the cone order, generated by an atom of either
    walk, and the whole space, with masses from ``upset_mass`` on the scaled
    and shifted walks."""
    inv_n, e = rat(1, n), rat(eps)
    num = Measure(
        X.dim, {tuple(c * inv_n for c in x): w for x, w in convolve_power(X, n).atoms.items()}
    )
    den = Measure(
        Y.dim,
        {
            tuple(c * inv_n + e * u for c, u in zip(y, cone.unit)): w
            for y, w in convolve_power(Y, n).atoms.items()
        },
    )
    pairs = [(upset_mass(num, cone, [g]), upset_mass(den, cone, [g]))
             for g in sorted(set(num.atoms) | set(den.atoms))]
    best = -math.inf
    for a, b in pairs + [(num.mass(), den.mass())]:
        if a == 0:
            continue
        if b == 0:
            return math.inf
        best = max(best, (log_rat(a) - log_rat(b)) / n)
    return best


class TestRelativeRateLhsDownward:
    """On (-inf, 0] the closed upsets are lower tails: the table equals the
    half-line table of the mirrored walks, with unit -unit, float for float."""

    DOWN = (Cone.from_generators(1, rays=[(-1,)]), Cone(1, [(-2,)], [(-3,)], (-5,)))

    @staticmethod
    def halfline_twin(cone: Cone) -> Cone:
        return Cone.halfline(tuple(-u for u in cone.unit))

    def test_mirrored_bernoulli_pair(self):
        X, Y = mirrored(bernoulli("3/4")), mirrored(bernoulli("1/2"))
        unit1, unit5 = self.DOWN
        assert relative_rate_lhs(X, Y, unit1, 8, "1/64") == 0.4054651081081645
        assert relative_rate_lhs(X, Y, unit1, 64, "1/64") == 0.34024030701604513
        assert relative_rate_lhs(X, Y, unit5, 64, "1/64") == 0.17317909226029543
        for cone in self.DOWN:
            twin = self.halfline_twin(cone)
            for n in (1, 8, 64):
                got = relative_rate_lhs(X, Y, cone, n, "1/64")
                assert got == relative_rate_lhs(mirrored(X), mirrored(Y), twin, n, "1/64")
                assert got == principal_upset_lhs(X, Y, cone, n, rat(1, 64))
                assert got == principal_upset_lhs(mirrored(X), mirrored(Y), twin, n, rat(1, 64))

    def test_random_pairs_match_the_mirror_and_the_upset_oracle(self):
        rng = random.Random(74)
        seen = set()
        for i in range(40):
            cone = self.DOWN[i % 2]
            X = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            Y = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            n = rng.choice([1, 2, 5, 8])
            eps = rng.choice([rat(1, 64), rat(1, 3), rat(2)])
            got = relative_rate_lhs(X, Y, cone, n, eps)
            twin = self.halfline_twin(cone)
            assert got == relative_rate_lhs(mirrored(X), mirrored(Y), twin, n, eps), (X, Y, n, eps)
            assert got == principal_upset_lhs(X, Y, cone, n, eps), (X, Y, n, eps)
            seen.add(math.isinf(got))
        assert seen == {False, True}


class TestRelativeRateLhsPrincipalUpsets:
    """In dimension 2 and up the table equals the first-principles upset
    scan, float for float."""

    X = Measure(2, {(0, 0): "1/3", (1, 0): "1/3", (0, 1): "1/3"})
    Y = Measure(2, {(0, 0): "1/4", (1, 1): "1/2", (2, 0): "1/4"})

    @pytest.mark.parametrize("n", [8, 16])
    def test_planar_pair(self, orthant2, n):
        # X reweighted toward (1, 0): a finite positive supremum, log(3/2)
        heavy = Measure(2, {(0, 0): "1/6", (1, 0): "1/2", (0, 1): "1/3"})
        values = []
        for X, Y in ((self.X, self.Y), (self.Y, self.X), (heavy, self.X)):
            got = relative_rate_lhs(X, Y, orthant2, n, "1/64")
            assert got == principal_upset_lhs(X, Y, orthant2, n, "1/64")
            values.append(got)
        assert values == [0.0, math.inf, pytest.approx(LN32, abs=1e-15)]

    def test_random_pairs(self, orthant2):
        rng = random.Random(75)
        cones = (
            orthant2,
            Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
            Cone.from_generators(3, rays=[(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
        )
        seen = set()
        for i in range(24):
            cone = cones[i % 3]
            if cone.dim == 2:
                X = random_measure_2d(rng, max_atoms=3).normalized()
                Y = random_measure_2d(rng, max_atoms=3).normalized()
            else:
                X = random_measure_3d(rng, max_atoms=3, max_den=4, span=3)
                Y = random_measure_3d(rng, max_atoms=3, max_den=4, span=3)
            n = rng.choice([1, 2, 3, 4])
            eps = rng.choice([rat(1, 64), rat(1, 3), rat(2)])
            got = relative_rate_lhs(X, Y, cone, n, eps)
            assert got == principal_upset_lhs(X, Y, cone, n, eps), (X, Y, n, eps)
            seen.add("inf" if math.isinf(got) else "pos" if got > 0 else "zero")
        assert seen == {"inf", "pos", "zero"}


class TestRelativeRateCurve:
    @staticmethod
    def reference(X, Y, cone, opts):
        """The curve one point at a time, from the reference log-MGF."""
        rows = []
        for ray_idx, d in enumerate(cone.dual_directions(opts.n_samples, opts.seed)):
            px = _Projected.of(X, d.t)
            py = _Projected.of(Y, d.t)
            for k in range(1, 257):
                theta = (math.pi / 2) * k / 257
                r = math.tan(theta)
                g = log_mgf_reference(px, r) - log_mgf_reference(py, r)
                rows.append((ray_idx, theta, r, g))
        return rows

    def test_rows_match_the_per_point_reference(self, halfline, orthant2):
        rng = random.Random(76)
        cases = [(orthant2, random_measure_2d) if i % 2 else (halfline, random_measure_1d) for i in range(8)]
        # 3-D laws: the projections along the sampled rays merge atoms
        # differently, so one curve kernel holds several support sizes
        cases += [(Cone.orthant(3), random_measure_3d)] * 4
        sizes = set()
        for i, (cone, draw) in enumerate(cases):
            X, Y = draw(rng).normalized(), draw(rng).normalized()
            opts = RateOptions(n_samples=3, seed=i, grid_points=33)
            rows = relative_rate_curve(X, Y, cone, opts)
            expected = self.reference(X, Y, cone, opts)
            assert len(rows) == len(expected) == 256 * len(cone.dual_directions(3, i))
            assert [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows] == [
                tuple(v.hex() if isinstance(v, float) else v for v in row) for row in expected
            ]
            if X.dim == 3:
                directions = cone.dual_directions(3, i)
                sizes.add(len({len(_Projected.of(X, d.t).z) for d in directions}))
        assert max(sizes) > 1

    def test_measure_dimensions_checked(self, orthant2):
        X = Measure(2, {(0, 0): "1/2", (1, 1): "1/2"})
        with pytest.raises(DimensionMismatch, match="measure dimensions differ: 2 vs 1"):
            relative_rate_curve(X, bernoulli("1/2"), orthant2)

    def test_cone_dimension_checked(self, halfline):
        X = Measure(2, {(0, 0): "1/2", (1, 1): "1/2"})
        with pytest.raises(DimensionMismatch, match="cone dimension 1 does not match 2"):
            relative_rate_curve(X, X, halfline)


class TestRelativeRateLhsIntKeys:
    """The 1-D table, its thresholds read off the powers' tail indexes,
    against ``relative_rate_lhs_1d_reference``, which decodes every atom."""

    def test_random_pairs_equal_decoded_reference(self):
        rng = random.Random(76)
        seen = set()
        for i in range(60):
            cone = CONES_1D[i % len(CONES_1D)]
            X = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            Y = random_measure_1d(rng, max_atoms=4, span=6).normalized()
            n = rng.choice([1, 2, 5, 8, 16])
            eps = rng.choice([rat(1, 64), rat(1, 3), rat(5, 7), rat(2)])
            got = relative_rate_lhs(X, Y, cone, n, eps)
            assert got == relative_rate_lhs_1d_reference(X, Y, cone, n, eps), (X, Y, cone, n, eps)
            seen.add((cone.normals[0][0] > 0, math.isinf(got)))
        assert len(seen) == 4  # finite and infinite suprema on both half-lines

    def test_infinite_case_runs_no_query(self, monkeypatch):
        # +inf comes from comparing the two tops before any threshold is
        # queried; every value is the one the threshold scan gave
        calls = []
        counted = ldp_mod.tail_mass
        monkeypatch.setattr(ldp_mod, "tail_mass", lambda *a: calls.append(a) or counted(*a))
        rng = random.Random(600)
        seen = set()
        for i in range(600):
            cone = CONES_1D[i % len(CONES_1D)]
            X = random_measure_1d(rng, max_atoms=5, span=8).normalized()
            Y = random_measure_1d(rng, max_atoms=5, span=8).normalized()
            n = rng.choice([1, 2, 3, 7])
            eps = rng.choice([rat(1, 64), rat(1, 3), rat(5, 7), rat(2)])
            del calls[:]
            got = relative_rate_lhs(X, Y, cone, n, eps)
            assert got == relative_rate_lhs_scan_reference(X, Y, cone, n, eps), (X, Y, cone, n, eps)
            assert (calls == []) == math.isinf(got)
            seen.add((cone.normals[0][0] > 0, math.isinf(got)))
        assert len(seen) == 4  # finite and infinite suprema on both half-lines

    def test_decodes_no_atom(self, monkeypatch):
        X = Measure(1, {(0,): "1/3", ("5/2",): "1/3", (1,): "1/3"})
        Y = Measure(1, {("1/2",): "1/2", (3,): "1/2"})
        expected = [relative_rate_lhs(X, Y, cone, n, "1/16") for cone in CONES_1D for n in (1, 8, 32)]
        cramer = [cramer_empirical(X, (c,), cone, 16) for cone in CONES_1D for c in ("1/2", "5/4", 3)]
        monkeypatch.setattr(Measure, "atoms", property(lambda self: pytest.fail("atoms decoded")))
        assert [relative_rate_lhs(X, Y, cone, n, "1/16") for cone in CONES_1D for n in (1, 8, 32)] == expected
        assert [cramer_empirical(X, (c,), cone, 16) for cone in CONES_1D for c in ("1/2", "5/4", 3)] == cramer
        plane = Measure(2, {(0, "1/2"): "1/2", ("3/2", 1): "1/2"})
        assert cramer_empirical(plane, ("1/2", "1/2"), Cone.orthant(2), 8) < 0


class TestCramer:
    def test_deterministic_walk(self, halfline):
        assert cramer_empirical(delta((1,)), (1,), halfline, 5) == 0.0

    def test_bernoulli_tail_matches_exact_binomial(self, halfline):
        n = 1024
        val = cramer_empirical(bernoulli("1/2"), ("3/4",), halfline, n)
        exact_mass = binomial_tail(n, rat(1, 2), 768)
        assert val == pytest.approx(log_rat(exact_mass) / n, abs=1e-12)
        assert abs(val + BERNOULLI_RATE_AT_34) <= 0.02

    def test_empty_tail(self, halfline):
        assert cramer_empirical(bernoulli("1/2"), ("6/5",), halfline, 16) == -math.inf

    def test_consistency_at_three_thresholds(self, halfline):
        # |(1/n) log P(mean >= c) + rate(c)| <= 0.02 at n = 1024
        for c in ("3/5", "3/4", "9/10"):
            emp = cramer_empirical(bernoulli("1/2"), (c,), halfline, 1024)
            rate = rate_function(bernoulli("1/2"), (c,), halfline).value
            assert abs(emp + rate) <= 0.02


def random_measure_4d(rng: random.Random, max_atoms: int = 4, span: int = 3) -> Measure:
    atoms = {tuple(rat(rng.randint(-span, span)) for _ in range(4)): rat(rng.randint(1, 5))
             for _ in range(rng.randint(1, max_atoms))}
    return Measure(4, atoms).normalized()


def cube_cone_4d() -> Cone:
    """The cone over the cube [-1, 1]^3, built from its eight rays alone."""
    return Cone.from_generators(4, rays=cube_rays(4))


class TestCramerSpecialisation:
    """The relative rate of a deterministic walk against mu is Cramér's
    theorem for mu: the finite-n left-hand side is minus the empirical Cramér
    rate at the shifted threshold, and in 1-D the right-hand side is I(c)."""

    CONES = [
        (1, Cone.halfline, random_measure_1d),
        (1, lambda: Cone(1, [(-1,)], [(-1,)], (-1,)), random_measure_1d),
        (2, lambda: Cone.orthant(2), random_measure_2d),
        (2, lambda: Cone.from_generators(2, rays=[(1, 0), (1, 1)], unit=(2, 1)), random_measure_2d),
        (3, lambda: Cone.orthant(3), random_measure_3d),
        (4, cube_cone_4d, random_measure_4d),
    ]

    @pytest.mark.parametrize("dim, make_cone, draw", CONES,
                             ids=["up-1d", "down-1d", "orthant-2d", "gen-2d", "orthant-3d", "rays-only-4d"])
    def test_lhs_of_a_point_mass_is_minus_cramer(self, dim, make_cone, draw):
        # both read the exact mass of the principal upset of n*c - n*eps*unit,
        # so they agree bit for bit, +inf (an empty upset) included
        cone = make_cone()
        rng = random.Random(100 + 10 * dim + len(cone.rays))
        finite = 0
        for _ in range(10):
            mu = draw(rng)
            atom = rng.choice(mu.support())
            c = tuple(x + rat(rng.randint(-2, 2), 4) for x in atom)
            n, eps = rng.randint(1, 4), rat(1, rng.choice([2, 4, 8]))
            shifted = tuple(x - eps * u for x, u in zip(c, cone.unit))
            lhs = relative_rate_lhs(delta(c), mu, cone, n, eps)
            assert lhs == -cramer_empirical(mu, shifted, cone, n), (mu, c, n, eps)
            finite += math.isfinite(lhs)
        assert finite >= 3

    def test_1d_rhs_of_a_point_mass_is_the_rate_function(self, halfline):
        rng = random.Random(108)
        measures = [mu for mu in (random_measure_1d(rng) for _ in range(20)) if len(mu.support()) > 1]
        for mu in measures[:6]:
            (hi,) = max(mu.support())
            mean = sum(x * w for (x,), w in mu.atoms.items())
            for c in (mean - 1, mean + (hi - mean) / 3, mean + (hi - mean) * 2 / 3, hi, hi + 1):
                rate = rate_function(mu, (c,), halfline).value
                rhs = relative_rate_rhs(delta((c,)), mu, halfline).value
                assert rate == rhs if math.isinf(rate) else abs(rate - rhs) <= 1e-12, (mu, c)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 10: the projected-gradient ascent of the d >= 2 rate function stops "
        "1.8e-4 below the right-hand side at a sampled dual ray, a lower bound on I(c); "
        "projected Newton is to reach it"))
    def test_2d_rate_function_is_at_least_the_rhs_of_a_point_mass(self, orthant2):
        mu = Measure(2, {(-2, 2): "2/7", (1, 2): "2/7", (2, -2): "2/7", (2, 0): "1/7"})
        rate = rate_function(mu, (0, 2), orthant2).value  # 0.6160708231979655
        bound = relative_rate_rhs(delta((0, 2)), mu, orthant2).value  # 0.616248782216136
        assert rate >= bound - 1e-12
