"""Normalized-CGF spectrum sweeps and the ray/overall verdict logic."""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest

from walkorder import (
    DimensionMismatch,
    Measure,
    SpectrumOptions,
    SpectrumPoint,
    compare_on_ray,
    convolve_power,
    delta,
    leq_st,
    lev,
    project,
    shift,
    spectral_verdict,
)
from walkorder.cones import Cone
from walkorder.rational import rat
from walkorder.spectrum import (
    INCONCLUSIVE_ON_RAY,
    NON_STRICT_ONLY,
    REFINE_TOL,
    STRICT,
    STRICT_ON_RAY,
    TIE_ON_RAY,
    VIOLATED,
    VIOLATED_ON_RAY,
    _golden_min,
    _golden_min_many,
    _local_minima,
    _log_mgf_pair,
    _LogMgfRows,
    _Projected,
    _refine_brackets,
    _row_dots,
)

from conftest import (
    kernel_settings,
    least_candidate_reference,
    lev_curve_reference,
    log_mgf_reference,
    margin_minima_reference,
    profile_maxima_reference,
    random_measure_1d,
    random_measure_2d,
    random_measure_3d,
)


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
            p = _Projected.of(mu, d.t)
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
            p = _Projected.of(random_measure_1d(rng, max_atoms=5).normalized(), d.t)
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


def tilted_mean_reference(p: _Projected, r: float) -> float:
    """``_Projected.tilted_mean`` as written with the max taken by ``a.max()``."""
    a = r * p.z
    m = a.max()
    e = p.w * np.exp(a - m)
    return float(np.dot(e, p.z) / e.sum())


TAN_NEAR_HALF_PI = math.tan(math.pi / 2)  # about 1.6e16


def radials(st):
    """Radial coordinates: 0.0, both signs, |r| from 1e-6 up to tan near pi/2,
    and the ends and middle of the relative-rate grids."""
    top = math.log10(TAN_NEAR_HALF_PI)
    grid = [math.tan((math.pi / 2) * k / 257) for k in (1, 128, 256)]
    grid += [math.tan((math.pi / 2) * k / 513) for k in (1, 256, 512)]
    fixed = [0.0, 1e-6, TAN_NEAR_HALF_PI] + grid
    fixed += [-r for r in fixed[1:]]
    magnitude = st.floats(min_value=-6.0, max_value=top).map(lambda u: 10.0**u)
    return st.one_of(
        st.sampled_from(fixed),
        st.builds(lambda s, m: s * m, st.sampled_from([1.0, -1.0]), magnitude),
    )


def projected_laws(st):
    """_Projected views of 1 to 80 atoms with rational points and weights."""
    point = st.builds(rat, st.integers(-60, 60), st.integers(1, 12))
    weight = st.integers(1, 50)
    return st.dictionaries(point, weight, min_size=1, max_size=80).map(
        lambda atoms: _Projected.of(
            Measure(1, {(x,): rat(w, sum(atoms.values())) for x, w in atoms.items()}), (1,)
        )
    )


def grid_log_mgf(p: _Projected, rs) -> list:
    """``p.log_mgf`` on the grid ``rs`` by one grid call of ``_LogMgfRows``,
    as ``relative_rate_rhs`` and ``relative_rate_curve`` make it."""
    lx, _ = _LogMgfRows([(p, p)])(np.zeros(len(rs), dtype=int), np.array(rs, dtype=float))
    return lx.tolist()


class TestProjectedKernel:
    """The endpoint max and the grid call of ``_LogMgfRows`` give the
    reference floats bit for bit."""

    def test_endpoint_max_matches_the_reduction(self, hyp):
        st = hyp.strategies

        @kernel_settings(hyp)
        @hyp.given(projected_laws(st), st.lists(radials(st), min_size=1, max_size=20))
        def check(p, rs):
            for r in rs:
                assert float_bits([p.log_mgf(r)]) == float_bits([log_mgf_reference(p, r)])
                assert float_bits([p.tilted_mean(r)]) == float_bits([tilted_mean_reference(p, r)])

        check()

    def test_grid_batch_matches_the_scalar(self, hyp):
        st = hyp.strategies

        @kernel_settings(hyp)
        @hyp.given(projected_laws(st), st.lists(radials(st), min_size=1, max_size=40))
        def check(p, rs):
            many = grid_log_mgf(p, rs)
            assert float_bits(many) == float_bits([p.log_mgf(r) for r in rs])
            assert many == [log_mgf_reference(p, r) for r in rs]

        check()

    def test_every_law_size_on_the_curve_grid(self):
        # the batch on every law size from 1 to 80 atoms, r of both signs and 0
        rng = random.Random(63)
        rs = [math.tan((math.pi / 2) * k / 257) for k in range(1, 257)]
        rs += [-r for r in rs] + [0.0]
        for n_atoms in range(1, 81):
            points = rng.sample(range(-999, 1000), n_atoms)
            law = Measure(1, {(rat(k, 7),): rng.randint(1, 9) for k in points}).normalized()
            p = _Projected.of(law, (1,))
            assert len(p.z) == n_atoms
            expected = [log_mgf_reference(p, r) for r in rs]
            assert float_bits(grid_log_mgf(p, rs)) == float_bits(expected)


class TestLevCurveMaxRule:
    """``lev_curve`` takes each row's max at the sorted end of ``z``, the rule
    of ``log_mgf``, and gives the bytes of ``a.max(axis=1)``."""

    def test_bytes_equal_the_row_max_form(self):
        rng = random.Random(34)
        rs = np.tan(np.linspace(-math.pi / 2, math.pi / 2, 259)[1:-1])
        ends = [0.0, -0.0, 1e-6, -1e-6, 1e-300, -1e-300, TAN_NEAR_HALF_PI, -TAN_NEAR_HALF_PI]
        rs = np.concatenate((rs, ends))
        assert (rs < 0).any() and (rs == 0).any() and (rs > 0).any()
        laws = [m1({0: 1}), m1({-3: 1}), m1({rat(5, 2): 1}), m1({-2: "1/2", 0: "1/2"})]
        for _ in range(80):
            points = rng.sample(range(-60, 61), rng.randint(1, 12))
            if rng.random() < 0.5:
                points[0] = 0
            atoms = {(rat(x, rng.randint(1, 7)),): rng.randint(1, 9) for x in points}
            laws.append(Measure(1, atoms).normalized())
        seen = set()
        for law in laws:
            p = _Projected.of(law, (1,))
            assert p.lev_curve(rs).tobytes() == lev_curve_reference(p, rs).tobytes()
            cases = {"one atom": len(p.z) == 1, "zero": 0.0 in p.z, "negative": p.z[0] < 0}
            seen |= {case for case, hit in cases.items() if hit}
        assert seen == {"one atom", "zero", "negative"}

    def test_spectral_laws_on_the_sweep_grid(self):
        rs = np.tan(np.linspace(-math.pi / 2, math.pi / 2, 259)[1:-1])
        for law in spectral_laws(random.Random(35)):
            p = _Projected.of(law, (1,))
            assert p.lev_curve(rs).tobytes() == lev_curve_reference(p, rs).tobytes()


class TestLocalMinima:
    """``_local_minima`` against the scans it replaced: ``compare_on_ray``'s
    on the margins, and ``relative_rate_rhs``'s on a profile g, which it
    reads as the minima of -g."""

    @staticmethod
    def check(values, thetas) -> tuple:
        found = _local_minima(values, thetas)
        negated = _local_minima([-v for v in values], thetas)
        last = len(values) - 1
        for idx, i_lo, i_hi in found + negated:
            assert (i_lo, i_hi) == (max(idx - 1, 0), min(idx + 1, last))
        brackets = [[(idx, thetas[lo], thetas[hi]) for idx, lo, hi in scan] for scan in (found, negated)]
        assert brackets == [margin_minima_reference(values, thetas), profile_maxima_reference(values, thetas)]
        return found, negated

    def test_named_cases(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        inf, nan = math.inf, math.nan
        cases = [
            ([], [], [], []),
            ([1.0], [0.0], [], []),
            ([1.0, 0.0], [0.0, 1.0], [(1, 0, 1)], [(0, 0, 1)]),
            ([0.5, 0.5], [0.0, 1.0], [(0, 0, 1), (1, 0, 1)], [(0, 0, 1), (1, 0, 1)]),
            ([1.0, 0.0, 0.0, 0.0, 1.0], grid, [(1, 0, 2), (2, 1, 3), (3, 2, 4)],
             [(0, 0, 1), (2, 1, 3), (4, 3, 4)]),
            ([0.0, -0.0, 0.0, -0.0, 0.0], grid, [(i, max(i - 1, 0), min(i + 1, 4)) for i in range(5)],
             [(i, max(i - 1, 0), min(i + 1, 4)) for i in range(5)]),
            ([inf, -inf, inf, inf, -inf], grid, [(1, 0, 2), (4, 3, 4)], [(0, 0, 1), (2, 1, 3), (3, 2, 4)]),
            ([1.0, nan, 0.0, nan, 2.0], grid, [], []),
            ([nan, 1.0, 2.0], grid[:3], [], [(2, 1, 2)]),
            ([0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0], [(2, 1, 3)], [(1, 0, 2), (3, 2, 4)]),
        ]
        for values, thetas, minima, maxima in cases:
            assert self.check(values, thetas) == (minima, maxima), values

    def test_random_grids(self):
        rng = random.Random(36)
        pool = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, math.inf, -math.inf, math.nan]
        counts = [0, 0]
        for _ in range(5000):
            n = rng.randint(0, 7)
            values = [rng.choice(pool) for _ in range(n)]
            thetas = sorted(rng.choice((-1.0, -0.0, 0.0, 0.5, 1.0, 2.0)) for _ in range(n))
            found, negated = self.check(values, thetas)
            counts[0] += len(found)
            counts[1] += len(negated)
        assert min(counts) > 1000


class TestRowDots:
    """``_row_dots``, the stacked matmul behind the rate ascent's objective
    and gradient, gives per-row ``np.dot`` bit for bit."""

    def test_every_shape_up_to_600_by_200(self):
        rng = np.random.default_rng(600)
        shapes = [(1, 1), (1, 200), (600, 1), (600, 200)]
        shapes += [(int(rng.integers(1, 601)), int(rng.integers(1, 201))) for _ in range(200)]
        for rows, cols in shapes:
            # exponentials as a log-MGF block holds them, over many scales
            A = np.exp(rng.uniform(-700.0, 0.0, size=(rows, cols)))
            A[rng.random((rows, cols)) < 0.05] = 0.0
            v = rng.random(cols) * 10.0 ** rng.integers(-8, 3, size=cols)
            got = _row_dots(A, v)
            expected = np.array([np.dot(v, row) for row in A])
            assert got.shape == (rows,) and got.dtype == np.float64
            assert got.tobytes() == expected.tobytes(), (rows, cols)

    def test_signed_vectors_in_two_and_three_dimensions(self):
        # the rays and gradients of the d >= 2 rate ascent
        rng = np.random.default_rng(48)
        for _ in range(500):
            k, d = int(rng.integers(1, 49)), int(rng.integers(2, 4))
            R, g = rng.normal(size=(k, d)), rng.normal(size=d) * 10.0 ** rng.integers(-12, 3)
            assert _row_dots(R, g).tobytes() == np.array([r @ g for r in R]).tobytes()


class TestLogMgfPair:
    """The fused kernel gives both ``log_mgf`` floats bit for bit."""

    @staticmethod
    def assert_pair_matches(px, py, rs):
        pair = _log_mgf_pair(px, py)
        for r in rs:
            lx, ly = pair(r)
            assert float_bits([lx, ly]) == float_bits([px.log_mgf(r), py.log_mgf(r)]), r

    def test_random_laws_and_radials(self, hyp):
        st = hyp.strategies
        nonzero = radials(st).filter(lambda r: r != 0.0)

        @kernel_settings(hyp)
        @hyp.given(projected_laws(st), projected_laws(st), st.lists(nonzero, min_size=1, max_size=20))
        def check(px, py, rs):
            self.assert_pair_matches(px, py, rs)

        check()

    def test_signs_scales_one_atom_and_unequal_lengths(self):
        rng = random.Random(64)
        rs = [s * 10.0**k * f for s in (1, -1) for k in range(-12, 17) for f in (1.0, 0.61)]
        rs += [TAN_NEAR_HALF_PI, -TAN_NEAR_HALF_PI, 5e-324, -5e-324]

        def law(n_atoms):
            points = rng.sample(range(-999, 1000), n_atoms)
            return Measure(1, {(rat(k, 13),): rng.randint(1, 9) for k in points}).normalized()

        one = _Projected.of(delta((rat(3, 7),)), (1,))
        assert len(one.z) == 1
        self.assert_pair_matches(one, one, rs)
        for nx, ny in ((1, 7), (7, 1), (2, 150), (150, 3), (10, 60), (60, 60), (33, 34)):
            px, py = _Projected.of(law(nx), (1,)), _Projected.of(law(ny), (1,))
            assert (len(px.z), len(py.z)) == (nx, ny)
            self.assert_pair_matches(px, py, rs)

    def test_grid_and_golden_radials_of_the_curated_pair(self, curated_pair):
        X, Y = curated_pair
        px, py = _Projected.of(X, (1,)), _Projected.of(Y, (1,))
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 259)[1:-1].tolist()
        rs = [math.tan(th) for th in thetas if th != 0.0]
        self.assert_pair_matches(px, py, rs)
        self.assert_pair_matches(py, px, [math.tan(th / 3) for th in thetas if th != 0.0])


INVPHI = (math.sqrt(5) - 1) / 2


def golden_pairs(results) -> list:
    """``[(theta, f), ...]`` flattened to float bit patterns."""
    return float_bits([v for pair in results for v in pair])


class TestGoldenMinMany:
    """The lockstep golden section against one ``_golden_min`` per bracket."""

    @staticmethod
    def lockstep(fs, lo, hi, tol=REFINE_TOL):
        visited = []

        def f(rows, thetas):
            assert rows.dtype.kind == "i" and len(rows) == len(thetas)
            visited.extend(zip(rows.tolist(), thetas.tolist()))
            return np.array([fs[i](th) for i, th in zip(rows.tolist(), thetas.tolist())])

        return _golden_min_many(f, lo, hi, tol), visited

    @staticmethod
    def one_by_one(fs, lo, hi, tol=REFINE_TOL):
        results, visited = [], []
        for i, (f, a, b) in enumerate(zip(fs, lo, hi)):
            def g(theta, f=f, i=i):
                visited.append((i, theta))
                return f(theta)

            results.append(_golden_min(g, a, b, tol))
        return results, visited

    def assert_same(self, fs, lo, hi, tol=REFINE_TOL):
        got, seen = self.lockstep(fs, lo, hi, tol)
        expected, visited = self.one_by_one(fs, lo, hi, tol)
        assert golden_pairs(got) == golden_pairs(expected)
        # each bracket visits the same points, in the same order
        assert sorted(seen, key=lambda v: v[0]) == visited
        return got, seen

    def test_widths_ties_and_plateaus(self):
        def step(x):
            return round(8 * x) / 8  # plateaus: fc == fd on most steps

        fs = [
            lambda x: (x - 0.3) ** 2,
            lambda x: 1.0,  # a tie at every step
            step,
            lambda x: -math.cos(3 * x) + 0.1 * x,
            lambda x: abs(math.sin(40 * x)),  # many minima in the bracket
            lambda x: math.log1p(x * x) - 0.8 * x,
            lambda x: -x,  # the minimum at the right end
            lambda x: x,  # and at the left end
        ]
        # widths from below tol (no step) to 3: the brackets finish at
        # different steps
        widths = [1e-13, 1e-12, 2e-12, 1e-9, 1e-6, 0.01, 0.0122, 1.0, 3.0]
        lo, hi, family = [], [], []
        for k, w in enumerate(widths):
            for j, f in enumerate(fs):
                a = -1.0 + 0.37 * j - 0.11 * k
                lo.append(a)
                hi.append(a + w)
                family.append(f)
        _, seen = self.assert_same(family, lo, hi)
        counts = {i: 0 for i in range(len(lo))}
        for i, _ in seen:
            counts[i] += 1
        assert len(set(counts.values())) > 3

    def test_random_brackets_and_tolerances(self):
        rng = random.Random(70)
        for tol in (REFINE_TOL, 1e-9, 1e-3):
            fs, lo, hi = [], [], []
            for _ in range(60):
                a, w = rng.uniform(-1.5, 1.5), 10.0 ** rng.uniform(-14, 0.5)
                c0, c1, c2 = rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-2, 2)
                fs.append(lambda x, c0=c0, c1=c1, c2=c2: c0 * x * x + math.sin(c1 * x) + c2 * x)
                lo.append(a)
                hi.append(a + w)
            self.assert_same(fs, lo, hi, tol)

    def test_nan_values_take_the_right_branch(self):
        fs = [lambda x: math.nan if x < 0.5 else x, lambda x: math.nan]
        self.assert_same(fs, [0.0, 0.0], [1.0, 1.0])

    def test_a_point_at_theta_zero(self):
        # d = a + invphi * (b - a) is exactly 0.0 on this bracket, where a
        # sweep's f takes its r == 0 value
        lo, hi = -INVPHI, 1.0 - INVPHI
        assert lo + INVPHI * (hi - lo) == 0.0

        def f(theta):
            return -1.0 if math.tan(theta) == 0.0 else theta * theta

        got, _ = self.assert_same([f, f], [lo, lo], [hi, hi])
        assert got[0] == (0.0, -1.0)

    def test_empty(self):
        assert _golden_min_many(lambda rows, thetas: thetas, [], []) == []


def pair_laws(rng: random.Random, sizes) -> list:
    """One ``(px, py)`` per ``(nx, ny)`` in ``sizes``: 1-D laws on
    thirteenths with those many atoms."""

    def law(n_atoms):
        points = rng.sample(range(-999, 1000), n_atoms)
        return Measure(1, {(rat(k, 13),): rng.randint(1, 9) for k in points}).normalized()

    return [(_Projected.of(law(nx), (1,)), _Projected.of(law(ny), (1,))) for nx, ny in sizes]


class TestLogMgfRows:
    """The batched two-law kernel against ``_Projected.log_mgf``."""

    RADIAL = [s * 10.0**k * f for s in (1, -1) for k in range(-12, 17) for f in (1.0, 0.61)]
    RADIAL += [TAN_NEAR_HALF_PI, -TAN_NEAR_HALF_PI, 5e-324, -5e-324]

    @staticmethod
    def assert_scalar(pairs, rays, rs, lx, ly):
        assert len(lx) == len(ly) == len(rays)
        for ray, r, x, y in zip(rays.tolist(), rs.tolist(), lx.tolist(), ly.tolist()):
            px, py = pairs[ray]
            assert float_bits([x, y]) == float_bits([px.log_mgf(r), py.log_mgf(r)]), (ray, r)

    def test_mixed_lengths_in_one_batch(self):
        rng = random.Random(71)
        sizes = [(1, 1), (1, 7), (7, 1), (2, 150), (33, 34), (60, 60), (60, 60), (150, 3)]
        pairs = pair_laws(rng, sizes)
        # brackets sorted by shape, several per ray, as _refine_brackets
        # hands them over
        ray_of = sorted((ray for ray in range(len(pairs)) for _ in range(3)),
                        key=lambda ray: sizes[ray])
        kernel = _LogMgfRows(pairs)
        for trial in range(40):
            rows = sorted(rng.sample(range(len(ray_of)), rng.randint(1, len(ray_of))))
            rays = np.array([ray_of[row] for row in rows])
            rs = np.array([rng.choice(self.RADIAL) for _ in rows])
            self.assert_scalar(pairs, rays, rs, *kernel(rays, rs))

    def test_one_shape(self, curated_pair):
        X, Y = curated_pair
        pairs = [(_Projected.of(X, (1,)), _Projected.of(Y, (1,)))]
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 259)[1:-1].tolist()
        rs = np.array([math.tan(th) for th in thetas if th != 0.0])
        lx, ly = _LogMgfRows(pairs)(np.zeros(len(rs), dtype=int), rs)
        assert float_bits(lx.tolist()) == float_bits([pairs[0][0].log_mgf(r) for r in rs.tolist()])
        assert float_bits(ly.tolist()) == float_bits([pairs[0][1].log_mgf(r) for r in rs.tolist()])

    def test_one_ray_some_shapes_and_no_rows(self):
        # a kernel over rays of several support sizes, where some sizes are
        # shared by rays of other shapes, called as the grids and a chunk of
        # the lockstep call it
        rng = random.Random(74)
        sizes = [(3, 9), (9, 3), (3, 3), (40, 9), (9, 3), (1, 40), (40, 40)]
        pairs = pair_laws(rng, sizes)
        kernel = _LogMgfRows(pairs)
        for ray in range(len(pairs)):
            rs = np.array([rng.choice(self.RADIAL) for _ in range(17)])
            rays = np.full(len(rs), ray)
            self.assert_scalar(pairs, rays, rs, *kernel(rays, rs))
        for trial in range(20):
            picked = rng.sample(range(len(pairs)), rng.randint(1, 3))
            rays = [ray for ray in picked for _ in range(rng.randint(1, 4))]
            rays = np.array(sorted(rays, key=sizes.__getitem__))
            rs = np.array([rng.choice(self.RADIAL) for _ in rays])
            self.assert_scalar(pairs, rays, rs, *kernel(rays, rs))
        lx, ly = kernel(np.array([], dtype=int), np.array([]))
        assert lx.shape == ly.shape == (0,)


class TestRefineBrackets:
    """Both routes of ``_refine_brackets`` give ``_golden_min`` on the
    ray's exact margin, bit for bit, and the route follows ``LOCKSTEP_MIN``."""

    @staticmethod
    def margin(r, lx, ly):
        return ly / r - lx / r

    def brackets(self, rng, pairs, count):
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 259)[1:-1].tolist()
        out = []
        for _ in range(count):
            k = rng.randrange(len(thetas) - 2)
            out.append((rng.randrange(len(pairs)), thetas[k], thetas[k + rng.choice((1, 2))]))
        return out

    def reference(self, pairs, brackets, at_zero):
        out = []
        for ray, lo, hi in brackets:
            px, py = pairs[ray]

            def f(theta, px=px, py=py, zero=at_zero[ray]):
                r = math.tan(theta)
                return zero if r == 0.0 else self.margin(r, px.log_mgf(r), py.log_mgf(r))

            out.append(_golden_min(f, lo, hi))
        return out

    def test_route_on_both_sides_of_lockstep_min(self, monkeypatch):
        import walkorder.spectrum as spectrum_mod

        calls = []
        scalar, many = spectrum_mod._golden_min, spectrum_mod._golden_min_many
        monkeypatch.setattr(spectrum_mod, "_golden_min",
                            lambda *a: calls.append("scalar") or scalar(*a))
        monkeypatch.setattr(spectrum_mod, "_golden_min_many",
                            lambda *a: calls.append("lockstep") or many(*a))
        rng = random.Random(72)
        pairs = pair_laws(rng, [(5, 9), (12, 12), (5, 9), (1, 30)])
        at_zero = [0.25, -0.5, 0.0, 1.0]
        n = spectrum_mod.LOCKSTEP_MIN
        for count, route in ((n - 1, ["scalar"] * (n - 1)), (n, ["lockstep"]), (3 * n, ["lockstep"])):
            brackets = self.brackets(rng, pairs, count)
            del calls[:]
            got = _refine_brackets(pairs, brackets, self.margin, at_zero)
            assert calls == route
            assert golden_pairs(got) == golden_pairs(self.reference(pairs, brackets, at_zero))

    def test_chunks_and_a_bracket_through_theta_zero(self, monkeypatch):
        import walkorder.spectrum as spectrum_mod

        rng = random.Random(73)
        pairs = pair_laws(rng, [(20, 30), (3, 3), (30, 20), (40, 2)])
        at_zero = [0.5, -1e9, 0.125, 2.0]
        brackets = self.brackets(rng, pairs, 40) + [(1, -INVPHI, 1.0 - INVPHI)]
        expected = self.reference(pairs, brackets, at_zero)
        assert expected[-1] == (0.0, -1e9)  # the r == 0 value is the minimum there
        chunks = []
        many = spectrum_mod._golden_min_many

        def counted(f, lo, hi, *rest):
            chunks.append(len(lo))
            return many(f, lo, hi, *rest)

        monkeypatch.setattr(spectrum_mod, "_golden_min_many", counted)
        for budget in (1, 200, 1000, spectrum_mod.BATCH_ELEMENTS):
            monkeypatch.setattr(spectrum_mod, "BATCH_ELEMENTS", budget)
            del chunks[:]
            got = _refine_brackets(pairs, brackets, self.margin, at_zero)
            assert golden_pairs(got) == golden_pairs(expected)
            assert sum(chunks) == len(brackets)
            assert chunks == [len(brackets)] if budget >= 2 * 40 * len(brackets) else len(chunks) > 1


def projected_reference(proj: Measure) -> _Projected:
    """The float and exact views built from the sorted rational atoms, the
    construction _Projected used before it read the integer view."""
    items = sorted(proj.atoms.items())
    ref = object.__new__(_Projected)
    ref.z = np.array([float(x[0]) for x, _ in items])
    ref.w = np.array([float(wt) for _, wt in items])
    ref.min = items[0][0][0]
    ref.max = items[-1][0][0]
    ref.w_max = items[-1][1]
    ref.mean = sum((x[0] * wt for x, wt in items), rat(0))
    return ref


def compare_on_ray_reference(X, Y, t, opts=None):
    """compare_on_ray as it was before its scan read Python floats: the
    reference views and numpy scalars at every grid point."""
    opts = opts or SpectrumOptions()
    px = projected_reference(project(X, t.t))
    py = projected_reference(project(Y, t.t))
    exact_margins = [
        (-math.inf, py.min - px.min),
        (0.0, py.mean - px.mean),
        (math.inf, py.max - px.max),
    ]
    thetas = np.linspace(-math.pi / 2, math.pi / 2, opts.grid_points + 2)[1:-1]
    rs = np.tan(thetas)
    levx = px.lev_curve(rs)
    levy = py.lev_curve(rs)
    margin = levy - levx

    def margin_at_theta(theta):
        r = math.tan(theta)
        return py.lev_at(r) - px.lev_at(r)

    candidates = [(float(m), r) for r, m in exact_margins]
    for idx in range(len(rs)):
        m = margin[idx]
        candidates.append((float(m), float(rs[idx])))
        left = margin[idx - 1] if idx > 0 else math.inf
        right = margin[idx + 1] if idx + 1 < len(rs) else math.inf
        if m <= left and m <= right:
            lo = thetas[max(idx - 1, 0)]
            hi = thetas[min(idx + 1, len(rs) - 1)]
            if lo < hi:
                theta_star, m_star = _golden_min(margin_at_theta, lo, hi, REFINE_TOL)
                candidates.append((m_star, math.tan(theta_star)))
    min_margin, argmin_radial = min(candidates, key=lambda c: (c[0], abs(c[1])))
    exact_neg = [r for r, m in exact_margins if m < 0]
    exact_tie = any(m == 0 for _, m in exact_margins)
    all_exact_pos = all(m > 0 for _, m in exact_margins)
    interior_min = min(
        (c[0] for c in candidates if not math.isinf(c[1]) and c[1] != 0.0),
        default=math.inf,
    )
    if exact_neg:
        verdict = VIOLATED_ON_RAY
        argmin_radial = exact_neg[0]
    elif min_margin < -opts.margin_tol:
        verdict = VIOLATED_ON_RAY
    elif all_exact_pos and interior_min > opts.margin_tol:
        verdict = STRICT_ON_RAY
    elif exact_tie:
        verdict = TIE_ON_RAY
    else:
        verdict = INCONCLUSIVE_ON_RAY
    samples = [(-math.pi / 2, -math.inf, float(px.min), float(py.min), float(py.min - px.min))]
    for k in range(len(rs)):
        samples.append(
            (float(thetas[k]), float(rs[k]), float(levx[k]), float(levy[k]), float(margin[k]))
        )
    samples.append((math.pi / 2, math.inf, float(px.max), float(py.max), float(py.max - px.max)))
    return min_margin, argmin_radial, verdict, samples


def float_bits(values) -> list:
    """Exact bit patterns, so that -0.0 and 0.0 differ; every value must be a
    Python float."""
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


def spectral_laws(rng: random.Random) -> list:
    """Projected laws the spectral sweep meets: random 1-D laws, projections
    of 2-D and 3-D laws on rational rays, and laws whose coordinates and
    weights need more than 53 bits."""
    laws = []
    for _ in range(25):
        laws.append(random_measure_1d(rng, max_atoms=7))
        mu = random_measure_2d(rng, max_atoms=6)
        laws.append(project(mu, (rat(rng.randint(0, 5), rng.randint(1, 7)), rat(rng.randint(1, 5), 3))))
        mu3 = Measure(
            3,
            {
                tuple(rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)): rat(
                    rng.randint(1, 9), rng.choice([1, 5, 7])
                )
                for _ in range(rng.randint(1, 6))
            },
        )
        laws.append(project(mu3, tuple(rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))))
        big = {
            (rat(rng.randint(-(10**30), 10**30), 3**rng.randint(30, 60)),): rat(
                rng.randint(1, 10**20), 7**rng.randint(20, 40)
            )
            for _ in range(rng.randint(1, 5))
        }
        laws.append(Measure(1, big))
        laws.append(project(Measure(2, {(x[0], rat(1, 3)): w for x, w in big.items()}), ("1/3", "2/11")))
    return laws


class TestProjectedView:
    """_Projected from the integer view against the rational construction."""

    def test_floats_bit_for_bit_and_exact_statistics(self):
        for law in spectral_laws(random.Random(61)):
            p, ref = _Projected.of(law, (1,)), projected_reference(law)
            assert float_bits(p.z.tolist()) == float_bits(ref.z.tolist())
            assert float_bits(p.w.tolist()) == float_bits(ref.w.tolist())
            for name in ("min", "max", "w_max", "mean"):
                value = getattr(p, name)
                assert type(value) is type(rat(0))
                assert value == getattr(ref, name), name

    def test_ascending_and_zero_is_positive(self):
        law = Measure(1, {("1/3",): "1/4", (0,): "1/4", ("-2/3",): "1/2"})
        p = _Projected.of(Measure(2, {(x[0], 5): w for x, w in law.atoms.items()}), (1, 0))
        assert float_bits(p.z.tolist()) == float_bits([-2 / 3, 0.0, 1 / 3])
        assert (p.min, p.max, p.w_max, p.mean) == (rat(-2, 3), rat(1, 3), rat(1, 4), rat(-1, 4))


class TestProjectedOf:
    def test_equals_the_view_of_the_rational_projection(self, orthant2):
        rng = random.Random(65)
        laws = []
        for _ in range(30):
            mu = random_measure_2d(rng, max_atoms=6)
            laws.append((mu, (rat(rng.randint(0, 5), rng.randint(1, 7)), rat(rng.randint(1, 5), 3))))
            laws.append((mu, orthant2.dual_directions(4, seed=rng.randint(0, 9))[rng.randint(0, 3)].t))
            mu3 = random_measure_3d(rng)
            laws.append((mu3, tuple(rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))))
        # atoms that merge under the projection, and 1-D laws on t = (1,)
        laws.append((Measure(2, {(0, 1): "1/4", (1, 0): "1/4", (2, 2): "1/2"}), (1, 1)))
        laws += [(law, (1,)) for law in spectral_laws(random.Random(66))[::5]]
        for mu, t in laws:
            p, ref = _Projected.of(mu, t), projected_reference(project(mu, t))
            assert float_bits(p.z.tolist()) == float_bits(ref.z.tolist())
            assert float_bits(p.w.tolist()) == float_bits(ref.w.tolist())
            for name in ("min", "max", "w_max", "mean"):
                value = getattr(p, name)
                assert type(value) is type(rat(0))
                assert value == getattr(ref, name), name

    def test_no_rational_atom_is_built(self, monkeypatch):
        import walkorder.measure as measure_mod

        mu = Measure(2, {(0, 1): "1/4", (1, 0): "1/4", (2, 2): "1/2"})
        monkeypatch.setattr(measure_mod, "rat", None)  # project would call it
        p = _Projected.of(mu, ("1/2", 1))
        assert p.z.tolist() == [0.5, 1.0, 3.0]


class TestCompareOnRayEquivalence:
    def test_matches_the_numpy_scalar_loop(self, orthant2):
        rng = random.Random(62)
        d1 = direction_1d()
        rays = orthant2.dual_directions(6, seed=4)
        verdicts = set()
        for i in range(36):
            if i % 2:
                X = random_measure_2d(rng, max_atoms=5).normalized()
                t = rays[i % len(rays)]
            else:
                X = random_measure_1d(rng, max_atoms=5).normalized()
                t = d1
            kind = i % 3
            if kind == 0:
                Y = X
            elif kind == 1:
                Y = shift(X, (rat(rng.randint(0, 3), rng.randint(1, 5)),) * X.dim)
            else:
                Y = (random_measure_2d if X.dim == 2 else random_measure_1d)(rng).normalized()
            opts = SpectrumOptions(grid_points=rng.choice([17, 65, 257]))
            rc = compare_on_ray(X, Y, t, opts)
            min_margin, argmin_radial, verdict, samples = compare_on_ray_reference(X, Y, t, opts)
            assert float_bits([rc.min_margin, rc.argmin_radial]) == float_bits(
                [min_margin, argmin_radial]
            )
            assert rc.verdict == verdict
            assert [float_bits(row) for row in rc.samples] == [float_bits(row) for row in samples]
            verdicts.add(verdict)
        assert {STRICT_ON_RAY, TIE_ON_RAY, VIOLATED_ON_RAY} <= verdicts


    def test_pruned_brackets_on_2d_and_3d_pairs(self, monkeypatch):
        """compare_on_ray against the reference, which refines every bracket,
        on seeded 2-D and 3-D pairs, with the brackets refined one by one and
        in lockstep: the same bits, pruning fires, and every bracket it skips
        refines, in the reference, to a margin above the least interior grid
        margin."""
        import walkorder.spectrum as spectrum_mod

        module = sys.modules[__name__]
        reference_golden, refined = [], []
        routes = {"scalar": 0, "lockstep": 0}

        def recording(into, golden):
            def run(f, lo, hi, tol=REFINE_TOL):
                result = golden(f, lo, hi, tol)
                into.append(((lo, hi), result[1]))
                return result

            return run

        def recording_many(f, lo, hi, tol=REFINE_TOL):
            results = _golden_min_many(f, lo, hi, tol)
            refined.extend(((a, b), m) for a, b, (_, m) in zip(lo, hi, results))
            routes["lockstep"] += len(results)
            return results

        golden = _golden_min

        def recording_scalar(f, lo, hi, tol=REFINE_TOL):
            routes["scalar"] += 1
            return recording(refined, golden)(f, lo, hi, tol)

        monkeypatch.setattr(module, "_golden_min", recording(reference_golden, golden))
        monkeypatch.setattr(spectrum_mod, "_golden_min", recording_scalar)
        monkeypatch.setattr(spectrum_mod, "_golden_min_many", recording_many)
        rng = random.Random(67)
        cones = {2: Cone.orthant(2), 3: Cone.orthant(3)}
        pruned_total = brackets_total = 0
        verdicts = set()
        for i in range(16):
            dim = 2 + i % 2
            draw = random_measure_2d if dim == 2 else random_measure_3d
            X = draw(rng).normalized()
            kind = i % 4
            if kind == 0:
                Y = shift(X, tuple(rat(rng.randint(1, 3), rng.randint(1, 5)) for _ in range(dim)))
            elif kind == 1:
                Y = convolve_power(X, 2)
            else:
                Y = draw(rng).normalized()
            for t in cones[dim].dual_directions(2, seed=i):
                opts = SpectrumOptions(grid_points=rng.choice([33, 65, 129]))
                min_margin, argmin_radial, verdict, samples = compare_on_ray_reference(X, Y, t, opts)
                # every bracket in lockstep, then one by one
                for lockstep_min in (1, 10**9):
                    monkeypatch.setattr(spectrum_mod, "LOCKSTEP_MIN", lockstep_min)
                    del refined[:]
                    rc = compare_on_ray(X, Y, t, opts)
                    assert float_bits([rc.min_margin, rc.argmin_radial]) == float_bits(
                        [min_margin, argmin_radial]
                    )
                    assert rc.verdict == verdict
                    assert [float_bits(row) for row in rc.samples] == [float_bits(row) for row in samples]
                    verdicts.add(verdict)
                    # the refined brackets are the reference's, in order, less the pruned ones
                    done = [bracket for bracket, _ in refined]
                    pruned = [(b, m) for b, m in reference_golden if b not in done]
                    assert done == [b for b, _ in reference_golden if b in done]
                    assert [m for _, m in refined] == [m for b, m in reference_golden if b in done]
                    grid_floor = min(row[4] for row in samples[1:-1] if row[1] != 0.0)
                    assert all(m > grid_floor for _, m in pruned)
                    # and the monotone bound lev_Y(r_lo) - lev_X(r_hi) says so
                    row_at = {row[0]: row for row in samples}
                    for (lo, hi), _ in pruned:
                        assert row_at[lo][3] - row_at[hi][2] > grid_floor
                pruned_total += len(pruned)
                brackets_total += len(reference_golden)
                del reference_golden[:]
        assert 0 < pruned_total < brackets_total
        assert {STRICT_ON_RAY, VIOLATED_ON_RAY} <= verdicts
        assert routes["scalar"] == routes["lockstep"] > 0


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

    def test_measure_dimensions_checked(self):
        # the projection of the 2-D measure used to report "point has 1
        # coordinates, expected 2"
        plane = Measure(2, {(0, 0): 1})
        with pytest.raises(DimensionMismatch, match="^measure dimensions differ: 1 vs 2$"):
            compare_on_ray(delta((0,)), plane, direction_1d())
        with pytest.raises(ValueError, match="^Y must be normalized to total mass 1$"):
            compare_on_ray(delta((0,)), Measure(2, {(0, 0): "1/2"}), direction_1d())


class TestLeastCandidate:
    """``compare_on_ray`` takes its least candidate by one ``min`` over the
    margins and ranks only the ties by ``|r|``: the candidate of the key min
    over the whole candidate list (``conftest.least_candidate_reference``),
    the very float objects, on every sweep of these cases."""

    GRIDS = (0, 1, 2, 256, 257)

    @staticmethod
    def pairs() -> list:
        rng = random.Random(37)
        plane, space = Cone.orthant(2), Cone.orthant(3)
        b = m1({0: "1/2", 1: "1/2"})
        X2 = random_measure_2d(rng, max_atoms=5).normalized()
        X3 = random_measure_3d(rng).normalized()
        return [
            ("identical", b, b, [direction_1d()]),
            ("identical", X2, X2, plane.dual_directions(3, seed=1)),
            ("constant gap", b, shift(b, ("1/3",)), [direction_1d()]),
            ("constant gap", X2, shift(X2, (1, 2)), plane.dual_directions(3, seed=2)),
            ("flat", delta((0, 0)), delta((1, 1)), plane.dual_directions(3, seed=3)),
            ("flat", delta((0, 0, 0)), delta((1, 1, 2)), space.dual_directions(3, seed=4)),
            ("random", X2, random_measure_2d(rng).normalized(), plane.dual_directions(3, seed=5)),
            ("random", X3, random_measure_3d(rng).normalized(), space.dual_directions(3, seed=6)),
        ]

    def test_matches_the_key_min_over_the_candidate_list(self, monkeypatch):
        import walkorder.spectrum as spectrum_mod

        least = spectrum_mod._least_candidate
        seen = {"ties": 0, "zero on the grid": set(), "no zero on the grid": set()}

        def checked(exact, margin, rs, stars):
            got, want = least(exact, margin, rs, stars), least_candidate_reference(exact, margin, rs, stars)
            assert got[0] is want[0] and got[1] is want[1], (got, want)
            values = [m for m, _ in exact] + margin + [m for m, _ in stars.values()]
            seen["ties"] += values.count(got[0]) > 1
            seen["zero on the grid" if 0.0 in rs else "no zero on the grid"].add(len(rs))
            return got

        monkeypatch.setattr(spectrum_mod, "_least_candidate", checked)
        for _, X, Y, rays in self.pairs():
            for grid_points in self.GRIDS:
                for t in rays:
                    rc = compare_on_ray(X, Y, t, SpectrumOptions(grid_points=grid_points))
                    assert len(rc.samples) == grid_points + 2
        assert seen["ties"] > 0
        assert seen["zero on the grid"] and seen["no zero on the grid"]
        assert seen["zero on the grid"] | seen["no zero on the grid"] == set(self.GRIDS)

    def test_an_empty_grid_ranks_the_exact_points(self):
        """With no grid point the candidates are the three exact margins, as
        they were before: no ``min`` of an empty sequence."""
        for grid_points in (0, 1):
            rc = compare_on_ray(delta((0,)), delta((1,)), direction_1d(), SpectrumOptions(grid_points=grid_points))
            assert rc.verdict == STRICT_ON_RAY
            assert (rc.min_margin, rc.argmin_radial) == (1.0, 0.0)
            assert [row[1] for row in rc.samples] == [-math.inf, *[0.0] * grid_points, math.inf]
        b = m1({0: "1/2", 1: "1/2"})
        rc = compare_on_ray(b, b, direction_1d(), SpectrumOptions(grid_points=0))
        assert (rc.verdict, rc.min_margin, rc.argmin_radial) == (TIE_ON_RAY, 0.0, 0.0)

    def test_callers_cannot_change_the_next_rays_grid(self):
        """The grid of a ``grid_points`` is built once and shared by every
        ray: its arrays are read-only, its columns tuples, and each ray's
        ``samples`` a list of its own."""
        import walkorder.spectrum as spectrum_mod

        X, Y = m1({0: "1/2", 1: "1/2"}), m1({0: "1/4", 2: "3/4"})
        opts = SpectrumOptions(grid_points=33)
        first = compare_on_ray(X, Y, direction_1d(), opts)
        expected = [float_bits(row) for row in first.samples]
        first.samples[1] = (0.0,) * 5
        first.samples.append(first.samples[0])
        del first.samples[2:5]
        grid = spectrum_mod._sweep_grid(33)
        with pytest.raises(ValueError):
            grid.rs[0] = 0.0
        assert grid.rs.base is None
        for column in (grid.theta_list, grid.r_list, grid.nonzero, grid.theta_col, grid.r_col):
            assert type(column) is tuple
        lev_x = _Projected.of(X, (1,)).lev_curve(grid.rs)
        lev_x[:] = 0.0  # an array a caller gets back is its own
        second = compare_on_ray(X, Y, direction_1d(), opts)
        assert [float_bits(row) for row in second.samples] == expected
        assert second.samples is not first.samples


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
        px = _Projected.of(X, (rat(1),))
        py = _Projected.of(Y, (rat(1),))
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

    @pytest.mark.parametrize(
        "dims, cone, message",
        [
            ((1, 2), "halfline", "measure dimensions differ: 1 vs 2"),
            ((2, 1), "orthant2", "measure dimensions differ: 2 vs 1"),
            ((2, 1), "halfline", "cone dimension 1 does not match 2"),
            ((2, 2), "halfline", "cone dimension 1 does not match 2"),
        ],
    )
    def test_dimensions_checked(self, request, dims, cone, message):
        X, Y = (Measure(d, {(0,) * d: 1}) for d in dims)
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            spectral_verdict(X, Y, request.getfixturevalue(cone))

    def test_orthant_flags_sampling(self, orthant2):
        X = Measure(2, {(0, 0): 1})
        Y = Measure(2, {(1, 1): 1})
        rep = spectral_verdict(X, Y, orthant2, SpectrumOptions(n_samples=8))
        assert rep.verdict == STRICT
        assert rep.sampled_only

    @pytest.mark.parametrize(
        "rays, normals, sampled",
        [
            # one facet direction given twice: the dual is one ray, swept whole
            ([(1,)], [(1,), (2,)], False),
            ([(1, 0), (-1, 0), (0, 1)], [(0, 1), (0, 2)], False),
            ([(1, 0), (0, 1)], [(1, 0), (2, 0), (0, 1)], True),
        ],
    )
    def test_sampling_counts_each_facet_direction_once(self, rays, normals, sampled):
        cone = Cone.from_generators(len(rays[0]), rays=rays, normals=normals)
        X = Measure(cone.dim, {(0,) * cone.dim: "1/2", cone.unit: "1/2"})
        rep = spectral_verdict(X, shift(X, cone.unit), cone, SpectrumOptions(n_samples=8))
        assert rep.verdict == STRICT
        assert rep.sampled_only is sampled
        assert (len(rep.per_ray) > 1) is sampled


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
                leq_st(convolve_power(X, n), convolve_power(Y, n), halfline).dominated
                for n in range(1, 5)
            ):
                continue
            confirmed += 1
            rep = spectral_verdict(X, Y, halfline)
            assert rep.verdict != VIOLATED
        assert confirmed == 25
