"""Minimal-n certification, catalyst search, growth exponents."""

from __future__ import annotations

import random

import pytest

from walkorder import (
    AtomBudgetExceeded,
    Cone,
    DimensionMismatch,
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
from walkorder import dominance, measure, stochorder
from walkorder.dominance import MAX_CATALYST_GRID, _lattice_step, default_catalyst_grid
from walkorder.rational import rat
from walkorder.spectrum import VIOLATED

from conftest import (
    CONES_1D,
    bernoulli,
    catalyst_1d_lp_only,
    composition,
    endpoints,
    lattice_step_reference,
    min_n_reference,
    random_measure_1d,
)

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

    def test_inputs_checked_before_any_power(self, halfline, orthant2, monkeypatch):
        def no_power(*args):
            raise AssertionError("a power was computed before the inputs were checked")

        monkeypatch.setattr(dominance, "convolve_power", no_power)
        plane = Measure(2, {(0, 0): 1})
        with pytest.raises(DimensionMismatch, match="^measure dimensions differ: 1 vs 2$"):
            min_n(delta((0,)), plane, halfline)
        with pytest.raises(DimensionMismatch, match="^measure dimensions differ: 2 vs 1$"):
            min_n(plane, delta((0,)), orthant2)
        with pytest.raises(ValueError, match="^Y must be normalized to total mass 1$"):
            min_n(delta((0,)), m1({0: "1/2"}), halfline)
        with pytest.raises(DimensionMismatch, match="^cone dimension 1 does not match 2$"):
            min_n(plane, plane, halfline)

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


def _lattice_law(rng: random.Random) -> Measure:
    """1 to 4 atoms at a + k/d for d <= 5, with a off the step's lattice; one
    law in four has 1 to 3 atoms on no common step at all."""
    k = rng.randint(1, 4)
    if rng.random() < 0.25:
        points = {rat(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(min(k, 3))}
    else:
        a, d = rat(rng.randint(-6, 6), rng.randint(1, 5)), rng.randint(1, 5)
        points = {a + rat(j, d) for j in rng.sample(range(7), k)}
    return Measure(1, list(zip([(x,) for x in points], composition(rng, len(points), 12))))


class TestMinNLattice:
    """1-D ``min_n`` on one int lattice against ``min_n_reference``, the
    ``convolve_power`` plus ``leq_st`` route it replaced."""

    def test_equal_to_the_reference(self):
        rng = random.Random(64)
        outcomes = set()
        for i in range(320):
            X, Y = _lattice_law(rng), _lattice_law(rng)
            cone, n_max = CONES_1D[i % 3], rng.randint(1, 20)
            if rng.random() < 0.4:  # X's atoms moved, mostly up: often dominated from some n on
                d = rng.randint(1, 5) * cone.unit[0]
                Y = Measure(1, [((x + rat(rng.choice((-1, 1, 2, 2)), d),), w) for (x,), w in X.atoms.items()])
            res = min_n(X, Y, cone, n_max)
            assert res == min_n_reference(X, Y, cone, n_max), (X, Y, cone, n_max)
            outcomes.add((i % 3, res.found, bool(res.failures)))
        assert len(outcomes) == 9  # found with and without failures, and not found, on every cone

    def test_atom_cap_raises_at_the_same_n(self):
        def outcomes(run, X, Y, cone, cap) -> list:
            # the result for each n_max up to the first that raises, then its message
            got = []
            for n_max in range(1, 9):
                try:
                    got.append(run(X, Y, cone, n_max, cap))
                except AtomBudgetExceeded as exc:
                    return got + [str(exc)]
            return got

        rng = random.Random(65)
        raised = 0
        for i in range(30):
            case = (_lattice_law(rng), _lattice_law(rng), CONES_1D[i % 3], rng.randint(2, 12))
            got = outcomes(min_n, *case)
            assert got == outcomes(min_n_reference, *case)
            raised += got[-1] == f"convolution support exceeded the atom cap of {case[3]}"
        assert raised >= 10

    def test_no_convolve_power_and_no_fraction_when_dominated(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("1-D min_n must stay on its int lattice")

        monkeypatch.setattr(dominance, "convolve_power", forbidden)
        monkeypatch.setattr(measure, "convolve_power", forbidden)
        X = m1({0: "1/3", "1/2": "2/3"})
        for cone in CONES_1D:
            Y = shift(X, (rat(1, 5) * cone.unit[0],))
            assert min_n(X, Y, cone, n_max=12).failures == []
            assert min_n(Y, X, cone, n_max=3).failures[-1][0] == 3
        # a dominated n decodes nothing
        monkeypatch.setattr(dominance, "rat", forbidden)
        monkeypatch.setattr(stochorder, "rat", forbidden)
        assert min_n(X, shift(X, (1,)), Cone.halfline(), n_max=20).n0 == 1

    def test_cut_is_checked(self, monkeypatch):
        # X puts 1/2 at 3, above all of Y, at every n: a walk that cuts at
        # every atom of X^n names no violating upset, and raises
        X, Y = m1({0: "1/2", 3: "1/2"}), m1({1: "1/2", 2: "1/2"})
        for cone in CONES_1D:
            assert [n for n, _ in min_n(X, Y, cone, n_max=4).failures] == [1, 2, 3, 4]
        monkeypatch.setattr(dominance, "_tail_walk", lambda xs, ys: len(xs))
        for cone in CONES_1D:
            with pytest.raises(RuntimeError, match=r"^cut of the top 2 atoms is not a violating upset$"):
                min_n(X, Y, cone, n_max=4)


def _planar_law(rng: random.Random) -> Measure:
    """1 to 3 atoms on a small grid of (1/2)Z^2 or Z^2."""
    den = rng.choice((1, 2))
    points = {(rat(rng.randint(-2, 2), den), rat(rng.randint(-2, 2), den)) for _ in range(rng.randint(1, 3))}
    return Measure(2, list(zip(points, composition(rng, len(points), 12))))


class TestMinNPlanar:
    """``min_n`` in d >= 2 against ``min_n_reference``, which runs
    ``leq_st`` at every n: for a cone of at most two normals the keyed sweep
    decides each n and the max-flow runs only where it fails."""

    CONES = (
        Cone.orthant(2),
        Cone.from_generators(2, rays=[(1, 0), (1, 1)]),
        Cone.from_generators(2, rays=[(2, -1), (-1, 3)]),
        Cone.from_generators(2, normals=[(1, "1/2")]),
    )

    @staticmethod
    def pair(rng: random.Random, cone: Cone) -> tuple:
        X, Y = _planar_law(rng), _planar_law(rng)
        if rng.random() < 0.5:  # Y is X moved, mostly up: often dominated from some n on
            moves = [rat(rng.choice((-1, 1, 2, 2)), rng.randint(1, 3)) for _ in X.atoms]
            Y = Measure(2, [
                (tuple(c + m * u for c, u in zip(x, cone.unit)), w) for (x, w), m in zip(X.atoms.items(), moves)
            ])
        return X, Y

    def test_equal_to_the_reference(self):
        rng = random.Random(66)
        outcomes = set()
        for i in range(120):
            cone = self.CONES[i % 4]
            X, Y = self.pair(rng, cone)
            n_max = rng.randint(1, 6)
            res = min_n(X, Y, cone, n_max)
            assert res == min_n_reference(X, Y, cone, n_max), (X, Y, cone, n_max)
            outcomes.add((res.found, bool(res.failures)))
        assert outcomes == {(True, False), (True, True), (False, True)}

    def test_atom_cap_raises_at_the_same_n(self):
        def outcome(run, X, Y, cone, n_max, cap):
            try:
                return run(X, Y, cone, n_max, cap)
            except AtomBudgetExceeded as exc:
                return str(exc)

        rng = random.Random(67)
        raised = 0
        for i in range(30):
            cone = self.CONES[i % 4]
            case = (*self.pair(rng, cone), cone, 6, rng.randint(4, 20))
            got = outcome(min_n, *case)
            assert got == outcome(min_n_reference, *case)
            raised += got == f"convolution support exceeded the atom cap of {case[-1]}"
        assert raised >= 10

    def test_flow_runs_only_at_failing_n(self, monkeypatch):
        calls = []

        def counted(mu, nu, cone):
            verdict = leq_st(mu, nu, cone)
            calls.append(verdict.dominated)
            return verdict

        monkeypatch.setattr(dominance, "leq_st", counted)
        rng = random.Random(68)
        failing = 0
        for i in range(40):
            cone = self.CONES[i % 4]
            X, Y = self.pair(rng, cone)
            calls.clear()
            res = min_n(X, Y, cone, n_max=5)
            assert calls == [False] * len(res.failures)
            failing += bool(res.failures)
        assert failing >= 10
        # three normals: the flow decides every n, dominated or not
        cases = (
            (Measure(3, {(0, 0, 0): "1/2", (1, 0, 0): "1/2"}), Cone.orthant(3)),
            # a planar cone with a redundant third normal
            (Measure(2, {(0, 0): "1/2", (1, 0): "1/2"}), Cone(2, [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], (1, 1))),
        )
        for X, cone in cases:
            calls.clear()
            assert min_n(X, shift(X, cone.unit), cone, n_max=4).failures == []
            assert calls == [True] * 4
            calls.clear()
            assert len(min_n(shift(X, cone.unit), X, cone, n_max=4).failures) == 4
            assert calls == [False] * 4

    def test_repeated_normal_direction_keeps_the_sweep(self, monkeypatch):
        # normals (1, 0) and (2, 0) are one facet direction: two integer
        # normals, so the sweep decides each n and the flow runs only where
        # it fails
        calls = []

        def counted(mu, nu, cone):
            verdict = leq_st(mu, nu, cone)
            calls.append(verdict.dominated)
            return verdict

        monkeypatch.setattr(dominance, "leq_st", counted)
        cone = Cone(2, [(1, 0), (0, 1)], [(1, 0), (2, 0), (0, 1)], (1, 1))
        X = Measure(2, {(0, 0): "1/2", (1, 0): "1/2"})
        assert min_n(X, shift(X, cone.unit), cone, n_max=4).failures == []
        assert calls == []
        res = min_n(shift(X, cone.unit), X, cone, n_max=4)
        assert len(res.failures) == 4 and calls == [False] * 4
        assert res == min_n_reference(shift(X, cone.unit), X, cone, 4)

    def test_sweep_coupling_is_checked(self, monkeypatch):
        # a dominated n is reported only after its coupling's pairs pass
        # the public predicate
        monkeypatch.setattr(Cone, "leq_point", lambda self, x, y: False)
        X = Measure(2, {(0, 0): "1/2", (1, 0): "1/2"})
        with pytest.raises(RuntimeError, match="not ordered"):
            min_n(X, shift(X, (1, 1)), Cone.orthant(2), n_max=2)


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
            try:
                grid = default_catalyst_grid(X, Y)
            except ValueError:  # above MAX_CATALYST_GRID
                continue
            if len(grid) > 40:
                continue
            c = catalyst_1d(X, Y, grid)
            if c is not None:
                returned += 1
                assert c.verified
        assert returned > 0

    def test_measures_without_atoms_rejected(self):
        # an empty support used to reach support[-1] in default_catalyst_grid
        empty = Measure(1, {})
        for f in (default_catalyst_grid, lambda X, Y: catalyst_1d(X, Y, [0])):
            with pytest.raises(ValueError, match="^X must be normalized to total mass 1$"):
                f(empty, empty)
            with pytest.raises(ValueError, match="^Y must be normalized to total mass 1$"):
                f(bernoulli("1/2"), empty)

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 2)])
    def test_both_searches_require_1d_walks(self, dims):
        X, Y = (Measure(d, {(0,) * d: 1}) for d in dims)
        for f in (default_catalyst_grid, lambda X, Y: catalyst_1d(X, Y, [0])):
            with pytest.raises(DimensionMismatch, match="^catalyst_1d requires 1-D measures$"):
                f(X, Y)

    def test_default_grid_capped_before_it_is_built(self):
        # the grid spans 4, so step 4/1023 gives 1024 points and 1/256 gives 1025
        X, Y = bernoulli("1/2"), bernoulli("3/4")
        assert len(default_catalyst_grid(X, Y, step=rat(4, 1023))) == MAX_CATALYST_GRID
        with pytest.raises(ValueError, match="catalyst grid has 1025 points, more than 1024"):
            default_catalyst_grid(X, Y, step=rat(1, 256))

    def test_default_grid_uses_lattice_step(self, curated_pair):
        X, Y = curated_pair
        grid = default_catalyst_grid(X, Y)
        assert grid[0] == 0 and grid[1] == rat(1, 10)


def _screen_pair(rng: random.Random, tie: str) -> tuple:
    """A 1-D pair on (1/2)Z.  ``tie`` names what X and Y share: "min",
    "max" or both ("minmax"); "mean" makes Y a mean-preserving spread of X,
    "spread" the reverse; "same" makes them equal; "none" ties nothing on
    purpose."""
    def points(k):
        return [rat(p, 2) for p in rng.sample(range(-2, 9), k)]

    xs = points(rng.randint(1, 3))
    X = Measure(1, list(zip([(x,) for x in xs], composition(rng, len(xs), 12))))
    if tie in ("mean", "spread", "same"):
        atoms = dict(X.atoms)
        if tie != "same":
            (x,), w = rng.choice(sorted(atoms.items()))
            d = rat(rng.randint(1, 3), 2)
            atoms[(x,)] -= w
            for y in (x - d, x + d):
                atoms[(y,)] = atoms.get((y,), 0) + w / 2
        Y = Measure(1, {p: w for p, w in atoms.items() if w})
        return (Y, X) if tie == "spread" else (X, Y)
    ys = points(rng.randint(1, 3))
    lo, _, hi = endpoints(X)
    if tie in ("min", "minmax"):
        ys = [lo] + [y for y in ys if y > lo]
    if tie in ("max", "minmax"):
        ys = [y for y in ys if y < hi] + [hi]
    ys = sorted(set(ys))
    Y = Measure(1, list(zip([(y,) for y in ys], composition(rng, len(ys), 12))))
    return X, Y


def _screen_grid(rng: random.Random) -> list:
    step = rng.choice((rat(1, 2), rat(1, 4), rat(1)))
    grid = [step * k for k in range(rng.randint(1, 9))]
    if len(grid) > 2 and rng.random() < 0.3:  # not arithmetic
        grid = rng.sample(grid, rng.randint(2, len(grid)))
    return grid


class TestEndpointScreen:
    """If X*Z <= Y*Z for some Z, then min X <= min Y, E X <= E Y and
    max X <= max Y; catalyst_1d returns None at once when one fails."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        real = dominance.lp_feasible

        def counted(inst):
            calls.append(inst)
            return real(inst)

        monkeypatch.setattr(dominance, "lp_feasible", counted)
        return calls

    @pytest.mark.parametrize(
        "x_atoms, y_atoms",
        [
            # max X > max Y only
            ({(0,): "3/4", (3,): "1/4"}, {(1,): "1/2", (2,): "1/2"}),
            # min X > min Y only
            ({(1,): 1}, {(0,): "1/4", (3,): "3/4"}),
            # E X > E Y only: the supports share min and max
            ({(0,): "1/4", (2,): "3/4"}, {(0,): "1/2", (2,): "1/2"}),
        ],
        ids=["max", "min", "mean"],
    )
    def test_each_obstruction_alone_skips_the_lp(self, lp_calls, x_atoms, y_atoms):
        X, Y = Measure(1, x_atoms), Measure(1, y_atoms)
        assert sum(a > b for a, b in zip(endpoints(X), endpoints(Y))) == 1
        grid = [rat(k, 4) for k in range(13)]
        assert catalyst_1d(X, Y, grid) is None
        assert lp_calls == []
        assert catalyst_1d_lp_only(X, Y, grid) is None  # the LP agrees

    def test_equal_endpoints_never_screen(self, lp_calls):
        # min, mean and max all tie: the LP decides, and delta_0 is a catalyst
        X = bernoulli("1/2")
        c = catalyst_1d(X, X, [0, 1])
        assert len(lp_calls) == 1
        assert c is not None and c.Z == delta((0,)) and c.verified

    def test_grid_checks_come_before_the_screen(self):
        X, Y = bernoulli("3/4"), bernoulli("1/2")  # screened by the mean
        with pytest.raises(ValueError, match="nonempty"):
            catalyst_1d(X, Y, [])
        with pytest.raises(ValueError, match="more than 1024"):
            catalyst_1d(X, Y, range(MAX_CATALYST_GRID + 1))

    def test_matches_the_lp_only_reference(self):
        rng = random.Random(71)
        ties = ("none", "min", "max", "minmax", "mean", "spread", "same")
        seen = dict.fromkeys(
            ("screened", "found", "lp_none", "tie_min", "tie_mean", "tie_max"), 0
        )
        for i in range(1050):
            X, Y = _screen_pair(rng, ties[i % len(ties)])
            grid = _screen_grid(rng)
            expected = catalyst_1d_lp_only(X, Y, grid)
            assert catalyst_1d(X, Y, grid) == expected
            ex, ey = endpoints(X), endpoints(Y)
            if any(a > b for a, b in zip(ex, ey)):
                seen["screened"] += 1
                assert expected is None
            else:
                seen["found" if expected is not None else "lp_none"] += 1
            for name, a, b in zip(("tie_min", "tie_mean", "tie_max"), ex, ey):
                seen[name] += a == b
        assert min(seen.values()) >= 50, seen


class TestLatticeStep:
    def test_matches_the_rational_gcd_fold(self):
        rng = random.Random(83)
        seen = set()
        for i in range(400):
            dens = rng.choice(((1,), (4,), (1, 2, 3), (6, 10, 15), (7, 9, 35), (2**31 - 1, 12)))
            pool = [rat(rng.randint(-40, 40), rng.choice(dens)) for _ in range(rng.randint(1, 5))]
            values = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
            if i % 2:
                values.sort()
            step = _lattice_step(values)
            assert step == lattice_step_reference(values) and step > 0, values
            assert type(step) is type(rat(1))
            seen.add("single" if len(values) == 1 else "duplicate" if len(set(values)) < len(values)
                     else "distinct")
            if any(v < 0 for v in values):
                seen.add("negative")
            if len({v.denominator for v in values}) > 1:
                seen.add("mixed")
        assert seen == {"single", "duplicate", "distinct", "negative", "mixed"}


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

    def test_pair_checked_before_the_bound(self, halfline, orthant2):
        # every fault is reported by require_walk_pair, not by Cone.bounding_k
        line, plane, half = delta((0,)), Measure(2, {(0, 0): 1}), m1({0: "1/2"})
        cases = [
            ((line, plane, halfline), DimensionMismatch, "measure dimensions differ: 1 vs 2"),
            ((line, plane, orthant2), DimensionMismatch, "cone dimension 2 does not match 1"),
            ((plane, line, halfline), DimensionMismatch, "cone dimension 1 does not match 2"),
            ((plane, line, orthant2), DimensionMismatch, "measure dimensions differ: 2 vs 1"),
            ((half, line, halfline), ValueError, "X must be normalized to total mass 1"),
            ((line, half, halfline), ValueError, "Y must be normalized to total mass 1"),
        ]
        for args, error, message in cases:
            with pytest.raises(error, match=f"^{message}$"):
                growth_exponent(*args)
