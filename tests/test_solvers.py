"""Transportation feasibility and phase-1 simplex back-ends."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from walkorder import Cone, Measure, dominance, leq_st, solvers
from walkorder.dominance import catalyst_1d, default_catalyst_grid
from walkorder.rational import ZERO, as_rat, over_lcm, rat
from walkorder.solvers import (
    LinearFeasibility,
    TransportInstance,
    _eliminate,
    lp_feasible,
    transport_feasible,
)

from conftest import composition, endpoints, random_measure_1d, transport_feasible_reference


def check_plan_conservation(inst: TransportInstance, plan: dict) -> None:
    m, k = len(inst.supplies), len(inst.demands)
    out = [0] * m
    inflow = [0] * k
    for (i, j), f in plan.items():
        assert type(f) is int and f > 0
        assert (i, j) in set(inst.edges)
        out[i] += f
        inflow[j] += f
    assert tuple(out) == inst.supplies
    assert tuple(inflow) == inst.demands


def check_cut_certificate(inst: TransportInstance, cut: frozenset) -> None:
    neighborhood = {j for i, j in inst.edges if i in cut}
    supply = sum(inst.supplies[i] for i in cut)
    demand = sum(inst.demands[j] for j in neighborhood)
    assert supply > demand


def int_composition(rng: random.Random, n: int, total: int) -> list[int]:
    """n nonnegative ints summing to total."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


class TestTransport:
    def test_single_edge(self):
        inst = TransportInstance([1], [1], [(0, 0)])
        res = transport_feasible(inst)
        assert res.feasible and res.plan == {(0, 0): 1}

    def test_crossing_pair(self):
        inst = TransportInstance([1, 1], [1, 1], [(0, 1), (1, 0)])
        res = transport_feasible(inst)
        assert res.feasible
        assert res.plan == {(0, 1): 1, (1, 0): 1}

    def test_hall_violation(self):
        inst = TransportInstance([2], [1, 1], [(0, 0)])
        res = transport_feasible(inst)
        assert not res.feasible and res.cut == frozenset({0})
        check_cut_certificate(inst, res.cut)

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError, match="total supply must equal total demand"):
            TransportInstance([2], [1], [(0, 0)])

    def test_random_instances_certified(self):
        rng = random.Random(31)
        feasible_seen = infeasible_seen = 0
        for _ in range(60):
            m = rng.randint(1, 5)
            k = rng.randint(1, 5)
            D = rng.randint(max(m, k), 24)
            supplies = int_composition(rng, m, D)
            demands = int_composition(rng, k, D)
            edges = [
                (i, j) for i in range(m) for j in range(k) if rng.random() < 0.55
            ]
            inst = TransportInstance(supplies, demands, edges)
            res = transport_feasible(inst)
            if res.feasible:
                feasible_seen += 1
                check_plan_conservation(inst, res.plan)
            else:
                infeasible_seen += 1
                check_cut_certificate(inst, res.cut)
        assert feasible_seen and infeasible_seen


# primes near 2^20 and 2^31: four of them put D above 2^64
PRIMES = (2, 3, 5, 7, 1000003, 1000033, 1000037, 1000039, 2147483647, 2147483629)


def _random_transport(rng: random.Random) -> tuple[int, TransportInstance]:
    """``(D, inst)``: up to 12 supplies and 12 demands with zeros, the
    rationals of prime denominators that they stand for scaled to ints over
    D, the lcm of those denominators, as ``stochorder._leq_flow`` scales them.

    Raw vectors a and b give supplies a * sum(b) and demands b * sum(a), so
    the totals agree.  Edges are drawn at a random density, sometimes none,
    in a shuffled order with repeats.
    """
    def raw(n):
        return [
            ZERO if rng.random() < 0.2 else rat(rng.randint(1, 60), rng.choice(PRIMES))
            for _ in range(n)
        ]

    a = raw(rng.randint(1, 12))
    b = raw(rng.randint(1, 12))
    density = rng.choice((0.0, 0.1, 0.25, 0.5, 1.0))
    edges = [(i, j) for i in range(len(a)) for j in range(len(b)) if rng.random() < density]
    edges += rng.sample(edges, min(len(edges), rng.randint(0, 4)))
    rng.shuffle(edges)
    den, ints = over_lcm([x * sum(b) for x in a] + [y * sum(a) for y in b])
    return den, TransportInstance(ints[: len(a)], ints[len(a) :], edges)


def _over(inst: TransportInstance, den: int) -> SimpleNamespace:
    """The instance's supplies and demands as the ``Fraction``s ``v / den``,
    in a plain record for ``transport_feasible_reference``."""
    return SimpleNamespace(
        supplies=[rat(v, den) for v in inst.supplies],
        demands=[rat(v, den) for v in inst.demands],
        edges=inst.edges,
    )


class TestIntFlow:
    """The int max-flow against the ``Fraction`` one it replaced."""

    def test_certificates_equal_fraction_reference(self):
        rng = random.Random(47)
        seen = {"feasible": 0, "infeasible": 0, "wide": 0, "repeats": 0, "zeros": 0,
                "no-edges": 0}
        for _ in range(400):
            _, inst = _random_transport(rng)
            got = transport_feasible(inst)
            expected = transport_feasible_reference(_over(inst, 1))
            assert (got.feasible, got.plan, got.cut) == (
                expected.feasible, expected.plan, expected.cut
            )
            assert got.plan is None or all(type(f) is int for f in got.plan.values())
            seen["feasible" if got.feasible else "infeasible"] += 1
            seen["wide"] += max(inst.supplies + inst.demands) > 2**64
            seen["repeats"] += len(set(inst.edges)) < len(inst.edges)
            seen["zeros"] += 0 in inst.supplies + inst.demands
            seen["no-edges"] += not inst.edges
        assert all(count >= 20 for count in seen.values()), seen

    def test_int_supplies_over_d(self):
        # the ints over D, as stochorder._leq_flow builds them, against the
        # Fraction max-flow on the rationals they stand for: the same plan
        # over D, the same cut
        rng = random.Random(48)
        seen = {"feasible": 0, "infeasible": 0, "wide": 0}
        for _ in range(300):
            den, inst = _random_transport(rng)
            got, expected = transport_feasible(inst), transport_feasible_reference(_over(inst, den))
            assert (got.feasible, got.cut) == (expected.feasible, expected.cut)
            if got.feasible:
                assert list({e: rat(f, den) for e, f in got.plan.items()}.items()) == list(
                    expected.plan.items()
                )
            seen["feasible" if got.feasible else "infeasible"] += 1
            seen["wide"] += den > 2**64
        assert min(seen.values()) >= 30, seen

    def test_carried_flow_cancelled_and_raised_again(self, monkeypatch):
        # Edges out of supply order, so radj[0] = [2, 0, 1], and (0, 2) twice.
        # The warm start leaves supplies s1 and s3 unmatched.  The first path,
        # s1 -> d0 <- s2 -> d4, cancels the warm flow on (2, 0) to 0: from d0
        # the search reaches s2 before s0, in radj order, not index order.
        # The second, s3 -> d3 <- s2 -> d0 <- s0 -> d2, raises (2, 0) again,
        # so its position 0 is inserted into d0's carried list twice.
        inst = TransportInstance(
            [2, 3, 3, 1],
            [2, 2, 2, 2, 1],
            [(2, 3), (2, 0), (0, 0), (0, 2), (1, 1), (2, 1), (0, 2), (1, 0), (3, 3), (2, 4)],
        )
        inserted = []
        insort = solvers.insort
        monkeypatch.setattr(solvers, "insort", lambda a, x: inserted.append((id(a), x)) or insort(a, x))
        got, expected = transport_feasible(inst), transport_feasible_reference(inst)
        assert (got.feasible, list(got.plan.items()), got.cut) == (
            expected.feasible, list(expected.plan.items()), expected.cut
        )
        assert got.plan == {(2, 3): 1, (2, 0): 1, (0, 2): 2, (1, 1): 2, (1, 0): 1, (2, 4): 1, (3, 3): 1}
        # nine insertions: seven plan entries, (2, 0) once more, and (0, 0),
        # which the second path cancels for good
        assert len(inserted) == 9 and len(set(inserted)) == 8

    def test_plan_entries_are_ints(self):
        # 1/3, 2/3 against 1/2, 1/2 over D = 6
        inst = TransportInstance([2, 4], [3, 3], [(0, 0), (1, 0), (1, 1)])
        res = transport_feasible(inst)
        assert res.plan == {(0, 0): 2, (1, 0): 1, (1, 1): 3}
        assert all(type(f) is int for f in res.plan.values())

    def test_all_zero_instance(self):
        res = transport_feasible(TransportInstance([0, 0], [0], []))
        assert res.feasible and res.plan == {}


class TestTransportChecks:
    @pytest.mark.parametrize("edge", [(0.9, 0), ("0", 0), (0, 1.0), (None, 0)])
    def test_build_rejects_non_integer_indices(self, edge):
        with pytest.raises(TypeError):
            TransportInstance([1], [1], [edge])

    def test_build_takes_integer_like_indices(self):
        import numpy as np

        inst = TransportInstance([1], [1], [(np.int64(0), 0)])
        assert inst.edges == ((0, 0),) and all(type(i) is int for i in inst.edges[0])

    def test_build_takes_integer_like_values(self):
        import numpy as np

        inst = TransportInstance([np.int64(2**62), True], [2**62 + 1], [(0, 0), (1, 0)])
        assert inst.supplies == (2**62, 1) and all(type(v) is int for v in inst.supplies)
        assert transport_feasible(inst).plan == {(0, 0): 2**62, (1, 0): 1}

    @pytest.mark.parametrize(
        "supplies, demands, edges",
        [
            ((1,), (1,), ((0.5, 0),)),
            ((1.0,), (1,), ((0, 0),)),
            ((1,), (0.5, 0.5), ((0, 0), (0, 1))),
        ],
        ids=["float-edge", "float-supply", "float-demand"],
    )
    def test_constructor_rejects_inexact_input(self, supplies, demands, edges):
        with pytest.raises(TypeError):
            TransportInstance(supplies, demands, edges)

    @pytest.mark.parametrize("supply", [rat(1), "1", 1.0], ids=["fraction", "string", "float"])
    def test_constructor_rejects_non_int_values(self, supply):
        with pytest.raises(TypeError):
            TransportInstance([supply], [1], [(0, 0)])
        with pytest.raises(TypeError):
            TransportInstance([1], [supply], [(0, 0)])

    @pytest.mark.parametrize(
        "supplies, demands, edges, message",
        [
            ([-1, 2], [1], [(1, 0)], "must be nonnegative"),
            ([1], [2, -1], [(0, 0)], "must be nonnegative"),
            ([1, 1], [1], [(0, 0)], "total supply must equal total demand"),
            ([1], [1], [(-1, 0)], r"edge \(-1, 0\) out of range"),
            ([1], [1], [(0, 0), (1, 0)], r"edge \(1, 0\) out of range"),
        ],
        ids=["negative-supply", "negative-demand", "unequal-totals", "negative-index", "past-the-end"],
    )
    def test_constructor_rejects_invalid_values(self, supplies, demands, edges, message):
        with pytest.raises(ValueError, match=message):
            TransportInstance(supplies, demands, edges)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) out of range"):
            TransportInstance([1], [1], [(0, 1)])

    # supplies 1, 2 and demands 2, 1 on edges (0, 0), (1, 0), (1, 1)
    INST = TransportInstance([1, 2], [2, 1], [(0, 0), (1, 0), (1, 1)])

    def test_valid_plan_passes(self):
        plan = {(0, 0): 1, (1, 0): 1, (1, 1): 1}
        solvers._check_certificate(self.INST, plan, None)

    @pytest.mark.parametrize(
        "plan, message",
        [
            ({(0, 0): 1, (1, 0): 0, (1, 1): 1}, r"flow 0 on edge \(1, 0\)"),
            ({(0, 0): 1, (1, 0): -1, (1, 1): 1}, r"flow -1 on edge \(1, 0\)"),
            ({(0, 1): 1, (1, 0): 2}, r"flow 1 on edge \(0, 1\)"),  # meets every total
            ({(0, 0): 1, (1, 0): 1}, "misses a supply or a demand"),
            ({(0, 0): 1, (1, 0): 2, (1, 1): 1}, "misses a supply or a demand"),
        ],
        ids=["zero", "negative", "off-edge", "short", "over"],
    )
    def test_bad_plan_raises(self, plan, message):
        with pytest.raises(RuntimeError, match=message):
            solvers._check_certificate(self.INST, plan, None)

    def test_deficient_cut_passes(self):
        inst = TransportInstance([2], [1, 1], [(0, 0)])
        solvers._check_certificate(inst, None, frozenset({0}))

    @pytest.mark.parametrize("cut", [frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset()])
    def test_absorbed_cut_raises(self, cut):
        with pytest.raises(RuntimeError, match="max-flow returned a cut"):
            solvers._check_certificate(self.INST, None, cut)

    def test_transport_feasible_checks_what_it_returns(self, monkeypatch):
        checked = []
        monkeypatch.setattr(solvers, "_check_certificate", lambda *args: checked.append(args[1:]))
        transport_feasible(self.INST)
        transport_feasible(TransportInstance([2], [1, 1], [(0, 0)]))
        assert checked == [({(0, 0): 1, (1, 0): 1, (1, 1): 1}, None), (None, frozenset({0}))]


class TestLpFeasible:
    def test_simplex_point(self):
        inst = LinearFeasibility(2, eq_rows=[({0: 1, 1: 1}, 1)])
        x = lp_feasible(inst)
        assert x is not None and sum(x) == 1 and all(v >= 0 for v in x)

    def test_contradictory_rows(self):
        # x0 + x1 <= 1/2, times 2, and x0 + x1 = 1
        inst = LinearFeasibility(
            2, ineq_rows=[({0: 2, 1: 2}, 1)], eq_rows=[({0: 1, 1: 1}, 1)]
        )
        assert lp_feasible(inst) is None

    def test_five_var_instance_substitution(self):
        # catalyst-shaped instance: weights on a 5-point grid, tail margins
        # in quarters, each row times 4
        rows = [
            ({0: 2, 1: -1, 3: 1, 4: -2}, 0),
            ({0: 1, 1: 1, 2: -2}, 0),
            ({1: -1, 2: 1, 3: -1, 4: 1}, 0),
        ]
        inst = LinearFeasibility(
            5, ineq_rows=rows, eq_rows=[(dict.fromkeys(range(5), 1), 1)]
        )
        x = lp_feasible(inst)
        assert x is not None
        assert sum(x) == 1
        for coeffs, rhs in inst.ineq_rows:
            assert sum(c * x[j] for j, c in coeffs.items()) <= rhs

    def test_negative_rhs_handled(self):
        # x1 - x2 <= -1 forces x2 >= 1
        inst = LinearFeasibility(2, ineq_rows=[({0: 1, 1: -1}, -1)])
        x = lp_feasible(inst)
        assert x is not None and x[1] - x[0] >= 1

    @pytest.mark.parametrize("column", [-1, 2])
    def test_mapped_row_columns_checked(self, column):
        with pytest.raises(ValueError, match=f"column {column} out of range for 2 variables"):
            LinearFeasibility(2, [({column: 1}, 0)])

    def test_mapped_row_rejects_inexact_input(self):
        with pytest.raises(TypeError):
            LinearFeasibility(2, [({0.5: 1}, 0)])
        with pytest.raises(TypeError):
            LinearFeasibility(2, [({0: 0.5}, 0)])

    @pytest.mark.parametrize("value", [rat(1), "1", 1.0], ids=["fraction", "string", "float"])
    def test_constructor_rejects_non_int_values(self, value):
        for ineq_rows in [({0: value}, 0)], [({0: 1}, value)], [({value: 1}, 0)]:
            with pytest.raises(TypeError):
                LinearFeasibility(2, ineq_rows)
        with pytest.raises(TypeError):
            LinearFeasibility(2, eq_rows=[({0: 1}, value)])

    @pytest.mark.parametrize(
        "ineq_rows, eq_rows",
        [([((1, 1), 1)], ()), ((), [([1, 1], 1)])],
        ids=["ineq", "eq"],
    )
    def test_constructor_rejects_dense_rows(self, ineq_rows, eq_rows):
        with pytest.raises(TypeError, match="must map columns to ints"):
            LinearFeasibility(2, ineq_rows, eq_rows)

    def test_zero_coefficients_not_stored(self):
        inst = LinearFeasibility(4, [({3: -3, 1: 2, 2: 0}, 1), ({0: 0}, 0)], [({}, 0)])
        assert inst.ineq_rows == (({3: -3, 1: 2}, 1), ({}, 0))
        assert inst.eq_rows == (({}, 0),)
        assert lp_feasible(inst) == _lp_feasible_reference(inst) == [ZERO] * 4

    def test_numpy_integers_stored_as_ints(self):
        import numpy as np

        # x0 - x1 <= -1 times 2^62, where int64 products would wrap
        big = np.int64(2**62)
        inst = LinearFeasibility(np.int64(2), [({0: big, np.int64(1): -big}, -big)])
        assert inst == LinearFeasibility(2, [({0: 2**62, 1: -(2**62)}, -(2**62))])
        (coeffs, rhs), = inst.ineq_rows
        assert all(type(v) is int for v in (inst.num_vars, *coeffs, *coeffs.values(), rhs))
        assert lp_feasible(inst) == [ZERO, rat(1)]

    # x0 + 2 x2 <= 1 and x0 + x1 + x2 = 1
    CHECKED = LinearFeasibility(3, [({0: 1, 2: 2}, 1)], [({0: 1, 1: 1, 2: 1}, 1)])

    @pytest.mark.parametrize(
        "x, message",
        [
            ([rat(-1), rat(1), rat(1)], "negative component"),
            ([ZERO, rat(1, 4), rat(3, 4)], "inequality row"),
            ([ZERO, rat(1, 2), ZERO], "equality row"),
        ],
        ids=["negative", "inequality", "equality"],
    )
    def test_bad_point_raises(self, x, message):
        with pytest.raises(RuntimeError, match=message):
            solvers._check_solution(self.CHECKED, x)

    def test_lp_feasible_checks_what_it_returns(self, monkeypatch):
        checked = []
        monkeypatch.setattr(solvers, "_check_solution", lambda inst, x: checked.append((inst, x)))
        x = lp_feasible(self.CHECKED)
        assert checked == [(self.CHECKED, x)]

    def test_infeasible_negative_rhs(self):
        inst = LinearFeasibility(1, ineq_rows=[({0: 1}, -1)])
        assert lp_feasible(inst) is None


def _dense(coeffs, n: int) -> list:
    """A sparse row as its ``n`` dense coefficients, as ``Fraction``s."""
    return [as_rat(coeffs.get(j, 0)) for j in range(n)]


def _lp_feasible_reference(inst, ties: list | None = None):
    """The phase-1 simplex on a dense ``Fraction`` tableau, kept as the
    reference.  ``inst`` is a ``LinearFeasibility`` or any record with its
    three fields whose rows map columns to exact rationals.

    Same pivots as ``lp_feasible``: Bland's entering column, least ratio,
    ties to the smaller basic column.  ``ties`` collects one entry per ratio
    tie, True when the tie moved the leaving row.
    """
    n = inst.num_vars
    n_ineq = len(inst.ineq_rows)
    rows = []
    for idx, (coeffs, rhs) in enumerate(inst.ineq_rows):
        coeffs, rhs = _dense(coeffs, n), as_rat(rhs)
        if rhs >= 0:
            rows.append((coeffs, idx, as_rat(1), rhs))
        else:
            rows.append((tuple(-c for c in coeffs), idx, as_rat(-1), -rhs))
    for coeffs, rhs in inst.eq_rows:
        coeffs, rhs = _dense(coeffs, n), as_rat(rhs)
        if rhs >= 0:
            rows.append((coeffs, None, None, rhs))
        else:
            rows.append((tuple(-c for c in coeffs), None, None, -rhs))

    tableau: list[list] = []
    basis: list[int] = []
    art_rows: list[int] = []
    num_art = 0
    for coeffs, slack_idx, slack_coeff, rhs in rows:
        row = list(coeffs) + [ZERO] * n_ineq
        if slack_idx is not None:
            row[n + slack_idx] = slack_coeff
        tableau.append([*row, rhs])
        if slack_idx is not None and slack_coeff > 0:
            basis.append(n + slack_idx)
        else:
            basis.append(-1)
            art_rows.append(len(tableau) - 1)
            num_art += 1
    total_cols = n + n_ineq + num_art
    for r, row in enumerate(tableau):
        rhs = row.pop()
        row.extend([ZERO] * num_art)
        row.append(rhs)
        if r in art_rows:
            a = n + n_ineq + art_rows.index(r)
            row[a] = as_rat(1)
            basis[r] = a

    obj = [ZERO] * (total_cols + 1)
    for a in range(num_art):
        obj[n + n_ineq + a] = as_rat(1)
    for r, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            obj = [o - f * t for o, t in zip(obj, tableau[r])]

    def pivot(row_idx: int, col: int) -> None:
        nonlocal obj
        prow = tableau[row_idx]
        p = prow[col]
        tableau[row_idx] = [c / p for c in prow]
        prow = tableau[row_idx]
        for r in range(len(tableau)):
            if r != row_idx and tableau[r][col] != 0:
                f = tableau[r][col]
                tableau[r] = [a - f * b for a, b in zip(tableau[r], prow)]
        if obj[col] != 0:
            f = obj[col]
            obj = [a - f * b for a, b in zip(obj, prow)]
        basis[row_idx] = col

    while True:
        entering = next((j for j in range(total_cols) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(len(tableau)):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if ties is not None and ratio == best:
                    ties.append(basis[r] < basis[leaving])
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        pivot(leaving, entering)

    if -obj[-1] > 0:
        return None
    x = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][-1]
    return x


def _random_lp(rng: random.Random) -> tuple:
    """``(rational, inst)``: a small LP with integer or rational entries,
    often degenerate, as a record of ``{column: value}`` rows for
    ``_lp_feasible_reference``, and as a ``LinearFeasibility``.

    Zero right-hand sides and repeated rows make ratio ties; negative
    right-hand sides and equality rows start on artificials.  An inequality
    row with rhs >= 0, which starts on its slack, is passed as its rational
    row times a random positive multiple of the row's lcm, and the point
    must not change.  A row that starts on an artificial is the same in
    both, its ints over its lcm: a factor on such a row weighs its
    artificial in the phase-1 objective.  The LPs are drawn from ``rng``
    alone, and the multiples from a second generator seeded from its state.
    """
    n = rng.randint(1, 6)
    den = rng.choice((1, 1, 2, 3, 4, 6))

    def coeff():
        return rat(rng.randint(-4, 4), rng.randint(1, den))

    def rhs():
        return rat(rng.choice((0, 0, rng.randint(-3, 3), rng.randint(1, 5))), rng.randint(1, den))

    ineq = [([coeff() for _ in range(n)], rhs()) for _ in range(rng.randint(0, 6))]
    eq = [([coeff() for _ in range(n)], rhs()) for _ in range(rng.randint(0, 3))]
    if ineq and rng.random() < 0.4:
        ineq.append(rng.choice(ineq))
    if rng.random() < 0.5:  # a simplex constraint, as in the catalyst LP
        eq.append(([rat(1)] * n, rat(1)))
    multiples = random.Random(hash(rng.getstate()))

    def pairs(rows, on_slack):
        """``(rational row, int row)`` for each row."""
        out = []
        for coeffs, b in rows:
            _, (b_int, *ints) = over_lcm([b, *coeffs])
            if on_slack(b):
                m = multiples.randint(1, 6)
                rational = (dict(enumerate(coeffs)), b)
                ints, b_int = [m * c for c in ints], m * b_int
            else:
                rational = (dict(enumerate(ints)), b_int)
            out.append((rational, (dict(enumerate(ints)), b_int)))
        return out

    ineq, eq = pairs(ineq, lambda b: b >= 0), pairs(eq, lambda b: False)
    rational = SimpleNamespace(
        num_vars=n, ineq_rows=[r for r, _ in ineq], eq_rows=[r for r, _ in eq]
    )
    return rational, LinearFeasibility(n, [i for _, i in ineq], [i for _, i in eq])


def _lattice_pair(rng: random.Random, kind: str) -> tuple:
    """X and Y on the lattice a + h*{0, 1, 2, 3}, shaped like the catalyst
    benchmark's pairs: "ordered" has X <= Y, so delta_0 is a catalyst;
    "open" has E X < E Y and max X < max Y = a + 3h, but X is not below Y.
    Returns (X, Y, h)."""
    a = rat(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    h = rng.choice((rat(1), rat(1, 2), rat(1, 3), rat(2, 5)))

    def measure(ks, ws):
        return Measure(1, [((a + h * k,), w) for k, w in zip(ks, ws)])

    while True:
        if kind == "ordered":
            kx = [0, 1, 2]
            ky = [k + rng.randint(0, 1) for k in kx[:-1]] + [3]
            wx = wy = composition(rng, 3, 11)
        else:
            kx = [0, rng.randint(1, 2)]
            ky = [rng.randint(0, 2), 3]
            wx, wy = composition(rng, 2, 11), composition(rng, 2, 11)
        X, Y = measure(kx, wx), measure(ky, wy)
        if kind == "ordered" or (
            endpoints(X)[1] < endpoints(Y)[1] and not leq_st(X, Y, Cone.halfline()).dominated
        ):
            return X, Y, h


class TestIntTableau:
    def test_matches_fraction_reference_on_random_lps(self):
        rng = random.Random(41)
        feasible = infeasible = 0
        ties: list = []
        for _ in range(600):
            rational, inst = _random_lp(rng)
            expected = _lp_feasible_reference(rational, ties)
            assert lp_feasible(inst) == expected
            if expected is None:
                infeasible += 1
            else:
                feasible += 1
        assert feasible > 100 and infeasible > 100
        assert any(ties) and not all(ties)  # ties both kept and moved the row

    def test_matches_reference_on_catalyst_lps(self, monkeypatch, curated_pair):
        seen = []

        def both(inst):
            x = lp_feasible(inst)
            assert x == _lp_feasible_reference(inst)
            seen.append((inst.num_vars, x is not None))
            return x

        monkeypatch.setattr(dominance, "lp_feasible", both)
        X, Y = curated_pair
        catalyst_1d(X, Y, default_catalyst_grid(X, Y))
        rng = random.Random(42)
        while len(seen) < 12:
            X = random_measure_1d(rng, max_atoms=3, max_den=6, span=4).normalized()
            Y = random_measure_1d(rng, max_atoms=3, max_den=6, span=4).normalized()
            grid = default_catalyst_grid(X, Y)
            if len(grid) <= 40:
                catalyst_1d(X, Y, grid)
        # grids of 37 to 121 points, as in the catalyst benchmark
        seen.clear()
        for kind, q in [("ordered", 3), ("ordered", 10), ("open", 3), ("open", 10),
                        ("open", 3), ("open", 4)]:
            X, Y, h = _lattice_pair(rng, kind)
            catalyst_1d(X, Y, default_catalyst_grid(X, Y, step=h / q))
        assert min(n for n, _ in seen) == 37 and max(n for n, _ in seen) == 121
        assert any(found for _, found in seen) and not all(found for _, found in seen)

    def test_ratio_ties_go_to_the_smaller_basic_column(self):
        # degenerate rows tie in the ratio test; keeping the first tied row
        # instead returns (1/5, 0, 4/5, 0, 0).  Each rational row is given
        # times the lcm of its denominators: 4, 2, 4 and 12
        inst = LinearFeasibility(
            5,
            [
                ({0: 3, 1: -4, 2: -8, 4: 4}, 0),
                ({0: 1, 1: -4, 2: -2, 4: -8}, 0),
                ({0: -6, 1: 1, 2: -4, 3: 2, 4: -16}, 0),
            ],
            [({0: 12, 1: 16, 2: -3, 3: 36, 4: -12}, 0), (dict.fromkeys(range(5), 1), 1)],
        )
        expected = [rat(12, 31), ZERO, rat(28, 93), ZERO, rat(29, 93)]
        assert _lp_feasible_reference(inst) == expected
        assert lp_feasible(inst) == expected

    def test_eliminated_rows_are_primitive(self):
        # without the gcd step entries double in length at every pivot; rows
        # are sparse, and lp_feasible eliminates only rows with an entry in col
        def sparse(dense):
            return {j: a for j, a in enumerate(dense) if a}

        rng = random.Random(44)
        for _ in range(200):
            k = rng.randint(2, 8)
            row = [rng.randint(-6, 6) * 12 for _ in range(k)]
            prow = [rng.randint(-6, 6) * 6 for _ in range(k)]
            col = rng.randrange(k)
            p = prow[col] = 6 * rng.randint(1, 6)
            row[col] = 12 * rng.choice((-1, 1)) * rng.randint(1, 6)
            out = _eliminate(sparse(row), sparse(prow), p, col)
            exact = [p * a - row[col] * b for a, b in zip(row, prow)]
            assert col not in out and all(out.values())
            assert any(exact) or not out
            if any(exact):
                g = math.gcd(*exact)
                assert out == {j: a // g for j, a in enumerate(exact) if a}
                assert math.gcd(*out.values()) == 1

    def test_feasibility_agrees_with_linprog(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(43)
        for _ in range(200):
            _, inst = _random_lp(rng)
            n = inst.num_vars
            ub = [[float(c) for c in _dense(coeffs, n)] for coeffs, _ in inst.ineq_rows] or None
            eq = [[float(c) for c in _dense(coeffs, n)] for coeffs, _ in inst.eq_rows] or None
            res = linprog(
                [0.0] * n,
                A_ub=ub, b_ub=[float(b) for _, b in inst.ineq_rows] or None,
                A_eq=eq, b_eq=[float(b) for _, b in inst.eq_rows] or None,
                bounds=[(0, None)] * n, method="highs",
            )
            assert res.status in (0, 2)
            assert (lp_feasible(inst) is not None) == (res.status == 0)


class TestCrossOracle:
    def test_transport_agrees_with_lp_encoding(self):
        # encode each transportation instance as an LP over edge flows
        rng = random.Random(32)
        for _ in range(30):
            m = rng.randint(1, 4)
            k = rng.randint(1, 4)
            D = rng.randint(max(m, k), 12)
            supplies = int_composition(rng, m, D)
            demands = int_composition(rng, k, D)
            edges = sorted(
                {(rng.randrange(m), rng.randrange(k)) for _ in range(rng.randint(0, 8))}
            )
            inst = TransportInstance(supplies, demands, edges)
            flow_res = transport_feasible(inst)

            eq_rows = []
            for i in range(m):
                row = {c: 1 for c, e in enumerate(edges) if e[0] == i}
                eq_rows.append((row, supplies[i]))
            for j in range(k):
                row = {c: 1 for c, e in enumerate(edges) if e[1] == j}
                eq_rows.append((row, demands[j]))
            lp_res = lp_feasible(LinearFeasibility(len(edges), eq_rows=eq_rows))
            assert flow_res.feasible == (lp_res is not None)
