"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import json
import math
import random
import time
from math import comb

import numpy as np

from walkorder import (
    Cone,
    Measure,
    catalyst_1d,
    convolve_power,
    cramer_empirical,
    growth_exponent,
    leq_st,
    min_n,
    project,
    rate_function,
    relative_rate_lhs,
    relative_rate_rhs,
    shift,
    spectral_verdict,
)
from walkorder.cli import main
from walkorder.rational import log_rat, rat
from walkorder.spectrum import SpectrumOptions, VIOLATED, _Projected
from walkorder.stochorder import _leq_flow

from conftest import bernoulli, random_measure_1d

HALF = Cone.halfline()
ORTHANT = Cone.orthant(2)
LN32 = math.log(3) - math.log(2)
RATE_34 = math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)

CURATED_X = Measure(1, {("2/5",): "1/10", ("3/5",): "9/10"})
CURATED_Y = Measure(1, {("1/2",): "1/2", ("4/5",): "1/2"})


def certificate(v) -> tuple:
    plan = None if v.witness_coupling is None else list(v.witness_coupling.entries.items())
    return v.dominated, v.witness_upset, plan


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_order_decider_oracle_equivalence():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    agreements = 0
    for _ in range(200):
        mu = random_measure_1d(rng)
        nu = random_measure_1d(rng)
        fast = leq_st(mu, nu, HALF)
        flow = _leq_flow(mu, nu, HALF)
        if certificate(fast) == certificate(flow):
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == 200 and elapsed < 5.0
    report(1, ok, f"{agreements}/200 agreements in {elapsed:.2f}s (< 5s)")
    assert agreements == 200
    assert elapsed < 5.0


def test_criterion_2_forward_necessity():
    rng = random.Random(1002)
    confirmed = 0
    bad = 0
    attempts = 0
    while confirmed < 100 and attempts < 3000:
        attempts += 1
        X = random_measure_1d(rng, max_atoms=4, span=6).normalized()
        if rng.random() < 0.5:
            Y = shift(X, (rat(rng.randint(0, 3), rng.randint(1, 4)),))
        else:
            Y = random_measure_1d(rng, max_atoms=4, span=6).normalized()
        if not any(
            leq_st(convolve_power(X, n), convolve_power(Y, n), HALF).dominated
            for n in range(1, 5)
        ):
            continue
        confirmed += 1
        rep = spectral_verdict(X, Y, HALF)
        if rep.verdict == VIOLATED and any(
            rc.min_margin < -1e-9 for rc in rep.per_ray
        ):
            bad += 1
    ok = confirmed == 100 and bad == 0
    report(2, ok, f"{confirmed} oracle-confirmed pairs, {bad} violations beyond -1e-9")
    assert confirmed == 100
    assert bad == 0


def test_criterion_3_converse_at_desk_scale():
    # strict spectral dominance confirmed by a dense 100000-point sweep
    px = _Projected.of(CURATED_X, (rat(1),))
    py = _Projected.of(CURATED_Y, (rat(1),))
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 100002)[1:-1]
    rs = np.tan(thetas)
    sweep_min = float((py.lev_curve(rs) - px.lev_curve(rs)).min())
    endpoints_pos = py.min > px.min and py.mean > px.mean and py.max > px.max
    strict = sweep_min > 0 and endpoints_pos

    t0 = time.perf_counter()
    res = min_n(CURATED_X, CURATED_Y, HALF, n_max=64)
    elapsed = time.perf_counter() - t0
    stable = res.found and all(n < res.n0 for n, _ in res.failures)
    ok = strict and res.found and res.n0 >= 2 and stable and elapsed < 10.0
    report(
        3,
        ok,
        f"sweep min margin {sweep_min:.4f} > 0, n0 = {res.n0}, "
        f"stable through 64, {elapsed:.2f}s (< 10s)",
    )
    assert strict
    assert res.found and res.n0 >= 2
    assert stable
    assert elapsed < 10.0


def test_criterion_4_bernoulli_cramer():
    rate = rate_function(bernoulli("1/2"), ("3/4",), HALF).value
    rate_ok = abs(rate - RATE_34) <= 1e-6

    emp = cramer_empirical(bernoulli("1/2"), ("3/4",), HALF, 1024)
    # exact binomial tail, computed independently
    tail = sum(rat(comb(1024, k)) for k in range(768, 1025)) / rat(2) ** 1024
    exact_ok = emp == (log_rat(tail) / 1024)
    emp_ok = abs(emp + 0.130812) <= 0.02
    ok = rate_ok and emp_ok and exact_ok
    report(
        4,
        ok,
        f"rate {rate:.9f} (|err| <= 1e-6), empirical {emp:.6f} within 0.02, exact tails",
    )
    assert rate_ok
    assert exact_ok
    assert emp_ok


def _binary_kl(c: float, p: float) -> float:
    """KL(Bern(c) || Bern(p)): the Cramér rate of a Bern(p) walk at c."""
    out = 0.0
    if c > 0:
        out += c * math.log(c / p)
    if c < 1:
        out += (1 - c) * math.log((1 - c) / (1 - p))
    return out


def _fixed_eps_limit(eps: float) -> float:
    """L(eps) = sup_c [I_Y(c - eps) - I_X(c)] for X = Bern(3/4), Y = Bern(1/2), eps <= 1/4.

    Only c in [3/4, 1] counts: below 3/4 the numerator tail does not decay
    while the denominator rate grows with c, and above 1 the numerator tail
    is empty.  On [3/4, 1] the derivative vanishes only at the larger root c*
    of 2c^2 - 2(1+eps)c + 3eps = 0, so the supremum sits at c*, 3/4 or 1.
    """
    c_star = ((1 + eps) + math.sqrt((1 + eps) ** 2 - 6 * eps)) / 2
    return max(_binary_kl(c - eps, 0.5) - _binary_kl(c, 0.75) for c in (c_star, 0.75, 1.0))


def _relative_lhs_oracle(n: int, eps_den: int) -> float:
    """Exact finite-n side for Bern(3/4) against Bern(1/2) shifted by 1/eps_den.

    The numerator's closed tail changes only at its atoms k/n and the shifted
    denominator's tail is nonincreasing, so the supremum over thresholds is
    reached at some c = k/n, where the denominator counts S_Y >= k - floor(n/eps_den).
    """
    extra = n // eps_den
    best = -math.inf
    for k in range(n + 1):
        num = sum(comb(n, j) * 3**j for j in range(k, n + 1))  # 4^n P(S_X >= k)
        den = sum(comb(n, j) for j in range(max(k - extra, 0), n + 1))  # 2^n P(S_Y >= k - extra)
        best = max(best, (math.log(num) - math.log(den)) / n - math.log(2))
    return best


def test_criterion_5_relative_rate():
    X, Y = bernoulli("3/4"), bernoulli("1/2")
    rhs = relative_rate_rhs(X, Y, HALF).value
    rhs_ok = abs(rhs - LN32) <= 1e-6

    # The shifted denominator tail at threshold c is P(T_n >= n(c - eps)), so
    # for fixed eps Cramér's theorem sends the table to
    # L(eps) = sup_c [I_Y(c - eps) - I_X(c)], which lies below rhs and
    # reaches it only as eps -> 0.
    limits = [_fixed_eps_limit(1 / den) for den in (64, 256, 1024)]
    limit = limits[0]
    gaps = [rhs - v for v in limits]
    limit_ok = all(g > 0 for g in gaps) and all(b < a for a, b in zip(gaps, gaps[1:]))

    table = [(n, relative_rate_lhs(X, Y, HALF, n, "1/64")) for n in (8, 16, 32, 64, 128)]
    exact_ok = all(abs(v - _relative_lhs_oracle(n, 64)) <= 1e-12 for n, v in table)

    lhs64 = dict(table)[64]
    lhs_ok = (limit - 1e-9) <= lhs64 <= (limit + 0.1)

    spreads = [abs(v - limit) for _, v in table]
    spread_ok = all(b <= a + 1e-12 for a, b in zip(spreads, spreads[1:]))

    ok = rhs_ok and limit_ok and exact_ok and lhs_ok and spread_ok
    report(
        5,
        ok,
        f"rhs {rhs:.9f} (ok={rhs_ok}), L(1/64, 1/256, 1/1024) = "
        f"{[f'{v:.7f}' for v in limits]} (below rhs, gap shrinking={limit_ok}), "
        f"lhs(n, 1/64) = {[(n, f'{v:.9f}') for n, v in table]} (exact={exact_ok}), "
        f"window around L(1/64) ok={lhs_ok}, spreads {[f'{s:.4f}' for s in spreads]} "
        f"(nonincreasing={spread_ok})",
    )
    assert rhs_ok
    assert limit_ok, f"L(eps) {limits} against rhs {rhs}"
    assert exact_ok, f"table {table} differs from the binomial-tail oracle"
    assert lhs_ok, f"lhs(64, 1/64) = {lhs64} outside [L - 1e-9, L + 0.1], L = {limit}"
    assert spread_ok, f"spreads {spreads} from L(1/64) increase"


def test_criterion_6_catalyst_soundness():
    rng = random.Random(1006)
    returned = 0
    all_verified = True
    for _ in range(30):
        A = random_measure_1d(rng, max_atoms=3, span=3).normalized()
        B = random_measure_1d(rng, max_atoms=3, span=3).normalized()
        grid = [rat(k, 4) for k in range(9)]
        c = catalyst_1d(A, B, grid)
        if c is not None:
            returned += 1
            all_verified = all_verified and c.verified
    # curated catalyst for the strict pair is also returned and verified
    curated = catalyst_1d(CURATED_X, CURATED_Y, [rat(k, 10) for k in range(31)])
    curated_ok = curated is not None and curated.verified

    grids = ([0], [rat(k, 4) for k in range(5)], [rat(k, 10) for k in range(31)])
    not_found = all(catalyst_1d(bernoulli("3/4"), bernoulli("1/2"), g) is None for g in grids)
    ok = returned > 0 and all_verified and curated_ok and not_found
    report(
        6,
        ok,
        f"{returned} catalysts returned, all verified={all_verified}, "
        f"mean-violated pair NotFound on {len(grids)} grids",
    )
    assert returned > 0 and all_verified
    assert curated_ok
    assert not_found


def test_criterion_7_power_universality():
    rng = random.Random(1007)
    checked = 0
    for _ in range(20):
        mu = random_measure_1d(rng, max_atoms=4, span=5).normalized()
        nu = random_measure_1d(rng, max_atoms=4, span=5).normalized()
        k = growth_exponent(mu, nu, HALF)
        bound = 2 * HALF.bounding_k(list(mu.atoms) + list(nu.atoms))
        assert k <= bound
        assert leq_st(nu, shift(mu, (rat(k),)), HALF).dominated
        if k > 0:
            assert not leq_st(nu, shift(mu, (rat(k - 1),)), HALF).dominated
        checked += 1
    report(7, checked == 20, f"{checked}/20 exponents within bound and re-verified")
    assert checked == 20


def test_criterion_8_planar_consistency():
    # curated planar verdicts
    cross = Measure(2, {(0, 1): "1/2", (1, 0): "1/2"})
    spread = Measure(2, {(2, 0): "1/2", (0, 2): "1/2"})
    wide = Measure(2, {(-1, 3): "1/2", (3, -1): "1/2"})
    v1 = leq_st(cross, Measure(2, {(1, 1): 1}), ORTHANT).dominated
    v2 = leq_st(cross, spread, ORTHANT).dominated
    v3 = leq_st(Measure(2, {(1, 1): 1}), wide, ORTHANT).dominated
    verdicts_ok = v1 and v2 and not v3

    # diagonal embedding of the strict pair: 64 sampled dual directions
    X2 = Measure(2, {("2/5", "2/5"): "1/10", ("3/5", "3/5"): "9/10"})
    Y2 = Measure(2, {("1/2", "1/2"): "1/2", ("4/5", "4/5"): "1/2"})
    rep = spectral_verdict(X2, Y2, ORTHANT, SpectrumOptions(n_samples=64))
    res = min_n(X2, Y2, ORTHANT, n_max=32)
    ok = verdicts_ok and rep.verdict == "Strict" and rep.sampled_only and res.found
    report(
        8,
        ok,
        f"curated orthant verdicts ok={verdicts_ok}, spectral {rep.verdict} on "
        f"{len(rep.per_ray)} rays, min_n found with n0 = {res.n0}",
    )
    assert verdicts_ok
    assert rep.verdict == "Strict"
    assert res.found


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)

    bern = write("bern.json", {"dim": 1, "atoms": [{"x": ["0"], "w": "1/2"}, {"x": ["1"], "w": "1/2"}]})
    bern34 = write("bern34.json", {"dim": 1, "atoms": [{"x": ["0"], "w": "1/4"}, {"x": ["1"], "w": "3/4"}]})
    X = write("X.json", {"dim": 1, "atoms": [{"x": ["2/5"], "w": "1/10"}, {"x": ["3/5"], "w": "9/10"}]})
    Y = write("Y.json", {"dim": 1, "atoms": [{"x": ["1/2"], "w": "1/2"}, {"x": ["4/5"], "w": "1/2"}]})

    def run(argv) -> str:
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2)
        return out

    commands = [
        ["order-check", bern, bern34, "--seed", "5", "--json", "-"],
        ["spectrum", X, Y, "--seed", "5", "--json", "-"],
        ["dominate", X, Y, "--seed", "5", "--json", "-"],
        ["min-n", X, Y, "--n-max", "16", "--seed", "5", "--json", "-"],
        ["catalyst", X, Y, "--grid-step", "1/10", "--seed", "5", "--json", "-"],
        ["rate-fn", bern, "--c", "3/4", "--seed", "5", "--json", "-"],
        ["rel-rate", bern34, bern, "--n-max", "16", "--seed", "5", "--json", "-"],
        ["cramer", bern, "--c", "3/4", "--n-max", "128", "--seed", "5", "--json", "-"],
    ]
    stable = 0
    for argv in commands:
        if run(argv) == run(argv):
            stable += 1
    worker_outs = {
        run(["dominate", X, Y, "--workers", w, "--seed", "5", "--json", "-"])
        for w in ("1", "2", "4")
    } | {
        run(["min-n", X, Y, "--n-max", "16", "--workers", w, "--seed", "5", "--json", "-"])
        for w in ("1", "2", "4")
    }
    ok = stable == len(commands) and len(worker_outs) == 2
    report(
        9,
        ok,
        f"{stable}/{len(commands)} commands byte-identical, "
        f"worker counts collapse to {len(worker_outs)} distinct reports (expect 2)",
    )
    assert stable == len(commands)
    assert len(worker_outs) == 2
