"""Independent checks of order certificates, in plain ``fractions`` arithmetic.

Golden hashes only say that a report did not change; these checks say that
the certificate in it is right, so a golden copy of a wrong answer cannot
pass unnoticed.  They share no code with walkorder:

* a coupling must have the two inputs as marginals and put weight only on
  ordered pairs;
* a witness upset must carry more X mass than Y mass;
* for ``min-n`` every reported failure at step n is re-checked on the n-fold
  convolutions, and n0 must follow from the list of failures.

They run outside the timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def load_measure(path: Path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    atoms: dict = {}
    for entry in data["atoms"]:
        pt = tuple(Fraction(c) for c in entry["x"])
        atoms[pt] = atoms.get(pt, 0) + Fraction(entry["w"])
    return atoms


def cone_order(spec: str, dim: int):
    """Return leq(x, y), true iff y - x lies in the cone."""
    if spec in ("halfline", "orthant"):
        return lambda x, y: all(b >= a for a, b in zip(x, y))
    rays = [tuple(Fraction(c) for c in r) for r in json.loads(Path(spec).read_text())["rays"]]
    if dim != 2 or len(rays) != 2:
        raise ValueError("the checker handles 2-D cones with two rays only")
    (a, c), (b, d) = rays
    det = a * d - b * c

    def leq(x, y):
        # solve (y - x) = s*r1 + t*r2 and ask for s, t >= 0
        u, v = y[0] - x[0], y[1] - x[1]
        return (d * u - b * v) / det >= 0 and (a * v - c * u) / det >= 0

    return leq


def _point(p) -> tuple:
    return tuple(Fraction(c) for c in p)


def _upset_mass(mu: dict, gens: list, leq) -> Fraction:
    return sum((w for x, w in mu.items() if any(leq(g, x) for g in gens)), Fraction(0))


def _convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for x, wx in a.items():
        for y, wy in b.items():
            key = tuple(p + q for p, q in zip(x, y))
            out[key] = out.get(key, 0) + wx * wy
    return out


def check_order_check(report: dict, X: dict, Y: dict, leq) -> str | None:
    if report["dominated"]:
        rows = report["witness_coupling"] or []
        mx: dict = {}
        my: dict = {}
        for row in rows:
            x, y, w = _point(row["x"]), _point(row["y"]), Fraction(row["w"])
            if w <= 0:
                return f"coupling weight {w} is not positive"
            if not leq(x, y):
                return f"coupled pair {row['x']} -> {row['y']} is not ordered"
            mx[x] = mx.get(x, 0) + w
            my[y] = my.get(y, 0) + w
        if mx != X or my != Y:
            return "coupling marginals differ from the inputs"
        return None
    gens = [_point(g) for g in report["witness_upset"] or []]
    mass_x, mass_y = _upset_mass(X, gens, leq), _upset_mass(Y, gens, leq)
    if not mass_x > mass_y:
        return f"witness upset has X mass {mass_x} <= Y mass {mass_y}"
    return None


def check_min_n(report: dict, X: dict, Y: dict, leq, n_max: int) -> str | None:
    fails = report["failures"]
    ns = [f["n"] for f in fails]
    if ns != sorted(set(ns)) or any(not 1 <= n <= n_max for n in ns):
        return f"failure steps {ns} are not increasing within 1..{n_max}"
    if report["found"]:
        expected = (ns[-1] if ns else 0) + 1
        if report["n0"] != expected or report["stable_through"] != n_max:
            return f"n0 {report['n0']} does not follow from the failures"
    elif not ns or ns[-1] != n_max:
        return "no stable window reported although step n_max did not fail"
    px, py, n = X, Y, 1
    for f in fails:
        while n < f["n"]:
            px, py, n = _convolve(px, X), _convolve(py, Y), n + 1
        gens = [_point(g) for g in f["witness_upset"]]
        mass_x, mass_y = _upset_mass(px, gens, leq), _upset_mass(py, gens, leq)
        if not mass_x > mass_y:
            return f"witness upset at n={n} has X mass {mass_x} <= Y mass {mass_y}"
    return None


def check_query(query, workdir: Path) -> str | None:
    """Check the certificate in a query's report; None when there is none to check."""
    if query.command not in ("order-check", "min-n"):
        return None
    report = json.loads(query.report_path(workdir).read_text(encoding="utf-8"))
    X = load_measure(workdir / query.inputs[0])
    Y = load_measure(workdir / query.inputs[1])
    spec = query.cone if query.cone in ("halfline", "orthant") else str(workdir / query.cone)
    leq = cone_order(spec, query.dim)
    if query.command == "order-check":
        return check_order_check(report, X, Y, leq)
    n_max = int(query.options[query.options.index("--n-max") + 1])
    return check_min_n(report, X, Y, leq, n_max)
