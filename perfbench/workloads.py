"""Seeded query pools for the four benchmark workloads.

Each workload is a pool of *rounds*.  A round holds one query of every kind
the workload mixes.  Round ``j`` is drawn from its own random stream
(``random.Random("<workload>:<j>")``), so it is the same on every machine and
in every run.  Rounds ``0 .. P-1`` form the default pool and rounds
``P .. 2P-1`` the held-out pool, with ``P = POOL_ROUNDS[workload]``; golden
outputs are recorded for both.  A run visits every round of its pool once per
pass, in an order drawn from the run's ``--seed`` (see ``round_order``), so
every run does the same work and every output has a golden copy.

Sizes are drawn in narrow bands per query kind; points, weights, thresholds,
grids and verdicts vary freely.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("walk1d", "cone-order", "spectral", "catalyst")
# rounds per pool, sized so that one pass takes about 18 s on the
# pure-Python rational backend of the parent commit (2 cores, 8 GB)
POOL_ROUNDS = {"walk1d": 15, "cone-order": 10, "spectral": 10, "catalyst": 11}

GENERATOR_RAYS = ((1, 0), (1, 1))
GENERATOR_CONE = {"dim": 2, "kind": "generators", "rays": [[str(c) for c in r] for r in GENERATOR_RAYS]}
# decimal lattice steps; the report and the parser see them as decimal strings
STEPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))


@dataclass
class Query:
    """One CLI invocation: ``walkorder <command> <inputs> <options>``."""

    qid: str
    command: str
    inputs: list  # input file names, relative to the work directory
    options: list = field(default_factory=list)
    cone: str = "halfline"  # "halfline", "orthant" or a cone file name
    dim: int = 1
    csv: bool = False

    def argv(self, workdir: Path) -> list:
        """Arguments for ``walkorder.cli.main``; outputs go to ``workdir``."""
        cone = self.cone if self.cone in ("halfline", "orthant") else str(workdir / self.cone)
        argv = [self.command, *(str(workdir / f) for f in self.inputs), "--cone", cone]
        argv += self.options + ["--json", str(self.report_path(workdir))]
        if self.csv:
            argv += ["--csv", str(workdir / f"{self.qid}.csv")]
        return argv

    def report_path(self, workdir: Path) -> Path:
        return workdir / f"{self.qid}.report.json"

    def output_paths(self, workdir: Path) -> dict:
        """Every file the query writes, by a stable label."""
        outs = {"report": self.report_path(workdir)}
        if self.csv:
            base = workdir / f"{self.qid}.csv"
            outs["csv"] = base
            extra = ".gp" if self.command == "spectrum" else ".curve.csv"
            outs["csv" + extra] = Path(str(base) + extra)
        return outs


@dataclass
class Round:
    queries: list
    files: dict  # file name -> JSON payload


# -- number formatting and small draws -------------------------------------------


def _num(q: Fraction) -> str:
    """Decimal string when q has a short terminating expansion, else "p/q"."""
    if q.denominator in (1, 2, 4, 5, 10, 20, 25, 50, 100):
        return format(Decimal(q.numerator) / Decimal(q.denominator), "f")
    return str(q)


def _composition(rng: random.Random, k: int, total: int) -> list:
    """k positive weights with denominator ``total`` that sum to 1.

    A prime ``total`` keeps every weight's reduced denominator equal to it,
    so the size of the exact arithmetic does not depend on the draw.
    """
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [Fraction(b - a, total) for a, b in zip([0, *cuts], [*cuts, total])]


def _payload(dim: int, atoms) -> dict:
    merged: dict = {}
    for pt, w in atoms:
        merged[pt] = merged.get(pt, 0) + w
    return {
        "dim": dim,
        "atoms": [{"x": [_num(c) for c in pt], "w": str(w)} for pt, w in sorted(merged.items())],
    }


def _lattice_1d(rng: random.Random, k: int, span: int, den: int) -> list:
    """k atoms at a + h*{0, ..., span} (both ends used) with weights over den."""
    a = Fraction(rng.randint(-6, 6)) * rng.choice(STEPS)
    h = rng.choice(STEPS)
    inner = sorted(rng.sample(range(1, span), k - 2)) if k > 2 else []
    ks = [0, *inner, span]
    return [((a + h * kk,), w) for kk, w in zip(ks, _composition(rng, k, den))]


def _cloud(rng: random.Random, dim: int, m: int, box: int) -> list:
    """m distinct integer points in [0, box]^dim with weights over 4*m."""
    pts: set = set()
    while len(pts) < m:
        pts.add(tuple(Fraction(rng.randint(0, box)) for _ in range(dim)))
    return list(zip(sorted(pts), _composition(rng, m, 4 * m)))


def _moved_up(rng: random.Random, atoms: list, rays, max_step: int) -> list:
    """Move every atom up by a nonzero nonnegative integer combination of rays."""
    out = []
    for pt, w in atoms:
        coeffs = [0] * len(rays)
        while not any(coeffs):
            coeffs = [rng.randint(0, max_step) for _ in rays]
        move = [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(len(pt))]
        out.append((tuple(x + d for x, d in zip(pt, move)), w))
    return out


def _orthant_rays(dim: int):
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


def _threshold(atoms: list, rng: random.Random) -> list:
    """A point between the mean and the coordinatewise maximum of the atoms."""
    dim = len(atoms[0][0])
    mean = [sum(pt[i] * w for pt, w in atoms) for i in range(dim)]
    top = [max(pt[i] for pt, _ in atoms) for i in range(dim)]
    f = Fraction(rng.randint(1, 3), 8)
    return [m + (t - m) * f for m, t in zip(mean, top)]


# -- the four workloads ------------------------------------------------------------


def _walk1d(rng: random.Random, r: str, files: dict) -> list:
    qs = []
    # n keeps its top bits per kind: repeated squaring costs follow them
    for k, span, den, top in ((2, 1, 7, 176), (3, 3, 11, 72), (4, 4, 13, 48)):
        mu = _lattice_1d(rng, k, span, den)
        name = f"{r}_step{k}.json"
        files[name] = _payload(1, mu)
        c = _threshold(mu, rng)[0]
        n = top + rng.randrange(top // 16)
        qs.append(Query(f"{r}_cramer{k}", "cramer", [name], [f"--c={_num(c)}", "--n-max", str(n)]))
    for kind, n_opts in (("relrate", ["--n-max", "64", "--eps", str(Fraction(1, rng.choice((16, 32, 64))))]),
                         ("minn", ["--n-max", str(rng.randint(24, 28))])):
        x = _lattice_1d(rng, 2, 1, 11)
        y = _lattice_1d(rng, 2, 1, 11)
        files[f"{r}_{kind}_X.json"] = _payload(1, x)
        files[f"{r}_{kind}_Y.json"] = _payload(1, y)
        cmd = "rel-rate" if kind == "relrate" else "min-n"
        qs.append(Query(f"{r}_{kind}", cmd, [f"{r}_{kind}_X.json", f"{r}_{kind}_Y.json"], n_opts))
    return qs


def _cone_order(rng: random.Random, r: str, files: dict) -> list:
    qs = []
    cones = (
        ("orth2", 2, "orthant", _orthant_rays(2), 76, 92),
        ("gen2", 2, "gencone.json", GENERATOR_RAYS, 76, 92),
        ("orth3", 3, "orthant", _orthant_rays(3), 60, 72),
    )
    for tag, dim, cone, rays, lo, hi in cones:
        for reverse in (False, True):
            x = _cloud(rng, dim, rng.randint(lo, hi), 24 if dim == 2 else 10)
            y = _moved_up(rng, x, rays, 3)
            fx, fy = f"{r}_{tag}_{int(reverse)}_X.json", f"{r}_{tag}_{int(reverse)}_Y.json"
            files[fx], files[fy] = _payload(dim, x), _payload(dim, y)
            # Y is X moved strictly up, so (X, Y) is dominated and (Y, X) is not
            inputs = [fy, fx] if reverse else [fx, fy]
            qid = f"{r}_{tag}_{'cut' if reverse else 'coupling'}"
            qs.append(Query(qid, "order-check", inputs, cone=cone, dim=dim))
    grid = [(Fraction(i), Fraction(j)) for i in range(3) for j in range(3)]
    x = list(zip(sorted(rng.sample(grid, 3)), _composition(rng, 3, 10)))
    y = _moved_up(rng, x, _orthant_rays(2), 1)
    files[f"{r}_minn_X.json"], files[f"{r}_minn_Y.json"] = _payload(2, x), _payload(2, y)
    qs.append(Query(f"{r}_minn", "min-n", [f"{r}_minn_X.json", f"{r}_minn_Y.json"],
                    ["--n-max", str(rng.randint(9, 11))], cone="orthant", dim=2))
    return qs


def _spectral(rng: random.Random, r: str, files: dict) -> list:
    qs = []
    for cmd, dim, lo, hi, s_lo, s_hi in (("dominate", 2, 40, 60, 32, 48),
                                          ("spectrum", 2, 50, 80, 32, 48),
                                          ("dominate", 3, 30, 50, 32, 48)):
        x = _cloud(rng, dim, rng.randint(lo, hi), 20 if dim == 2 else 8)
        y = _moved_up(rng, x, _orthant_rays(dim), 2)
        fx, fy = f"{r}_{cmd}{dim}_X.json", f"{r}_{cmd}{dim}_Y.json"
        files[fx], files[fy] = _payload(dim, x), _payload(dim, y)
        qs.append(Query(f"{r}_{cmd}{dim}", cmd, [fx, fy], ["--samples", str(rng.randint(s_lo, s_hi)),
                        "--seed", str(rng.randint(0, 2**31))], cone="orthant", dim=dim,
                        csv=cmd == "spectrum"))
    for dim, lo, hi in ((2, 40, 60), (3, 25, 40)):
        mu = _cloud(rng, dim, rng.randint(lo, hi), 20 if dim == 2 else 8)
        name = f"{r}_ratefn{dim}.json"
        files[name] = _payload(dim, mu)
        c = ",".join(_num(v) for v in _threshold(mu, rng))
        qs.append(Query(f"{r}_ratefn{dim}", "rate-fn", [name],
                        [f"--c={c}", "--samples", str(rng.randint(12, 16))], cone="orthant", dim=dim))
    x = _cloud(rng, 2, 3, 2)
    y = _moved_up(rng, x, _orthant_rays(2), 1)
    files[f"{r}_relrate_X.json"], files[f"{r}_relrate_Y.json"] = _payload(2, x), _payload(2, y)
    qs.append(Query(f"{r}_relrate", "rel-rate", [f"{r}_relrate_X.json", f"{r}_relrate_Y.json"],
                    ["--n-max", "8", "--samples", str(rng.randint(12, 16))], cone="orthant", dim=2,
                    csv=True))
    return qs


def _dominated_1d(x: list, y: list) -> bool:
    cuts = {p[0] for p, _ in x + y}
    return all(sum(w for p, w in x if p[0] >= c) <= sum(w for p, w in y if p[0] >= c) for c in cuts)


def _catalyst(rng: random.Random, r: str, files: dict) -> list:
    # X and Y share the lattice a + h*{0, 1, 2, 3} and the grid step is h/q,
    # so thresholds stay on a lattice and the grid has 12*q + 1 points
    qs = []
    for kind, qs_choice in (("ordered", (6, 8)), ("blocked", (3,)), ("open", (3,)), ("open", (4,))):
        a = Fraction(rng.randint(-6, 6)) * rng.choice(STEPS)
        h = rng.choice(STEPS)
        while True:
            if kind == "ordered":  # X <= Y already: the point mass at 0 is a catalyst
                kx = [0, 1, 2]
                ky = [k + rng.randint(0, 1) for k in kx[:-1]] + [3]
            elif kind == "blocked":  # X's top atom outruns Y's for every catalyst
                kx = [rng.randint(0, 2), 3]
                ky = sorted(rng.sample(range(3), 2))
            else:  # Y is higher on average and at the top, but X is not below Y
                kx = [0, rng.randint(1, 2)]
                ky = [rng.randint(0, 2), 3]
            wx = _composition(rng, len(kx), 11)
            wy = wx if kind == "ordered" else _composition(rng, len(ky), 11)
            x = [((a + h * k,), w) for k, w in zip(kx, wx)]
            y = [((a + h * k,), w) for k, w in zip(ky, wy)]
            low = min(kx + ky) == 0
            if kind != "open" and low:
                break
            mean_x = sum(p[0] * w for p, w in x)
            mean_y = sum(p[0] * w for p, w in y)
            if low and mean_x < mean_y and not _dominated_1d(x, y):
                break
        q = rng.choice(qs_choice)
        tag = f"{r}_{kind}{q}"
        files[f"{tag}_X.json"], files[f"{tag}_Y.json"] = _payload(1, x), _payload(1, y)
        qs.append(Query(tag, "catalyst", [f"{tag}_X.json", f"{tag}_Y.json"],
                        ["--grid-step", _num(h / q)]))
    return qs


_BUILDERS = {"walk1d": _walk1d, "cone-order": _cone_order, "spectral": _spectral,
             "catalyst": _catalyst}


def make_round(workload: str, index: int) -> Round:
    rng = random.Random(f"{workload}:{index}")
    files: dict = {}
    if workload == "cone-order":
        files["gencone.json"] = GENERATOR_CONE
    queries = _BUILDERS[workload](rng, f"r{index:03d}", files)
    return Round(queries, files)


def pool_indices(workload: str, held_out: bool) -> range:
    p = POOL_ROUNDS[workload]
    return range(p, 2 * p) if held_out else range(p)


def round_order(workload: str, seed: int, held_out: bool) -> list:
    """The seeded order in which a run visits the rounds of its pool."""
    order = list(pool_indices(workload, held_out))
    random.Random(seed).shuffle(order)
    return order


def write_round(rnd: Round, workdir: Path) -> None:
    for name, payload in rnd.files.items():
        (workdir / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
