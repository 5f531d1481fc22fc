"""Command-line frontend: parse measure/cone files, dispatch, emit reports.

File formats (JSON):

  measure: {"dim": 1, "atoms": [{"x": ["2/5"], "w": "1/10"}, ...]}
  cone:    {"dim": 2, "kind": "halfline"|"orthant"|"generators",
            "rays": [["1","0"], ...], "normals": [...], "unit": ["1","1"]}

Numbers are fraction strings ("2/5"), decimal strings ("0.1", converted
exactly) or plain integers.  Reports are deterministic JSON: fixed key
order, fraction strings for exact values, repr floats for numeric values.

Exit codes: 0 definitive verdict, 2 epistemic outcome (Inconclusive or
NotFound-on-grid), 1 input or budget error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import Optional, Sequence

from . import __version__
from .cones import Cone, Direction, is_upward_1d
from .dominance import catalyst_1d, default_catalyst_grid, min_n
from .errors import AtomBudgetExceeded, DimensionMismatch, MassMismatch
from .ldp import (
    RateOptions,
    cramer_empirical,
    rate_function,
    relative_rate_curve,
    relative_rate_lhs,
    relative_rate_rhs,
)
from .measure import Measure
from .rational import as_rat, rat_str
from .spectrum import SpectrumOptions, spectral_verdict
from .stochorder import leq_st

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EPISTEMIC = 2


# -- parsing -------------------------------------------------------------------


def parse_rational(text):
    try:
        return as_rat(str(text)) if not isinstance(text, int) else as_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def parse_point(obj, dim: int | None = None) -> tuple:
    coords = obj if isinstance(obj, (list, tuple)) else [obj]
    pt = tuple(parse_rational(c) for c in coords)
    if dim is not None and len(pt) != dim:
        raise ValueError(f"point {obj!r} has {len(pt)} coordinates, expected {dim}")
    return pt


def _parse_dim(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f'"dim" must be an integer, got {value!r}') from None


def _parse_points(data: dict, key: str, dim: int) -> list | None:
    if key not in data:
        return None
    if not isinstance(data[key], list):
        raise ValueError(f'"{key}" must be a list of points, got {data[key]!r}')
    return [parse_point(p, dim) for p in data[key]]


def parse_measure(text: str) -> Measure:
    data = json.loads(text)
    if not isinstance(data, dict) or "dim" not in data or "atoms" not in data:
        raise ValueError('measure files need {"dim": ..., "atoms": [...]}')
    if not isinstance(data["atoms"], list):
        raise ValueError('"atoms" must be a list of {"x": ..., "w": ...} objects')
    dim = _parse_dim(data["dim"])
    atoms = []
    for i, entry in enumerate(data["atoms"]):
        if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
            raise ValueError(f'atom {i} must be an object with "x" and "w", got {entry!r}')
        atoms.append((parse_point(entry["x"], dim), parse_rational(entry["w"])))
    return Measure(dim, atoms)


def parse_cone(text: str, expected_dim: int | None = None) -> Cone:
    data = json.loads(text)
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError('cone files need {"dim": ..., "kind": ...}')
    kind = data.get("kind", "generators")
    dim = _parse_dim(data["dim"])
    # checked before the cone is built: building costs O(dim^3) exact work
    if expected_dim is not None and dim != expected_dim:
        raise DimensionMismatch(f"cone dimension {dim} does not match {expected_dim}")
    unit = parse_point(data["unit"], dim) if "unit" in data else None
    if kind == "halfline":
        if dim != 1:
            raise ValueError("halfline cones are one-dimensional")
        return Cone.halfline(unit if unit is not None else (1,))
    if kind == "orthant":
        return Cone.orthant(dim, unit=unit)
    if kind == "generators":
        rays = _parse_points(data, "rays", dim)
        normals = _parse_points(data, "normals", dim)
        return Cone.from_generators(dim, rays=rays, normals=normals, unit=unit)
    raise ValueError(f"unknown cone kind {kind!r}")


def load_measure(path: str, normalize: bool = False) -> Measure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            m = parse_measure(fh.read())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return m.normalized() if normalize else m


def load_cone(spec: str, dim: int) -> Cone:
    if spec == "halfline":
        return Cone.halfline()
    if spec == "orthant":
        return Cone.orthant(dim)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_cone(fh.read(), dim)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{spec}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}") from None


# -- report helpers --------------------------------------------------------------


def _float_or_str(x) -> object:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return x


def point_json(pt) -> list:
    return [rat_str(c) for c in pt]


def direction_json(d: Direction) -> dict:
    # directions are normalized to <t, unit> = 1; the field keeps the report format
    return {"t": point_json(d.t), "normalization": "1"}


def radial_json(r: float) -> object:
    return _float_or_str(float(r))


def write_report(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if json_path is None or json_path == "-":
        sys.stdout.write(text)
    else:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _base_report(command: str, seed: int, **extra) -> dict:
    report = {"tool": "walkorder", "version": __version__, "command": command, "seed": seed}
    report.update(extra)
    return report


# -- commands --------------------------------------------------------------------


def _spectrum_opts(args) -> SpectrumOptions:
    return SpectrumOptions(
        margin_tol=args.margin_tol,
        n_samples=args.samples,
        seed=args.seed,
    )


def _cmd_order_check(args) -> int:
    X = load_measure(args.X, args.normalize)
    Y = load_measure(args.Y, args.normalize)
    cone = load_cone(args.cone, X.dim)
    verdict = leq_st(X, Y, cone)
    report = _base_report(
        "order-check",
        args.seed,
        dominated=verdict.dominated,
        witness_coupling=None
        if verdict.witness_coupling is None
        else [
            {"x": point_json(x), "y": point_json(y), "w": rat_str(w)}
            for (x, y), w in sorted(verdict.witness_coupling.entries.items())
        ],
        witness_upset=None
        if verdict.witness_upset is None
        else [point_json(p) for p in verdict.witness_upset],
    )
    write_report(report, args.json)
    return EXIT_OK


def _spectral_report(args, X: Measure, Y: Measure, cone: Cone):
    opts = _spectrum_opts(args)
    result = spectral_verdict(X, Y, cone, opts)
    report = _base_report(
        "spectrum" if args.command == "spectrum" else "dominate",
        args.seed,
        verdict=result.verdict,
        sampled_only=result.sampled_only,
        margin_tol=args.margin_tol,
        rays=[
            {
                "direction": direction_json(rc.direction),
                "verdict": rc.verdict,
                "min_margin": _float_or_str(rc.min_margin),
                "argmin_radial": radial_json(rc.argmin_radial),
            }
            for rc in result.per_ray
        ],
        witnesses=[
            {"direction": direction_json(w.direction), "radial": radial_json(w.radial)}
            for w in result.witnesses
        ],
    )
    return result, report


def _write_spectrum_csv(result, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ray", "theta", "radial", "lev_x", "lev_y", "margin"])
        for ray_idx, rc in enumerate(result.per_ray):
            for theta, radial, lx, ly, m in rc.samples:
                writer.writerow([ray_idx, repr(theta), repr(radial), repr(lx), repr(ly), repr(m)])
    with open(path + ".gp", "w", encoding="utf-8") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"plot '{path}' using 2:6 with lines title 'margin'\n"
        )


def _cmd_dominate(args) -> int:
    X = load_measure(args.X, args.normalize)
    Y = load_measure(args.Y, args.normalize)
    cone = load_cone(args.cone, X.dim)
    result, report = _spectral_report(args, X, Y, cone)
    if args.csv:
        _write_spectrum_csv(result, args.csv)
    write_report(report, args.json)
    return EXIT_EPISTEMIC if result.verdict == "Inconclusive" else EXIT_OK


def _cmd_min_n(args) -> int:
    X = load_measure(args.X, args.normalize)
    Y = load_measure(args.Y, args.normalize)
    cone = load_cone(args.cone, X.dim)
    result = min_n(X, Y, cone, n_max=args.n_max)
    report = _base_report(
        "min-n",
        args.seed,
        found=result.found,
        n0=result.n0,
        stable_through=result.stable_through,
        failures=[
            {"n": n, "witness_upset": [point_json(p) for p in witness]}
            for n, witness in result.failures
        ],
    )
    write_report(report, args.json)
    return EXIT_OK if result.found else EXIT_EPISTEMIC


def _cmd_catalyst(args) -> int:
    X = load_measure(args.X, args.normalize)
    Y = load_measure(args.Y, args.normalize)
    if not is_upward_1d(load_cone(args.cone, X.dim)):
        raise ValueError("catalyst searches only the upward half-line [0, inf)")
    step = parse_rational(args.grid_step) if args.grid_step else None
    grid = default_catalyst_grid(X, Y, step=step)
    result = catalyst_1d(X, Y, grid)
    report = _base_report(
        "catalyst",
        args.seed,
        found=result is not None,
        grid=[rat_str(g) for g in grid],
        catalyst=None
        if result is None
        else {
            "atoms": [
                {"x": point_json(pt), "w": rat_str(w)}
                for pt, w in sorted(result.Z.atoms.items())
            ],
            "grid_step": rat_str(result.grid_step),
            "verified": result.verified,
        },
    )
    write_report(report, args.json)
    return EXIT_OK if result is not None else EXIT_EPISTEMIC


def _cmd_rate_fn(args) -> int:
    mu = load_measure(args.MU, args.normalize)
    cone = load_cone(args.cone, mu.dim)
    c = parse_point(args.c.split(","), mu.dim)
    opts = RateOptions(n_samples=args.samples, seed=args.seed)
    result = rate_function(mu, c, cone, opts)
    report = _base_report(
        "rate-fn",
        args.seed,
        c=point_json(c),
        value=_float_or_str(result.value),
        certified=result.certified,
        maximizer=None
        if result.maximizer is None
        else {
            "direction": direction_json(result.maximizer[0]),
            "radial": radial_json(result.maximizer[1]),
        },
    )
    write_report(report, args.json)
    return EXIT_OK


def _cmd_rel_rate(args) -> int:
    X = load_measure(args.X, args.normalize)
    Y = load_measure(args.Y, args.normalize)
    cone = load_cone(args.cone, X.dim)
    eps = parse_rational(args.eps)
    opts = RateOptions(n_samples=args.samples, seed=args.seed)
    rhs = relative_rate_rhs(X, Y, cone, opts)
    ns = [n for n in (8, 16, 32, 64, 128, 256, 512) if n <= args.n_max] or [args.n_max]
    table = [(n, relative_rate_lhs(X, Y, cone, n, eps)) for n in ns]
    report = _base_report(
        "rel-rate",
        args.seed,
        eps=rat_str(eps),
        rhs=_float_or_str(rhs.value),
        rhs_certified=rhs.certified,
        lhs_certified="exact" if X.dim == 1 else "lower-bound",
        lhs_table=[{"n": n, "lhs": _float_or_str(v)} for n, v in table],
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "lhs", "rhs"])
            for n, v in table:
                writer.writerow([n, repr(v), repr(rhs.value)])
        with open(args.csv + ".curve.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ray", "theta", "r", "g"])
            for ray_idx, theta, r, g in relative_rate_curve(X, Y, cone, opts):
                writer.writerow([ray_idx, repr(theta), repr(r), repr(g)])
    write_report(report, args.json)
    return EXIT_OK


def _cmd_cramer(args) -> int:
    mu = load_measure(args.MU, args.normalize)
    cone = load_cone(args.cone, mu.dim)
    c = parse_point(args.c.split(","), mu.dim)
    value = cramer_empirical(mu, c, cone, args.n_max)
    report = _base_report(
        "cramer",
        args.seed,
        c=point_json(c),
        n=args.n_max,
        value=_float_or_str(value),
    )
    write_report(report, args.json)
    return EXIT_OK


_COMMANDS = {
    "order-check": _cmd_order_check,
    "spectrum": _cmd_dominate,
    "dominate": _cmd_dominate,
    "min-n": _cmd_min_n,
    "catalyst": _cmd_catalyst,
    "rate-fn": _cmd_rate_fn,
    "rel-rate": _cmd_rel_rate,
    "cramer": _cmd_cramer,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkorder",
        description="Exact stochastic dominance and large-deviation rates for cone-ordered walks",
    )
    parser.add_argument("--version", action="version", version=f"walkorder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, measures=2, needs_c=False):
        if measures == 2:
            p.add_argument("X", help="path to the first measure file")
            p.add_argument("Y", help="path to the second measure file")
        else:
            p.add_argument("MU", help="path to the measure file")
        p.add_argument("--cone", default="halfline", help="halfline, orthant, or a cone file path")
        if needs_c:
            p.add_argument("--c", required=True, help="threshold point, comma-separated rationals")
        p.add_argument("--n-max", type=int, default=64, dest="n_max")
        p.add_argument("--grid-step", default=None, dest="grid_step")
        p.add_argument("--eps", default="1/64")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=32)
        p.add_argument("--margin-tol", type=float, default=1e-9, dest="margin_tol")
        p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
        p.add_argument("--csv", default=None, help="write curve/table CSV to this path")
        p.add_argument("--json", default=None, help="write the JSON report here ('-' = stdout)")
        p.add_argument("--normalize", action="store_true", help="rescale inputs to mass 1")

    common(sub.add_parser("order-check", help="decide the stochastic order exactly"))
    common(sub.add_parser("spectrum", help="spectral comparison with CSV curves"))
    common(sub.add_parser("dominate", help="spectral dominance verdict"))
    common(sub.add_parser("min-n", help="stability window for walk-sum dominance"))
    common(sub.add_parser("catalyst", help="grid-relative catalyst search (1-D)"))
    common(sub.add_parser("rate-fn", help="rate function at a point"), measures=1, needs_c=True)
    common(sub.add_parser("rel-rate", help="relative decay rate, both sides"))
    common(sub.add_parser("cramer", help="empirical tail decay at sample size n"), measures=1, needs_c=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of main, not at import, and shared by later
    # calls: parse_args leaves a parser unchanged, and building the tree
    # costs more than parsing one command line.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, MassMismatch, AtomBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
