"""Command-line frontend: parse measure/cone files, dispatch, emit reports.

File formats (JSON):

  measure: {"dim": 1, "atoms": [{"x": ["2/5"], "w": "1/10"}, ...]}
  cone:    {"dim": 2, "kind": "halfline"|"orthant"|"generators",
            "rays": [["1","0"], ...], "normals": [...], "unit": ["1","1"]}

Numbers are fraction strings ("2/5"), decimal strings ("0.1", converted
exactly) or JSON numbers, read exactly from their literal text; every
literal goes through ``rational.as_ratio`` to an int pair, and a measure file
straight to its integer view.  Reports are deterministic JSON: fixed key
order, fraction strings for exact values, repr floats for numeric values.

Every subcommand takes --cone, --seed, --workers, --json and --normalize,
plus the options that its entry in _COMMANDS names, and no other.

Exit codes: 0 definitive verdict, 2 epistemic outcome (Inconclusive or
NotFound-on-grid) or an unknown option, 1 input or budget error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from .cones import MAX_SAMPLES, Cone, Direction, check_dual_work, is_upward_1d
from .dominance import catalyst_1d, default_catalyst_grid, min_n
from .errors import AtomBudgetExceeded, DimensionMismatch
from .ldp import (
    RateOptions,
    cramer_empirical,
    rate_function,
    relative_rate_curve,
    relative_rate_lhs,
    relative_rate_rhs,
)
from .measure import Measure, from_ratios
from .rational import as_ratio, rat, rat_str
from .spectrum import SpectrumOptions, spectral_verdict
from .stochorder import leq_st

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EPISTEMIC = 2


# -- parsing -------------------------------------------------------------------


def parse_ratio(text) -> tuple[int, int]:
    """The exact rational of a JSON number or number string, as a ``(p, q)``
    int pair in lowest terms (``rational.as_ratio``).  Booleans are refused,
    and so are the number strings that ``as_ratio`` refuses: more digits than
    Python prints, or an exponent far past that limit."""
    try:
        if isinstance(text, bool):
            raise ValueError("a boolean is not a number")
        return as_ratio(text if isinstance(text, int) else str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def parse_rational(text):
    """``parse_ratio`` as a ``Fraction``."""
    return rat(*parse_ratio(text))


def _parse_ratios(obj, dim: int | None = None) -> tuple:
    coords = obj if isinstance(obj, (list, tuple)) else [obj]
    pt = tuple(map(parse_ratio, coords))
    if dim is not None and len(pt) != dim:
        raise ValueError(f"point {obj!r} has {len(pt)} coordinates, expected {dim}")
    return pt


def parse_point(obj, dim: int | None = None) -> tuple:
    return tuple(rat(*c) for c in _parse_ratios(obj, dim))


def _parse_dim(value) -> int:
    try:
        if isinstance(value, (bool, float)):
            raise TypeError  # int() would truncate 1.9 and read true as 1
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
    data = json.loads(text, parse_float=str)  # a JSON number is read from its literal text
    if not isinstance(data, dict) or "dim" not in data or "atoms" not in data:
        raise ValueError('measure files need {"dim": ..., "atoms": [...]}')
    if not isinstance(data["atoms"], list):
        raise ValueError('"atoms" must be a list of {"x": ..., "w": ...} objects')
    dim = _parse_dim(data["dim"])
    atoms = []
    for i, entry in enumerate(data["atoms"]):
        if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
            raise ValueError(f'atom {i} must be an object with "x" and "w", got {entry!r}')
        atoms.append((_parse_ratios(entry["x"], dim), parse_ratio(entry["w"])))
    return from_ratios(dim, atoms)


def parse_cone(text: str, expected_dim: int | None = None) -> Cone:
    data = json.loads(text, parse_float=str)
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError('cone files need {"dim": ..., "kind": ...}')
    kind = data.get("kind", "generators")
    dim = _parse_dim(data["dim"])
    # checked before the cone is built: building costs O(dim^3) exact work
    if expected_dim is not None and dim != expected_dim:
        raise DimensionMismatch(f"cone dimension {dim} does not match {expected_dim}")
    # one side given: the other is filled in, which the bound may refuse
    # before a single vector is parsed
    given = [data[key] for key in ("rays", "normals") if key in data]
    if kind == "generators" and len(given) == 1 and isinstance(given[0], list):
        check_dual_work(dim, len(given[0]))
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


def _read_file(path: str, parse, *args):
    """``parse(text, *args)`` on the file's text; errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read(), *args)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        raise ValueError(f"{path}: {exc}") from None


def load_measure(path: str, normalize: bool = False) -> Measure:
    m = _read_file(path, parse_measure)
    return m.normalized() if normalize else m


def load_cone(spec: str, dim: int) -> Cone:
    if spec == "halfline":
        return Cone.halfline()
    if spec == "orthant":
        return Cone.orthant(dim)
    return _read_file(spec, parse_cone, dim)


# -- report helpers --------------------------------------------------------------


def _float_or_str(x) -> object:
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def point_json(pt) -> list:
    return [rat_str(c) for c in pt]


def direction_json(d: Direction) -> dict:
    # directions are normalized to <t, unit> = 1; the field keeps the report format
    return {"t": point_json(d.t), "normalization": "1"}


def radial_json(r: float) -> object:
    return _float_or_str(float(r))


def check_writable(*paths: Optional[str]) -> None:
    """Raise, before any work, the OSError that writing a path would raise.
    Only a path that ``access`` rejects is opened, to append: no file changes."""
    for path in filter(None, paths):
        if os.path.lexists(path):
            ok = not os.path.isdir(path) and os.access(path, os.W_OK)
        else:
            parent = os.path.dirname(path) or "."
            ok = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
        if not ok:
            open(path, "a", encoding="utf-8").close()


def write_report(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if json_path is None or json_path == "-":
        sys.stdout.write(text)
    else:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- commands --------------------------------------------------------------------
# Each command loads its inputs, writes any CSV and returns (report fields,
# exit code); main puts the common header in front and writes the report.


def _load_pair(args) -> tuple[Measure, Measure, Cone]:
    X = load_measure(args.X, args.normalize)
    Y = load_measure(args.Y, args.normalize)
    return X, Y, load_cone(args.cone, X.dim)


def _cmd_order_check(args) -> tuple[dict, int]:
    verdict = leq_st(*_load_pair(args))
    return dict(
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
    ), EXIT_OK


def _write_csv(path: str, header: str, rows) -> None:
    """Write the ``header`` line, then ``rows``: each row one f-string of
    int and float reprs joined by "," and ended by CRLF.  These are the bytes
    ``csv.writer`` writes, since no such repr holds a comma, a quote or a
    line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(rows)


def _write_spectrum_csv(result, path: str) -> None:
    _write_csv(
        path,
        "ray,theta,radial,lev_x,lev_y,margin",
        (
            f"{ray_idx},{theta!r},{radial!r},{lx!r},{ly!r},{m!r}\r\n"
            for ray_idx, rc in enumerate(result.per_ray)
            for theta, radial, lx, ly, m in rc.samples
        ),
    )
    with open(path + ".gp", "w", encoding="utf-8") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"plot '{path}' using 2:6 with lines title 'margin'\n"
        )


def _cmd_dominate(args) -> tuple[dict, int]:
    # a negative tolerance turns margins near 0 into violations, and NaN is
    # not valid JSON in the report
    if not (math.isfinite(args.margin_tol) and args.margin_tol >= 0):
        raise ValueError(f"--margin-tol must be finite and >= 0, got {args.margin_tol!r}")
    opts = SpectrumOptions(margin_tol=args.margin_tol, n_samples=args.samples, seed=args.seed)
    check_writable(args.csv, args.csv and args.csv + ".gp")
    result = spectral_verdict(*_load_pair(args), opts)
    if args.csv:
        _write_spectrum_csv(result, args.csv)
    return dict(
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
    ), EXIT_EPISTEMIC if result.verdict == "Inconclusive" else EXIT_OK


def _cmd_min_n(args) -> tuple[dict, int]:
    result = min_n(*_load_pair(args), n_max=args.n_max)
    return dict(
        found=result.found,
        n0=result.n0,
        stable_through=result.stable_through,
        failures=[
            {"n": n, "witness_upset": [point_json(p) for p in witness]}
            for n, witness in result.failures
        ],
    ), EXIT_OK if result.found else EXIT_EPISTEMIC


def _cmd_catalyst(args) -> tuple[dict, int]:
    X, Y, cone = _load_pair(args)
    if not is_upward_1d(cone):
        raise ValueError("catalyst searches only the upward half-line [0, inf)")
    step = parse_rational(args.grid_step) if args.grid_step is not None else None
    grid = default_catalyst_grid(X, Y, step=step)
    result = catalyst_1d(X, Y, grid)
    return dict(
        found=result is not None,
        grid=[rat_str(g) for g in grid],
        catalyst=None
        if result is None
        else {
            "atoms": [
                {"x": point_json(pt), "w": rat_str(w)}
                for pt, w in result.Z.atoms.items()
            ],
            "grid_step": rat_str(result.grid_step),
            "verified": result.verified,
        },
    ), EXIT_OK if result is not None else EXIT_EPISTEMIC


def _cmd_rate_fn(args) -> tuple[dict, int]:
    mu = load_measure(args.MU, args.normalize)
    cone = load_cone(args.cone, mu.dim)
    c = parse_point(args.c.split(","), mu.dim)
    result = rate_function(mu, c, cone, RateOptions(n_samples=args.samples, seed=args.seed))
    return dict(
        c=point_json(c),
        value=_float_or_str(result.value),
        certified=result.certified,
        maximizer=None
        if result.maximizer is None
        else {
            "direction": direction_json(result.maximizer[0]),
            "radial": radial_json(result.maximizer[1]),
        },
    ), EXIT_OK


def _write_rel_rate_csv(path: str, table: list, rhs: float, curve: list) -> None:
    _write_csv(path, "n,lhs,rhs", (f"{n},{v!r},{rhs!r}\r\n" for n, v in table))
    _write_csv(
        path + ".curve.csv",
        "ray,theta,r,g",
        (f"{ray_idx},{theta!r},{r!r},{g!r}\r\n" for ray_idx, theta, r, g in curve),
    )


def _cmd_rel_rate(args) -> tuple[dict, int]:
    eps = parse_rational(args.eps)
    if eps <= 0:
        raise ValueError("--eps must be positive")
    X, Y, cone = _load_pair(args)
    opts = RateOptions(n_samples=args.samples, seed=args.seed)
    check_writable(args.csv, args.csv and args.csv + ".curve.csv")
    ns = [n for n in (8, 16, 32, 64, 128, 256, 512) if n <= args.n_max] or [args.n_max]
    table = [(n, relative_rate_lhs(X, Y, cone, n, eps)) for n in ns]
    rhs = relative_rate_rhs(X, Y, cone, opts)
    if args.csv:
        _write_rel_rate_csv(args.csv, table, rhs.value, relative_rate_curve(X, Y, cone, opts))
    return dict(
        eps=rat_str(eps),
        rhs=_float_or_str(rhs.value),
        rhs_certified=rhs.certified,
        lhs_certified="exact" if X.dim == 1 else "lower-bound",
        lhs_table=[{"n": n, "lhs": _float_or_str(v)} for n, v in table],
    ), EXIT_OK


def _cmd_cramer(args) -> tuple[dict, int]:
    mu = load_measure(args.MU, args.normalize)
    cone = load_cone(args.cone, mu.dim)
    c = parse_point(args.c.split(","), mu.dim)
    value = cramer_empirical(mu, c, cone, args.n_max)
    return dict(c=point_json(c), n=args.n_max, value=_float_or_str(value)), EXIT_OK


# -- command table ---------------------------------------------------------------

# every option, in the order --help lists them
_OPTIONS = {
    "--cone": dict(default="halfline", help="halfline, orthant, or a cone file path"),
    "--c": dict(required=True, help="threshold point, comma-separated rationals"),
    "--n-max": dict(type=int, default=64),
    "--grid-step": dict(default=None),
    "--eps": dict(default="1/64"),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=32),
    "--margin-tol": dict(type=float, default=1e-9),
    "--workers": dict(type=int, default=1, help="accepted; has no effect"),
    "--csv": dict(default=None, help="write curve/table CSV to this path"),
    "--json": dict(default=None, help="write the JSON report here ('-' = stdout)"),
    "--normalize": dict(action="store_true", help="rescale inputs to mass 1"),
}

# options every command takes
_SHARED = ("--cone", "--seed", "--workers", "--json", "--normalize")


class _Command(NamedTuple):
    run: Callable  # args -> (report fields, exit code)
    help: str
    inputs: tuple  # (name, help) of each positional measure file
    options: tuple  # the options it reads besides _SHARED


_PAIR = (("X", "path to the first measure file"), ("Y", "path to the second measure file"))
_ONE = (("MU", "path to the measure file"),)
_SPECTRAL = ("--samples", "--margin-tol", "--csv")

_COMMANDS = {
    "order-check": _Command(_cmd_order_check, "decide the stochastic order exactly", _PAIR, ()),
    "spectrum": _Command(_cmd_dominate, "spectral comparison with CSV curves", _PAIR, _SPECTRAL),
    "dominate": _Command(_cmd_dominate, "spectral dominance verdict", _PAIR, _SPECTRAL),
    "min-n": _Command(_cmd_min_n, "stability window for walk-sum dominance", _PAIR, ("--n-max",)),
    "catalyst": _Command(_cmd_catalyst, "grid-relative catalyst search (1-D)", _PAIR, ("--grid-step",)),
    "rate-fn": _Command(_cmd_rate_fn, "rate function at a point", _ONE, ("--c", "--samples")),
    "rel-rate": _Command(_cmd_rel_rate, "relative decay rate, both sides", _PAIR,
                         ("--n-max", "--eps", "--samples", "--csv")),
    "cramer": _Command(_cmd_cramer, "empirical tail decay at sample size n", _ONE, ("--c", "--n-max")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkorder",
        description="Exact stochastic dominance and large-deviation rates for cone-ordered walks",
    )
    parser.add_argument("--version", action="version", version=f"walkorder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, text in command.inputs:
            p.add_argument(arg, help=text)
        for option, kwargs in _OPTIONS.items():
            if option in _SHARED or option in command.options:
                p.add_argument(option, **kwargs)
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
        command = _COMMANDS[args.command]
        if "--n-max" in command.options and args.n_max < 1:
            raise ValueError("--n-max must be at least 1")
        if "--samples" in command.options and not 0 <= args.samples <= MAX_SAMPLES:
            raise ValueError(f"--samples must be from 0 to {MAX_SAMPLES}")
        check_writable(None if args.json == "-" else args.json)
        fields, code = command.run(args)
        header = {"tool": "walkorder", "version": __version__, "command": args.command}
        write_report({**header, "seed": args.seed, **fields}, args.json)
    except (ValueError, AtomBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OverflowError as exc:  # the package raises it only where a float overflows
        print(f"error: a value is outside the float range of the sweeps ({exc})", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
