"""CLI round trips, exit codes, and report determinism."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from walkorder import cli
from walkorder.cli import (
    EXIT_EPISTEMIC,
    EXIT_ERROR,
    EXIT_OK,
    build_parser,
    main,
    parse_measure,
)
from walkorder.rational import rat

from conftest import kernel_settings, literals, measure_reference
from literal_parity import fraction_route


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return {
        "d0": write("d0.json", {"dim": 1, "atoms": [{"x": ["0"], "w": "1"}]}),
        "d1": write("d1.json", {"dim": 1, "atoms": [{"x": ["1"], "w": "1"}]}),
        "bern": write(
            "bern.json",
            {"dim": 1, "atoms": [{"x": ["0"], "w": "1/2"}, {"x": ["1"], "w": "1/2"}]},
        ),
        "bern34": write(
            "bern34.json",
            {"dim": 1, "atoms": [{"x": ["0"], "w": "1/4"}, {"x": ["1"], "w": "3/4"}]},
        ),
        "X": write(
            "X.json",
            {"dim": 1, "atoms": [{"x": ["2/5"], "w": "1/10"}, {"x": ["3/5"], "w": "9/10"}]},
        ),
        "Y": write(
            "Y.json",
            {"dim": 1, "atoms": [{"x": ["1/2"], "w": "1/2"}, {"x": ["4/5"], "w": "1/2"}]},
        ),
        "dir": tmp_path,
    }


def run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


class TestRoundTrip:
    def test_decimal_strings_convert_exactly(self):
        m = parse_measure('{"dim": 1, "atoms": [{"x": ["0.1"], "w": "0.25"}]}')
        assert dict(m.atoms) == {(rat(1, 10),): rat(1, 4)}


class TestCommands:
    def test_dominate_strict_exit0(self, capsys, files):
        code, out = run(capsys, ["dominate", files["d0"], files["d1"], "--cone", "halfline", "--json", "-"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "Strict"
        assert report["tool"] == "walkorder"

    def test_min_n_curated_regression(self, capsys, files):
        code, out = run(
            capsys,
            ["min-n", files["X"], files["Y"], "--cone", "halfline", "--n-max", "64", "--json", "-"],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["found"] is True
        assert report["n0"] == 14  # frozen oracle baseline
        assert report["stable_through"] == 64

    def test_rate_fn_value(self, capsys, files):
        code, out = run(capsys, ["rate-fn", files["bern"], "--c", "3/4", "--json", "-"])
        assert code == EXIT_OK
        value = json.loads(out)["value"]
        expected = math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
        assert abs(value - expected) < 1e-6

    def test_order_check_witness(self, capsys, files):
        code, out = run(capsys, ["order-check", files["bern"], files["bern34"], "--json", "-"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["dominated"] is True
        assert report["witness_coupling"]

    def test_catalyst_not_found_exit2(self, capsys, files):
        code, out = run(
            capsys,
            ["catalyst", files["bern34"], files["bern"], "--grid-step", "1/4", "--json", "-"],
        )
        assert code == EXIT_EPISTEMIC
        assert json.loads(out)["found"] is False

    def test_catalyst_found_for_curated_pair(self, capsys, files):
        code, out = run(
            capsys, ["catalyst", files["X"], files["Y"], "--grid-step", "1/10", "--json", "-"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["found"] is True and report["catalyst"]["verified"] is True

    @pytest.mark.parametrize(
        "cone", [None, "orthant", {"dim": 1, "kind": "generators", "rays": [["2"]]}]
    )
    def test_catalyst_upward_cones_give_the_default_report(self, capsys, files, cone):
        argv = ["catalyst", files["X"], files["Y"], "--grid-step", "1/10", "--json", "-"]
        default = run(capsys, argv)
        if isinstance(cone, dict):
            path = files["dir"] / "ray2.json"
            path.write_text(json.dumps(cone), encoding="utf-8")
            cone = str(path)
        assert default[0] == EXIT_OK
        assert run(capsys, argv + ([] if cone is None else ["--cone", cone])) == default

    def test_catalyst_missing_cone_file_exit1(self, capsys, files):
        argv = ["catalyst", files["bern34"], files["bern"], "--grid-step", "1/4", "--json", "-"]
        missing = str(files["dir"] / "does-not-exist.json")
        assert main(argv + ["--cone", missing]) == EXIT_ERROR
        assert "does-not-exist.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cone",
        [
            {"dim": 1, "kind": "generators", "rays": [["-1"]]},
            {"dim": 1, "kind": "generators", "rays": [["-2"]], "normals": [["-3"]], "unit": ["-5"]},
        ],
    )
    def test_catalyst_rejects_a_downward_cone(self, capsys, files, cone):
        path = files["dir"] / "cone.json"
        path.write_text(json.dumps(cone), encoding="utf-8")
        argv = ["catalyst", files["X"], files["Y"], "--grid-step", "1/10", "--cone", str(path)]
        assert main(argv + ["--json", "-"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "catalyst searches only the upward half-line" in captured.err

    def test_rel_rate_table(self, capsys, files):
        code, out = run(
            capsys,
            ["rel-rate", files["bern34"], files["bern"], "--eps", "1/64", "--n-max", "16", "--json", "-"],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert abs(report["rhs"] - (math.log(3) - math.log(2))) < 1e-6
        assert [row["n"] for row in report["lhs_table"]] == [8, 16]

    def test_cramer(self, capsys, files):
        code, out = run(
            capsys,
            ["cramer", files["bern"], "--c", "3/4", "--n-max", "256", "--json", "-"],
        )
        assert code == EXIT_OK
        assert abs(json.loads(out)["value"] + 0.130812) < 0.03

    def test_spectrum_csv(self, capsys, files, tmp_path):
        csv_path = tmp_path / "curves.csv"
        code, _ = run(
            capsys,
            ["spectrum", files["X"], files["Y"], "--csv", str(csv_path), "--json", "-"],
        )
        assert code == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "ray,theta,radial,lev_x,lev_y,margin"
        assert len(lines) > 250
        assert (tmp_path / "curves.csv.gp").exists()

    def test_csv_rows_match_csv_writer(self, tmp_path):
        import csv
        from types import SimpleNamespace

        from walkorder.cli import _write_rel_rate_csv, _write_spectrum_csv

        def with_writer(path, header, rows):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([row[0]] + [repr(v) for v in row[1:]])
            return path.read_bytes()

        odd = [math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 0.1, -1.5, 2.0**-1074 * 3]
        samples = [tuple(odd[(k + j) % len(odd)] for j in range(5)) for k in range(len(odd))]
        result = SimpleNamespace(
            per_ray=[SimpleNamespace(samples=samples), SimpleNamespace(samples=samples[::-1])]
        )
        _write_spectrum_csv(result, str(tmp_path / "s.csv"))
        expected = with_writer(
            tmp_path / "s_ref.csv",
            ["ray", "theta", "radial", "lev_x", "lev_y", "margin"],
            [(i, *row) for i, rc in enumerate(result.per_ray) for row in rc.samples],
        )
        assert (tmp_path / "s.csv").read_bytes() == expected
        assert b"inf,-inf,-0.0,0.0,5e-324\r\n" in expected

        table = [(8, -math.inf), (16, math.inf), (32, -0.0), (64, 5e-324)]
        curve = [(k % 3, odd[k], odd[-k - 1], odd[(3 * k) % len(odd)]) for k in range(len(odd))]
        for rhs in (math.inf, -0.0, 5e-324):
            _write_rel_rate_csv(str(tmp_path / "r.csv"), table, rhs, curve)
            assert (tmp_path / "r.csv").read_bytes() == with_writer(
                tmp_path / "r_ref.csv", ["n", "lhs", "rhs"], [(n, v, rhs) for n, v in table]
            )
            assert (tmp_path / "r.csv.curve.csv").read_bytes() == with_writer(
                tmp_path / "c_ref.csv", ["ray", "theta", "r", "g"], curve
            )

    def test_normalize_flag(self, capsys, tmp_path, files):
        raw = tmp_path / "unnorm.json"
        raw.write_text('{"dim": 1, "atoms": [{"x": ["0"], "w": "2"}, {"x": ["1"], "w": "2"}]}')
        code, out = run(capsys, ["rate-fn", str(raw), "--c", "3/4", "--normalize", "--json", "-"])
        assert code == EXIT_OK

    def test_planar_rate_fn(self, capsys, tmp_path):
        mu = tmp_path / "product.json"
        mu.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "atoms": [
                        {"x": ["0", "0"], "w": "1/4"},
                        {"x": ["0", "1"], "w": "1/4"},
                        {"x": ["1", "0"], "w": "1/4"},
                        {"x": ["1", "1"], "w": "1/4"},
                    ],
                }
            )
        )
        code, out = run(
            capsys,
            ["rate-fn", str(mu), "--c", "3/4,3/4", "--cone", "orthant", "--json", "-"],
        )
        assert code == EXIT_OK
        expected = 2 * (math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(json.loads(out)["value"] - expected) < 1e-5


class TestErrors:
    def test_mass_mismatch_exit1(self, capsys, tmp_path, files):
        bad = tmp_path / "half.json"
        bad.write_text('{"dim": 1, "atoms": [{"x": ["0"], "w": "1/2"}]}')
        code = main(["order-check", files["d0"], str(bad), "--json", "-"])
        assert code == EXIT_ERROR

    def test_parse_error_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"dim": 1, "atoms": [}')
        code = main(["rate-fn", str(bad), "--c", "1/2", "--json", "-"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    @pytest.mark.parametrize(
        "payload",
        [
            '{"dim": 1, "atoms": [{"x": ["0"]}]}',
            '{"dim": 1, "atoms": [{"w": "1"}]}',
            '[{"x": ["0"], "w": "1"}]',
            '"measure"',
            '{"dim": 1, "atoms": {"x": ["0"], "w": "1"}}',
            '{"dim": 1, "atoms": [["0", "1"]]}',
            '{"dim": [1], "atoms": []}',
            '{"dim": 1.9, "atoms": [{"x": ["1"], "w": "1"}]}',
            '{"dim": true, "atoms": [{"x": ["1"], "w": "1"}]}',
            '{"dim": 1, "atoms": [{"x": [true], "w": "1"}]}',
            '{"dim": 1, "atoms": [{"x": ["1"], "w": true}]}',
            "[" * 200000 + "]" * 200000,
        ],
        ids=[
            "missing-w", "missing-x", "list-json", "string-json", "atoms-object", "atom-list",
            "dim-list", "dim-fraction", "dim-bool", "x-bool", "w-bool", "deep-nesting",
        ],
    )
    def test_malformed_measure_exit1(self, capsys, tmp_path, files, payload):
        bad = tmp_path / "malformed.json"
        bad.write_text(payload)
        code = main(["order-check", files["d0"], str(bad), "--json", "-"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload",
        [
            "[1]",
            '{"kind": "orthant"}',
            '{"dim": 2, "kind": "generators"}',
            '{"dim": "two", "kind": "orthant"}',
            '{"dim": 1, "rays": 5}',
            '{"dim": 2.5, "kind": "orthant"}',
            '{"dim": 1.5, "kind": "halfline"}',
            '{"dim": true, "kind": "halfline"}',
            "[" * 200000 + "]" * 200000,
        ],
        ids=[
            "list-json", "missing-dim", "no-rays-or-normals", "dim-string", "rays-number",
            "dim-fraction", "dim-fraction-1d", "dim-bool", "deep-nesting",
        ],
    )
    def test_malformed_cone_exit1(self, capsys, tmp_path, files, payload):
        bad = tmp_path / "cone.json"
        bad.write_text(payload)
        code = main(["order-check", files["d0"], files["d1"], "--cone", str(bad), "--json", "-"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_negative_weight_names_the_point(self, capsys, tmp_path, files):
        bad = tmp_path / "negative.json"
        bad.write_text('{"dim": 2, "atoms": [{"x": ["1/2", "0"], "w": "-1"}]}')
        code = main(["order-check", str(bad), str(bad), "--json", "-"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {bad}: negative weight -1 at (1/2, 0)\n"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"dim": 2, "kind": "orthant", "unit": ["-1/2", "1"]}',
             "unit (-1/2, 1) is not interior (normal (1, 0))"),
            ('{"dim": 2, "rays": [["1", "0"], ["0", "1"]], "normals": [["1", "-1/2"]]}',
             "ray (0, 1) violates normal (1, -1/2): descriptions are inconsistent"),
        ],
        ids=["unit-not-interior", "ray-violates-normal"],
    )
    def test_bad_cone_names_its_points(self, capsys, tmp_path, payload, message):
        point = tmp_path / "point.json"
        point.write_text('{"dim": 2, "atoms": [{"x": ["0", "0"], "w": "1"}]}')
        bad = tmp_path / "cone.json"
        bad.write_text(payload)
        code = main(["order-check", str(point), str(point), "--cone", str(bad), "--json", "-"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {message}\n"
        assert "Fraction(" not in err

    def test_large_cone_dim_mismatch_exits_fast(self, files):
        # the dim mismatch must be caught before a 200-dim cone is built, which
        # takes half a minute; a subprocess turns a stall into a failure
        cone = files["dir"] / "cone200.json"
        cone.write_text('{"dim": 200, "kind": "orthant"}')
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["order-check", files["d0"], files["d0"], "--cone", str(cone), "--json", "-"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "walkorder.cli", *argv],
                capture_output=True, text=True, env=env, timeout=20,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("order-check did not exit within 20 s")
        assert proc.returncode == EXIT_ERROR
        assert "cone dimension 200 does not match 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fine_catalyst_grid_exits_fast(self, files):
        # 8001 grid points: the LP would take minutes, so the grid cap must
        # stop it before any row is built; a subprocess turns a stall into a
        # failure
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["catalyst", files["bern"], files["bern34"], "--grid-step", "1/2000", "--json", "-"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "walkorder.cli", *argv],
                capture_output=True, text=True, env=env, timeout=20,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("catalyst did not exit within 20 s")
        assert proc.returncode == EXIT_ERROR
        assert "catalyst grid has 8001 points, more than 1024" in proc.stderr
        assert "--grid-step" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_tiny_catalyst_grid_step_exits_fast(self, files):
        # 4 * 10^10 grid points: the cap must apply before the grid list is
        # built.  The child runs under a 1 GB address-space limit, so a return
        # to building the list ends in MemoryError instead of taking the
        # host's memory, and the timeout turns a stall into a failure.
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )
        argv = ["catalyst", files["bern"], files["bern34"], "--grid-step", "1/10000000000",
                "--json", "-"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "walkorder.cli", *argv],
                capture_output=True, text=True, env=env, timeout=20, preexec_fn=limit_memory,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("catalyst did not exit within 20 s")
        assert proc.returncode == EXIT_ERROR
        assert "catalyst grid has 40000000001 points, more than 1024" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_catalyst_on_measures_without_atoms_exit1(self, files):
        # default_catalyst_grid used to read the last support point of an
        # empty support and end in an IndexError traceback
        empty = files["dir"] / "empty.json"
        empty.write_text('{"dim": 1, "atoms": []}')
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["catalyst", str(empty), str(empty), "--json", "-"]
        proc = subprocess.run(
            [sys.executable, "-m", "walkorder.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr == "error: X must be normalized to total mass 1\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["dominate", "spectrum"])
    @pytest.mark.parametrize(
        "order, cone, message",
        [
            ("line-plane", "halfline", "measure dimensions differ: 1 vs 2"),
            ("plane-line", "orthant", "measure dimensions differ: 2 vs 1"),
            # the default half-line is 1-D, so the cone is checked first
            ("plane-line", "halfline", "cone dimension 1 does not match 2"),
        ],
    )
    def test_spectral_dimension_mismatch_exit1(self, capsys, files, command, order, cone, message):
        # both used to report "point has 1 coordinates, expected 2"
        plane = files["dir"] / "plane.json"
        plane.write_text('{"dim": 2, "atoms": [{"x": ["0", "0"], "w": "1"}]}')
        paths = {"line": files["d0"], "plane": str(plane)}
        argv = [command, *(paths[k] for k in order.split("-")), "--cone", cone, "--json", "-"]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file_exit1(self, capsys, files):
        assert main(["rate-fn", "/nonexistent.json", "--c", "1/2"]) == EXIT_ERROR

    @pytest.mark.parametrize("command", ["dominate", "spectrum"])
    @pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf", "-inf"])
    def test_bad_margin_tol_exit1(self, capsys, files, command, tol):
        # Bernoulli(1/2) <= Bernoulli(3/4) reads NonStrictOnly at the default;
        # -1 would make it Violated, and nan would write NaN into the report
        argv = [command, files["bern"], files["bern34"], f"--margin-tol={tol}", "--json", "-"]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--margin-tol must be finite and >= 0" in captured.err

    def test_zero_margin_tol_is_valid(self, capsys, files):
        argv = ["dominate", files["bern"], files["bern34"], "--json", "-"]
        code, out = run(capsys, argv + ["--margin-tol", "0"])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == json.loads(run(capsys, argv)[1])["verdict"]

    def test_empty_grid_step_exit1(self, capsys, files):
        argv = ["catalyst", files["X"], files["Y"], "--grid-step=", "--json", "-"]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse rational ''" in captured.err



class TestNumberRange:
    """Values past the float range of the sweeps, and number literals past
    the digits a report can print, exit 1 with one line instead of a
    traceback, a stall or a failure at report writing."""

    def test_coordinate_past_the_float_range(self, capsys, tmp_path):
        def write(name, atoms):
            path = tmp_path / name
            path.write_text(json.dumps({"dim": len(atoms[0]["x"]), "atoms": atoms}))
            return str(path)

        far = write("far.json", [{"x": ["1e400"], "w": "1/2"}, {"x": ["0"], "w": "1/2"}])
        one = write("one.json", [{"x": ["1"], "w": "1"}])
        far2 = write("far2.json", [{"x": ["1e400", "0"], "w": "1/2"}, {"x": ["0", "1"], "w": "1/2"}])
        for argv in (
            ["dominate", far, one],
            ["spectrum", far, one],
            ["rate-fn", far, "--c=1"],
            ["rel-rate", far, one, "--n-max", "2"],
            ["rate-fn", far2, "--c=1,1", "--cone", "orthant"],
        ):
            assert main([*argv, "--json", "-"]) == EXIT_ERROR, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: a value is outside the float range of the sweeps")
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        # the exact commands run on the same files
        for argv, expected in (
            (["order-check", far, one], EXIT_OK),
            (["min-n", far, one], EXIT_EPISTEMIC),
            (["cramer", far, "--c=1"], EXIT_OK),
        ):
            code, out = run(capsys, [*argv, "--json", "-"])
            assert code == expected and json.loads(out)["command"] == argv[0], argv
        code, out = run(capsys, ["order-check", far, one, "--json", "-"])
        assert json.loads(out)["witness_upset"] == [[str(10**400)]]

    @pytest.mark.parametrize("place", ["x", "w", "--eps", "--c"])
    def test_literal_digit_limit(self, capsys, files, tmp_path, int_digit_limit, place):
        def argv(literal):
            if place == "--eps":
                return ["rel-rate", files["bern"], files["bern"], "--n-max", "8", "--eps", literal]
            if place == "--c":
                return ["cramer", files["bern"], "--n-max", "8", "--c", literal]
            path = tmp_path / "literal.json"
            atom = {"x": [literal], "w": "1"} if place == "x" else {"x": ["0"], "w": literal}
            path.write_text(json.dumps({"dim": 1, "atoms": [atom]}))
            return ["order-check", str(path), str(path)]

        # refused at once, before ten is raised to the exponent
        for literal in ("1e4300", "1e10000000", "1e-10000000"):
            start = time.perf_counter()
            assert main([*argv(literal), "--json", "-"]) == EXIT_ERROR, literal
            assert time.perf_counter() - start < 5, literal
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert f"cannot parse rational '{literal}'" in captured.err
        # the longest numbers still parse and print
        for literal in ("1e4299", "12345e4295", "1e-4299"):
            code, out = run(capsys, [*argv(literal), "--json", "-"])
            assert code == EXIT_OK and f'"{rat(literal)}"' in out, literal


# a JSON number: the texts of these literals may stand in a file unquoted
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


class TestLiteralRoutes:
    """Measure files are read straight to integer views: the literals to int
    pairs, the atoms through ``measure.from_ratios``.  The result is the one
    the ``Fraction`` route built, and a refused file raises its message."""

    @staticmethod
    def reference(dim: int, atoms: list):
        """The measure file read on the ``Fraction`` route: every literal by
        ``Fraction(str)``, with the checks of ``as_rat`` and the message of
        ``cli.parse_rational``, then ``Measure(dim, atoms)`` on ``Fraction``s."""
        def value(token):
            text, bare = token
            if bare and _JSON_NUMBER.fullmatch(text)[2] is None and "e" not in text.lower():
                return int(text)
            try:
                return fraction_route(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse rational {text!r}: {exc}") from None

        return measure_reference(dim, [([value(c) for c in x], value(w)) for x, w in atoms])

    @staticmethod
    def file(dim: int, atoms: list) -> str:
        def token(tok):
            text, bare = tok
            return text if bare else json.dumps(text)

        entries = ", ".join(
            f'{{"x": [{", ".join(map(token, x))}], "w": {token(w)}}}' for x, w in atoms
        )
        return f'{{"dim": {dim}, "atoms": [{entries}]}}'

    def test_measure_file_equals_fraction_route(self, hyp, int_digit_limit):
        st = hyp.strategies

        def tokens(literal):
            # a literal that is a JSON number is written bare half the time
            return st.tuples(literal, st.booleans()).map(
                lambda t: (t[0], t[1] and _JSON_NUMBER.fullmatch(t[0]) is not None)
            )

        coordinate = tokens(st.one_of(literals(st), st.sampled_from(["0", "1/2", "-3", "0.5"])))
        weight = tokens(st.one_of(
            literals(st, signs=("", "+")),
            st.sampled_from(["0", "1/3", "2", "0.25", "-1/2"]),
            literals(st, bent=True),
        ))

        @st.composite
        def files(draw):
            dim = draw(st.integers(1, 3))
            points = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                                   min_size=1, max_size=4))
            # repeated points merge; a repeat may also be written another way
            picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=0, max_size=8))
            return dim, [(points[i], draw(weight)) for i in [*range(len(points)), *picks]]

        outcomes = set()

        @hyp.settings(kernel_settings(hyp), max_examples=150)
        @hyp.given(files())
        @hyp.example((2, [([("1/2", False), ("0.50", False)], ("1", True)),
                          ([("2/4", False), (".5", False)], ("1e-1", True))]))
        @hyp.example((1, [([("0.30000000000000000001", True)], ("0.5", True)),
                          ([("0.3", True)], ("1/2", False))]))
        def check(case):
            dim, atoms = case
            text = self.file(dim, atoms)
            try:
                cleaned, view, text_repr = self.reference(dim, atoms)
            except ValueError as exc:
                outcomes.add("refused")
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    parse_measure(text)
                return
            outcomes.add("read")
            m = parse_measure(text)
            assert m._int_view() == view
            assert list(m.atoms.items()) == list(cleaned.items())
            assert m.mass() == sum(cleaned.values())
            assert repr(m) == text_repr

        check()
        assert outcomes == {"read", "refused"}

    def test_no_fraction_until_atoms_are_read(self, monkeypatch):
        text = (
            '{"dim": 2, "atoms": ['
            '{"x": ["1", "-2/4"], "w": "1/6"}, {"x": [3, "0.25"], "w": 0.5},'
            '{"x": ["1.5e1", "10"], "w": "1/3"}, {"x": [" +1 ", "-0.5"], "w": "0"},'
            '{"x": ["1", "-1/2"], "w": 0}, {"x": [-1.25E-1, "7/3"], "w": "0.0e0"}]}'
        )
        built = []
        original = Fraction.__dict__["__new__"]

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original.__func__(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        m = parse_measure(text)
        assert len(m) == 3 and m.is_probability()
        view = m._int_view()
        assert built == []
        assert view == (4, [(4, -2), (12, 1), (60, 40)], 6, [1, 3, 2])
        assert dict(m.atoms) == {
            (rat(1), rat(-1, 2)): rat(1, 6),
            (rat(3), rat(1, 4)): rat(1, 2),
            (rat(15), rat(10)): rat(1, 3),
        }
        assert len(built) > 0


class TestJsonNumbers:
    """A JSON number is read from its literal text, exactly: a float's repr
    never stands in for it."""

    def test_close_numbers_stay_apart(self):
        m = parse_measure(
            '{"dim": 1, "atoms": [{"x": [0.30000000000000000001], "w": "1/2"},'
            ' {"x": [0.3], "w": 0.5}]}'
        )
        assert dict(m.atoms) == {
            (rat(30000000000000000001, 10**20),): rat(1, 2),
            (rat(3, 10),): rat(1, 2),
        }

    def test_witness_prints_the_exact_point(self, capsys, tmp_path, files):
        far = tmp_path / "far.json"
        far.write_text('{"dim": 1, "atoms": [{"x": [12345678901234567890.5], "w": 1}]}')
        code, out = run(capsys, ["order-check", str(far), files["d0"], "--json", "-"])
        assert code == EXIT_OK
        assert json.loads(out)["witness_upset"] == [["24691357802469135781/2"]]

    def test_numbers_past_the_float_range(self):
        m = parse_measure('{"dim": 1, "atoms": [{"x": [1e400], "w": 1}]}')
        assert dict(m.atoms) == {(rat(10**400),): 1}

    @pytest.mark.parametrize("place", ["x", "w", "dim", "unit"])
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_constants_exit1(self, capsys, tmp_path, files, place, constant):
        template = {
            "x": '{"dim": 1, "atoms": [{"x": [C], "w": 1}]}',
            "w": '{"dim": 1, "atoms": [{"x": [0], "w": C}]}',
            "dim": '{"dim": C, "atoms": []}',
            "unit": '{"dim": 1, "kind": "halfline", "unit": [C]}',
        }[place]
        bad = tmp_path / "constant.json"
        bad.write_text(template.replace("C", constant))
        if place == "unit":
            argv = ["order-check", files["d0"], files["d1"], "--cone", str(bad)]
        else:
            argv = ["order-check", str(bad), files["d0"]]
        assert main([*argv, "--json", "-"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {bad}: ") and "Traceback" not in captured.err


# the work each command does after its inputs are loaded
_SWEEPS = ("spectral_verdict", "min_n", "rate_function", "relative_rate_rhs", "relative_rate_lhs",
           "relative_rate_curve")


class TestFailBeforeWork:
    """Faults in the report targets, in ``--n-max`` or in ``--eps`` exit 1
    before any sweep starts, and leave a file already at a target as it was."""

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the work started before the fault was reported")

        for name in _SWEEPS:
            monkeypatch.setattr(cli, name, forbidden)
        return forbidden

    @staticmethod
    def argv(files, command) -> list:
        if command in ("rate-fn", "cramer"):
            return [command, files["bern"], "--c", "1/2"]
        return [command, files["bern"], files["bern34"]]

    @pytest.mark.parametrize("command", ["spectrum", "dominate", "min-n", "rate-fn", "rel-rate"])
    def test_unwritable_json_exit1(self, capsys, files, no_sweep, command):
        target = str(files["dir"] / "missing" / "report.json")
        assert main(self.argv(files, command) + ["--json", target]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert target in captured.err

    @pytest.mark.parametrize("command", ["spectrum", "dominate", "rel-rate"])
    def test_unwritable_csv_exit1(self, capsys, files, no_sweep, command):
        report = files["dir"] / "report.json"
        report.write_text("kept\n", encoding="utf-8")
        target = str(files["dir"] / "missing" / "curves.csv")
        argv = self.argv(files, command) + ["--csv", target, "--json", str(report)]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert report.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("command, suffix", [("dominate", ".gp"), ("rel-rate", ".curve.csv")])
    def test_unwritable_companion_file_exit1(self, capsys, files, no_sweep, command, suffix):
        target = files["dir"] / "curves.csv"
        target.write_text("kept\n", encoding="utf-8")
        (files["dir"] / f"curves.csv{suffix}").mkdir()
        assert main(self.argv(files, command) + ["--csv", str(target)]) == EXIT_ERROR
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
        assert target.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("option, message", [
        ("--n-max=0", "--n-max must be at least 1"),
        ("--eps=0", "--eps must be positive"),
        ("--eps=-1/2", "--eps must be positive"),
    ])
    def test_bad_rel_rate_option_exit1(self, capsys, files, no_sweep, option, message):
        # the CLI names the option before relative_rate_lhs is called
        kept = {files["dir"] / "report.json": "kept\n", files["dir"] / "curves.csv": "kept too\n"}
        for path, text in kept.items():
            path.write_text(text, encoding="utf-8")
        argv = self.argv(files, "rel-rate") + [option, "--json", str(files["dir"] / "report.json"),
                                               "--csv", str(files["dir"] / "curves.csv")]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {path: path.read_text(encoding="utf-8") for path in kept} == kept
        assert not (files["dir"] / "curves.csv.curve.csv").exists()

    @pytest.mark.parametrize("command, option", [
        ("min-n", "--n-max=0"), ("min-n", "--n-max=-3"), ("cramer", "--n-max=0"),
    ])
    def test_bad_n_max_exit1(self, capsys, files, monkeypatch, no_sweep, command, option):
        monkeypatch.setattr(cli, "cramer_empirical", no_sweep)
        report = files["dir"] / "report.json"
        report.write_text("kept\n", encoding="utf-8")
        assert main(self.argv(files, command) + [option, "--json", str(report)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: --n-max must be at least 1\n"
        assert report.read_text(encoding="utf-8") == "kept\n"

    def test_failed_run_leaves_no_new_file(self, capsys, files):
        targets = [files["dir"] / "new.json", files["dir"] / "new.csv"]
        argv = self.argv(files, "rel-rate") + ["--eps=0", "--json", str(targets[0])]
        assert main(argv + ["--csv", str(targets[1])]) == EXIT_ERROR
        assert not any(path.exists() for path in targets)

    def test_existing_targets_are_overwritten_on_success(self, capsys, files):
        argv = self.argv(files, "rel-rate") + ["--n-max", "8"]
        code, out = run(capsys, argv + ["--json", "-"])
        csv_path = files["dir"] / "fresh.csv"
        run(capsys, argv + ["--csv", str(csv_path)])
        fresh = {p.name: p.read_bytes() for p in (csv_path, files["dir"] / "fresh.csv.curve.csv")}
        report, stale = files["dir"] / "report.json", files["dir"] / "stale.csv"
        for path in (report, stale, files["dir"] / "stale.csv.curve.csv"):
            path.write_text("x" * 100000, encoding="utf-8")
        assert main(argv + ["--json", str(report), "--csv", str(stale)]) == code == EXIT_OK
        assert report.read_text(encoding="utf-8") == out
        assert stale.read_bytes() == fresh["fresh.csv"]
        assert (files["dir"] / "stale.csv.curve.csv").read_bytes() == fresh["fresh.csv.curve.csv"]


class TestParserReuse:
    """main builds its parser once per process and shares it between calls."""

    def test_bad_argument_after_success_exits_2(self, capsys, files):
        assert run(capsys, ["rate-fn", files["bern"], "--c", "3/4", "--json", "-"])[0] == EXIT_OK
        for argv in (
            ["rate-fn", files["bern"], "--c", "3/4", "--bogus"],
            ["rate-fn", files["bern"]],
            ["no-such-command"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "usage: walkorder" in captured.err and "error:" in captured.err

    def test_version(self, capsys, files):
        from walkorder import __version__

        run(capsys, ["dominate", files["d0"], files["d1"], "--json", "-"])
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"walkorder {__version__}\n"

    def test_identical_calls_write_identical_bytes(self, capsys, files):
        out = files["dir"]
        argv = [
            "spectrum", files["X"], files["Y"], "--samples", "4",
            "--json", str(out / "r.json"), "--csv", str(out / "r.csv"),
        ]
        written = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            written.append(((out / "r.json").read_bytes(), (out / "r.csv").read_bytes()))
        assert written[0] == written[1]
        # options of one call do not carry over to the next
        assert run(capsys, ["rate-fn", files["bern"], "--c", "3/4", "--json", "-"]) == run(
            capsys, ["rate-fn", files["bern"], "--c", "3/4", "--json", "-"]
        )

    def test_capsys_captures_every_call(self, capsys, files):
        outs = [run(capsys, ["cramer", files["bern"], "--c", "3/4", "--json", "-"])[1] for _ in range(3)]
        assert outs[0] and outs[0] == outs[1] == outs[2]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


SHARED_OPTIONS = {"--cone", "--seed", "--workers", "--json", "--normalize"}
OPTIONS = {
    "order-check": set(),
    "spectrum": {"--samples", "--margin-tol", "--csv"},
    "dominate": {"--samples", "--margin-tol", "--csv"},
    "min-n": {"--n-max"},
    "catalyst": {"--grid-step"},
    "rate-fn": {"--c", "--samples"},
    "rel-rate": {"--n-max", "--eps", "--samples", "--csv"},
    "cramer": {"--c", "--n-max"},
}


class TestOptionTable:
    """Each command takes the shared options and the ones it reads, no more."""

    def test_each_command_takes_the_options_it_reads(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(OPTIONS)
        for name, extra in OPTIONS.items():
            taken = {o for a in sub.choices[name]._actions for o in a.option_strings}
            assert taken - {"-h", "--help"} == SHARED_OPTIONS | extra, name
        assert sum(len(SHARED_OPTIONS | extra) for extra in OPTIONS.values()) == 56

    @pytest.mark.parametrize(
        "argv",
        [
            ["order-check", "X", "Y", "--eps", "1/2"],
            ["spectrum", "X", "Y", "--n-max", "8"],
            ["dominate", "X", "Y", "--grid-step", "1/4"],
            ["min-n", "X", "Y", "--csv", "out.csv"],
            ["catalyst", "X", "Y", "--samples", "3"],
            ["rate-fn", "bern", "--c", "3/4", "--eps", "1/2"],
            ["rel-rate", "X", "Y", "--margin-tol", "0.1"],
            ["cramer", "bern", "--c", "3/4", "--samples", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_an_unread_option_exits_2(self, capsys, files, argv):
        argv = [files[a] if a in ("X", "Y", "bern") else a for a in argv]
        argv = [str(files["dir"] / a) if a == "out.csv" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json", "-"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not (files["dir"] / "out.csv").exists()


def quick_start_lines() -> list[str]:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("walkorder ")]


class TestReadme:
    def test_quick_start_has_every_command(self):
        assert {shlex.split(line)[1] for line in quick_start_lines()} == set(OPTIONS)

    @pytest.mark.parametrize("line", quick_start_lines(), ids=lambda line: shlex.split(line)[1])
    def test_quick_start_line_runs(self, capsys, files, line):
        # input files map to the fixture files of the same name; every other
        # file argument is an output and goes to the fixture directory
        argv = []
        for arg in shlex.split(line)[1:]:
            if arg.endswith((".json", ".csv")):
                arg = files.get(arg.rsplit(".", 1)[0]) or str(files["dir"] / arg)
            argv.append(arg)
        assert main(argv) in (EXIT_OK, EXIT_EPISTEMIC), line
        assert "error" not in capsys.readouterr().err


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, capsys, files):
        commands = [
            ["order-check", files["bern"], files["bern34"], "--json", "-"],
            ["dominate", files["X"], files["Y"], "--seed", "3", "--json", "-"],
            ["min-n", files["X"], files["Y"], "--n-max", "8", "--json", "-"],
            ["catalyst", files["X"], files["Y"], "--grid-step", "1/10", "--json", "-"],
            ["rate-fn", files["bern"], "--c", "3/4", "--json", "-"],
            ["rel-rate", files["bern34"], files["bern"], "--n-max", "8", "--json", "-"],
            ["cramer", files["bern"], "--c", "3/4", "--n-max", "64", "--json", "-"],
        ]
        for argv in commands:
            first = run(capsys, argv)
            second = run(capsys, argv)
            assert first == second, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["order-check", "bern", "bern34"],
            ["spectrum", "X", "Y", "--samples", "2"],
            ["dominate", "X", "Y", "--samples", "2"],
            ["min-n", "X", "Y", "--n-max", "2"],
            ["catalyst", "X", "Y", "--grid-step", "1/2"],
            ["rate-fn", "bern", "--c", "3/4"],
            ["rel-rate", "bern34", "bern", "--n-max", "8"],
            ["cramer", "bern", "--c", "3/4", "--n-max", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_report_starts_with_the_common_header(self, capsys, files, argv):
        from walkorder import __version__

        argv = [files.get(a, a) for a in argv]
        code, out = run(capsys, argv + ["--seed", "5", "--json", "-"])
        assert code in (EXIT_OK, EXIT_EPISTEMIC)
        report = json.loads(out)
        header = {"tool": "walkorder", "version": __version__, "command": argv[0], "seed": 5}
        assert list(report.items())[:4] == list(header.items())

    def test_reports_identical_across_worker_counts(self, capsys, files):
        outs = []
        for workers in ("1", "2", "4"):
            _, out = run(
                capsys,
                ["dominate", files["X"], files["Y"], "--workers", workers, "--json", "-"],
            )
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


class TestAtomOrder:
    """A report and its CSVs do not depend on the order in which a measure
    file lists its atoms: the file read in reverse, or shuffled, gives the
    same bytes."""

    @staticmethod
    def atoms(rng, dim: int, den: int) -> list:
        k = rng.randint(2, 5)
        points = set()
        while len(points) < k:
            points.add(tuple(f"{rng.randint(-4, 4)}/{rng.choice((1, 2, 3))}" for _ in range(dim)))
        cuts = sorted(rng.sample(range(1, den), k - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        return [{"x": list(x), "w": f"{p}/{den}"} for x, p in zip(sorted(points, key=str), parts)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reports_do_not_depend_on_atom_order(self, capsys, tmp_path, dim):
        rng = random.Random(181 + dim)
        cone = "halfline" if dim == 1 else "orthant"
        c = ",".join(["1/3"] * dim)
        commands = [
            ["order-check", "X", "Y"],
            ["spectrum", "X", "Y", "--samples", "2", "--csv", "CSV"],
            ["dominate", "X", "Y", "--samples", "3", "--csv", "CSV"],
            ["min-n", "X", "Y", "--n-max", "6"],
            ["rate-fn", "X", "--c", c, "--samples", "3"],
            # n = 16 in 2-D takes seconds: one row at n = 8 there
            ["rel-rate", "X", "Y", "--n-max", str(24 // dim), "--samples", "3", "--csv", "CSV"],
            ["cramer", "Y", "--c", c, "--n-max", "12"],
        ]
        if dim == 1:  # the catalyst search is 1-D only
            commands.append(["catalyst", "X", "Y", "--grid-step", "1/6"])
        pairs = [(self.atoms(rng, dim, 12), self.atoms(rng, dim, 10)) for _ in range(3)]
        if dim == 1:  # a pair with a catalyst
            pairs.append((
                [{"x": ["2/5"], "w": "1/10"}, {"x": ["3/5"], "w": "9/10"}],
                [{"x": ["1/2"], "w": "1/2"}, {"x": ["4/5"], "w": "1/2"}],
            ))
        csv = str(tmp_path / "out.csv")
        csvs = [csv, csv + ".gp", csv + ".curve.csv"]

        def outputs(x_atoms, y_atoms):
            paths = {}
            for name, atoms in (("X", x_atoms), ("Y", y_atoms)):
                paths[name] = str(tmp_path / f"{name}.json")
                Path(paths[name]).write_text(json.dumps({"dim": dim, "atoms": atoms}), encoding="utf-8")
            paths["CSV"] = csv
            result = []
            for argv in commands:
                for path in csvs:
                    if os.path.exists(path):
                        os.remove(path)
                code, out = run(capsys, [paths.get(a, a) for a in argv] + ["--cone", cone, "--json", "-"])
                assert code in (EXIT_OK, EXIT_EPISTEMIC), argv
                written = [Path(p).read_bytes() for p in csvs if os.path.exists(p)]
                assert bool(written) == ("--csv" in argv), argv
                result.append((code, out, written))
            return result

        found = False
        for x_atoms, y_atoms in pairs:
            expected = outputs(x_atoms, y_atoms)
            found |= any('"found": true' in out for _, out, _ in expected[-1:])
            shuffled_x, shuffled_y = x_atoms[:], y_atoms[:]
            rng.shuffle(shuffled_x)
            rng.shuffle(shuffled_y)
            assert outputs(x_atoms[::-1], y_atoms[::-1]) == expected
            assert outputs(shuffled_x, shuffled_y) == expected
        assert found == (dim == 1)
