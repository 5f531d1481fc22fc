"""CLI round trips, exit codes, and report determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walkorder.cli import (
    EXIT_EPISTEMIC,
    EXIT_ERROR,
    EXIT_OK,
    load_measure,
    main,
    parse_cone,
    parse_measure,
    serialize_cone,
    serialize_measure,
)


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
    def test_measure_serialize_parse_identity(self, files):
        m = load_measure(files["X"])
        canonical = serialize_measure(m)
        assert serialize_measure(parse_measure(canonical)) == canonical

    def test_decimal_strings_convert_exactly(self):
        m = parse_measure('{"dim": 1, "atoms": [{"x": ["0.1"], "w": "0.25"}]}')
        canonical = serialize_measure(m)
        assert json.loads(canonical)["atoms"] == [{"x": ["1/10"], "w": "1/4"}]

    def test_cone_serialize_parse_identity(self):
        cone = parse_cone('{"dim": 2, "kind": "orthant"}')
        canonical = serialize_cone(cone)
        assert serialize_cone(parse_cone(canonical)) == canonical


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
        ],
        ids=[
            "missing-w", "missing-x", "list-json", "string-json", "atoms-object", "atom-list",
            "dim-list",
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
        ],
        ids=["list-json", "missing-dim", "no-rays-or-normals", "dim-string", "rays-number"],
    )
    def test_malformed_cone_exit1(self, capsys, tmp_path, files, payload):
        bad = tmp_path / "cone.json"
        bad.write_text(payload)
        code = main(["order-check", files["d0"], files["d1"], "--cone", str(bad), "--json", "-"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

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

    def test_missing_file_exit1(self, capsys, files):
        assert main(["rate-fn", "/nonexistent.json", "--c", "1/2"]) == EXIT_ERROR


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

    def test_reports_identical_across_worker_counts(self, capsys, files):
        outs = []
        for workers in ("1", "2", "4"):
            _, out = run(
                capsys,
                ["dominate", files["X"], files["Y"], "--workers", workers, "--json", "-"],
            )
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
