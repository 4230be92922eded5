"""Tests for eichler.cli: output schema, determinism, exit codes, and the
verification battery."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import eichler
from eichler.cli import build_parser, main, run

DATA = pathlib.Path(__file__).parent / "data"


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# output schema and determinism


class TestSchema:
    def test_record_keys_and_value_shape(self):
        code, rec = run_json(["l-value", "--r", "12", "--s", "6"])
        assert code == 0
        assert list(rec) == ["command", "params", "results", "residuals",
                             "tolerance", "pass"]
        assert rec["command"] == "l-value"
        for row in rec["results"]:
            assert set(row) == {"inputs", "value"}
            assert len(row["value"]) == 2
        assert rec["pass"] is True

    def test_pass_iff_all_residuals_within_tolerance(self):
        code, rec = run_json(["l-value", "--r", "12", "--s", "6"])
        assert rec["pass"] == all(x <= rec["tolerance"] for x in rec["residuals"])
        # same command, tolerance below the residual: must report failure
        code, rec = run_json(["cauchy", "--r", "0.7", "--tol", "1e-14"])
        assert code == 1
        assert rec["pass"] is False
        assert any(x > rec["tolerance"] for x in rec["residuals"])

    def test_byte_identical_reruns(self):
        a = run(["cocycle-check", "--r", "2.5", "--points", "2"])
        b = run(["cocycle-check", "--r", "2.5", "--points", "2"])
        assert a == b

    def test_complex_flag_parsing(self):
        code, rec = run_json(["kernel-expand", "--r", "0.5,0.1"])
        assert code == 0
        assert rec["params"]["r"] == [0.5, 0.1]

    def test_csv_rows(self):
        code, text = run(["l-value", "--r", "12", "--s", "6", "--format", "csv"])
        lines = text.splitlines()
        assert lines[0] == "command,inputs,value_re,value_im,residual"
        # two value rows plus one residual row (counts differ for l-value)
        assert len(lines) == 4
        assert lines[-1].split(",")[-1] != ""


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_bad_flag_is_2(self, capsys):
        assert main(["period", "--bogus"]) == 2
        assert main(["no-such-command"]) == 2

    def test_out_of_range_tolerance_is_2(self, capsys):
        assert main(["period", "--r", "2.5", "--tol", "0.5"]) == 2
        assert main(["period", "--r", "2.5", "--tol", "1e-15"]) == 2

    def test_refusal_is_3_with_reason(self):
        code, text = run(["quantum", "--r", "-0.5"])
        assert code == 3
        err = json.loads(text)
        assert err["command"] == "quantum"
        assert err["error"]["type"] == "DomainError"
        assert "r" in err["error"]["reason"]

    def test_pole_is_3(self):
        code, text = run(["cauchy", "--r", "2"])
        assert code == 3
        assert json.loads(text)["error"]["type"] == "PoleError"

    @pytest.mark.parametrize("argv,named", [
        (["period", "--r", "1e300"], "r=(1e+300+0j)"),
        (["quantum", "--r", "1e300"], "r=(1e+300+0j)"),
        (["l-value", "--r", "12", "--s", "1e300"], "s=(1e+300+0j)"),
        (["cocycle-check", "--r", "1e300"], "r=(1e+300+0j)"),
        (["harmonic-check", "--r", "1e300"], "r=(1e+300+0j)"),
        (["kernel-expand", "--r", "1e300"], "r=(1e+300+0j)"),
        (["lerch", "--s", "1e300", "--a", "0.3", "--z", "1.7"], "s=(1e+300+0j)"),
        (["lerch", "--s", "2.5", "--a", "0.3", "--z", "1e300"], "z=(1e+300+0j)"),
        (["period", "--r", "1,1e300"], "r=(1+1e+300j)"),
        (["quantum", "--r", "1,1e300"], "r=(1+1e+300j)"),
        (["cocycle-check", "--r", "1,1e300"], "r=(1+1e+300j)"),
        (["lerch", "--s", "300", "--a", "0.3", "--z", "0.01"], "s=(300+0j)"),
        (["lerch", "--s", "2.5,700", "--a", "0.3", "--z", "1.7"], "s=(2.5+700j)"),
    ])
    def test_overflowing_input_is_3(self, argv, named):
        # finite but huge: refused by the library, naming the input
        code, text = run(argv)
        assert code == 3
        err = json.loads(text)["error"]
        assert err["type"] == "RefusalError"
        assert named in err["reason"]

    @pytest.mark.parametrize("argv,codes", [
        (["period", "--r", "1,300"], (3,)),
        (["cauchy", "--r", "0.7,300"], (1, 3)),
    ])
    def test_panel_budget_ends_fast(self, argv, codes):
        # a non-converging integrand is refused by the panel budget instead
        # of bisecting for minutes; cauchy's integrals may end first with a
        # value that its residual check fails
        start = time.perf_counter()
        code, text = run(argv)
        assert time.perf_counter() - start < 10.0
        assert code in codes
        json.loads(text)

    def test_non_finite_result_is_3(self, monkeypatch):
        real = eichler.cli.cmd_lerch
        def nan_value(args):
            rec = real(args)
            rec["results"][0]["value"] = [math.nan, math.inf]
            return rec
        monkeypatch.setattr(eichler.cli, "cmd_lerch", nan_value)
        code, text = run(["lerch", "--s", "2.5", "--a", "0.3", "--z", "1.7"])
        assert code == 3
        assert json.loads(text)["results"][0]["value"] == [None, None]

    def test_inadmissible_average_cell_is_3(self):
        code, text = run(["average", "--lam", "0.9", "--sign", "plus",
                          "--r", "0.7"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["period", "--r", "inf"],
        ["period", "--r", "1,nan"],
        ["l-value", "--s", "1e400"],
        ["lerch", "--s", "2.5", "--a", "nan", "--z", "1.7"],
        ["quantum", "--z0", "inf"],
        ["quantum", "--a", "1e400"],
        ["goldfeld", "--fixture", str(DATA / "curve37a_an.csv"), "--level", "0"],
        ["goldfeld", "--fixture", str(DATA / "curve37a_an.csv"), "--level", "-5"],
        ["goldfeld", "--n-max", "0"],
        ["kernel-expand", "--terms", "0"],
        ["period", "--points", "-1"],
        ["period", "--points", "0"],
        ["period", "--points", "11"],
        ["cocycle-check", "--points", "0"],
        ["cocycle-check", "--points", "11"],
        ["average", "--points", "0"],
    ])
    def test_bad_value_is_2_at_parse_time(self, argv, capsys):
        assert run(argv) == (2, "")

    @pytest.mark.parametrize("content", [
        None,                          # missing file
        "directory",                   # unreadable: a directory
        "",                            # no header
        "n,b_n\n1,1\n",                # no a_n column
        "k,a_n\n1,1\n",                # no n column
        "n,a_n\n",                     # no rows
        "n,a_n\n1,one\n",              # non-numeric value
        "n,a_n\n1,1\n2\n",             # missing value
        "n,a_n\n1,1\n3,-2\n",          # n past the row count
        "n,a_n\n0,1\n1,-2\n",          # n = 0
        "n,a_n\n1,1\n1,-2\n",          # repeated n
    ])
    def test_bad_fixture_is_3(self, content, tmp_path):
        path = tmp_path / "fixture.csv"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        code, text = run(["goldfeld", "--fixture", str(path)])
        assert code == 3
        err = json.loads(text)["error"]
        assert err["type"] == "DomainError"
        assert str(path) in err["reason"]

    def test_main_prints(self, capsys):
        assert main(["l-value", "--r", "12", "--s", "6"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True


# ---------------------------------------------------------------------------
# individual subcommands


class TestSubcommands:
    def test_period_relations_pass(self):
        code, rec = run_json(["period", "--r", "2.5", "--check-relations"])
        assert code == 0
        assert rec["pass"] is True
        assert all(x <= 1e-7 for x in rec["residuals"])
        assert len(rec["results"]) == 5

    def test_l_value_routes_agree(self):
        code, rec = run_json(["l-value", "--r", "12", "--s", "6"])
        a, b = (complex(*row["value"]) for row in rec["results"])
        assert abs(a - b) <= 1e-8 * abs(b)

    @pytest.mark.parametrize("s", ["-2", "0"])
    def test_l_value_at_gamma_pole(self, s):
        # Gamma(s) has a pole and L(s) a trivial zero; I(12, s) is finite
        code, rec = run_json(["l-value", "--r", "12", "--s", s])
        assert code == 0
        assert rec["residuals"][0] <= 1e-8

    def test_quantum_rational_cusp(self):
        code, rec = run_json(["quantum", "--r", "3", "--a", "1/2",
                              "--delta", "T"])
        assert code == 0
        assert rec["params"]["a"] == "1/2"

    def test_goldfeld_fixture_matches_builtin(self):
        code, builtin = run_json(["goldfeld"])
        assert code == 0
        code, fromfile = run_json(["goldfeld", "--fixture",
                                   str(DATA / "curve37a_an.csv")])
        assert code == 0
        lp = builtin["results"][0]["value"][0]
        lp_file = fromfile["results"][0]["value"][0]
        assert abs(lp - lp_file) <= 1e-12
        assert abs(lp - 0.30599977383405236) <= 1e-10

    def test_harmonic_check(self):
        code, rec = run_json(["harmonic-check", "--r", "0.6,0.2"])
        assert code == 0
        assert max(rec["residuals"]) <= 1e-4


# ---------------------------------------------------------------------------
# the verification battery


class TestVerifyAll:
    def test_quick_passes(self):
        code, rec = run_json(["verify-all", "--quick"])
        assert code == 0
        assert rec["pass"] is True
        # every acceptance criterion is represented
        nums = {row["inputs"]["criterion"] for row in rec["results"]}
        assert nums == set(range(1, 14))
        # normalized residuals against the per-check tolerances
        assert rec["tolerance"] == 1.0
        for row, res in zip(rec["results"], rec["residuals"]):
            assert res == pytest.approx(
                row["value"][0] / row["inputs"]["tolerance"])


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("period", "cocycle-check", "l-value", "lerch", "average",
                 "harmonic-check", "kernel-expand", "cauchy", "quantum",
                 "goldfeld", "verify-all"):
        assert name in text


def test_import_eichler_leaves_cli_unloaded():
    # the library does not pull in its command-line front end
    src = str(pathlib.Path(eichler.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, eichler; assert 'eichler.cli' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
