"""Command-line surface: parsing, output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e2crit import DEFAULT, f0_contour
from e2crit.cli import build_parser, main, parse_complex
from e2crit.zeros import F0_CUSP_DELTA, F0_TOP
from tests_helpers import F0_SETTINGS

PI = math.pi

# one quick invocation of each subcommand; eval draws no polyline
SUBCOMMANDS = {
    "eval": ("eval", "--fn", "eta1", "--tau", "0+1i"),
    "find-tau": ("find-tau", "--C", "0.5"),
    "trace": ("trace", "--branch", "zero", "--clo", "0.3", "--chi", "0.4", "--steps", "2"),
    "count": ("count", "--fn", "fc", "--C", "0.5", "--region", "F0"),
    "critical": ("critical", "--max-c", "2"),
    "verify": ("verify", "--suite", "special"),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("0+1i") == 1j
        assert parse_complex("0.5-0.8i") == complex(0.5, -0.8)
        assert parse_complex("1.5e0+2e-1i") == complex(1.5, 0.2)
        assert parse_complex("0+i") == 1j
        with pytest.raises(Exception):
            parse_complex("1 + 2i")


class TestEval:
    def test_eta1_at_i(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "eta1", "--tau", "0+1i")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "fn,re,im,err_bound"
        fields = row.split(",")
        assert fields[0] == "eta1"
        assert abs(float(fields[1]) - PI) < 1e-12

    def test_g2_near_corner(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "g2", "--tau", "0.5+0.8660254038i")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[1])) < 1e-7

    def test_zrs2_half_lattice(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "zrs2", "--rs", "0.5,0",
                               "--tau", "0.3+2i")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(complex(float(row[1]), float(row[2]))) < 1e-10

    def test_negative_tau_and_pair(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "wp", "--rs", "-0.25,0.5",
                               "--tau", "-0.5+1i")
        assert code == 0
        code, out_shifted, _ = run_cli(capsys, "eval", "--fn", "wp", "--rs", "0.75,0.5",
                                       "--tau", "0.5+1i")
        assert code == 0
        a = [float(v) for v in out.strip().splitlines()[1].split(",")[1:3]]
        b = [float(v) for v in out_shifted.strip().splitlines()[1].split(",")[1:3]]
        assert a == pytest.approx(b, rel=1e-12)

    def test_pullback_far_above(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--fn", "ek", "--k", "1",
                                 "--tau=-2.998967914617505+0.0034919576655647135i")
        assert code == 0, err
        assert all(math.isfinite(float(v)) for v in out.strip().splitlines()[1].split(",")[1:])

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "fc", "--tau", "0.5+1i")
        assert code == 2
        assert "--C" in err

    @pytest.mark.parametrize("command, fn, flag", [
        ("eval", "wp", "rs"), ("eval", "zeta", "rs"), ("eval", "zrs", "rs"),
        ("eval", "zrs2", "rs"), ("eval", "fc", "C"), ("eval", "ek", "k"),
        ("count", "zrs", "rs"), ("count", "zrs2", "rs"), ("count", "fc", "C"),
    ])
    def test_missing_flag_message(self, capsys, command, fn, flag):
        where = ("--tau", "0.5+1i") if command == "eval" else ("--region", "F0")
        assert run_cli(capsys, command, "--fn", fn, *where) == (
            2, "", f"--{flag} is required for --fn {fn}\n")

    def test_numeric_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "zrs", "--rs", "0,0",
                               "--tau", "0.5+1i")
        assert code == 3
        assert "PoleAtLattice" in err

    def test_fc_scale_past_the_float_range_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "fc", "--C", "1e200", "--tau", "0.3+1i")
        assert code == 3
        assert err.startswith("Diverged:") and "past the float range" in err


class TestFindTau:
    def test_half(self, capsys):
        code, out, _ = run_cli(capsys, "find-tau", "--C", "0.5")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.5, abs=1e-9)
        assert 0.866 < float(row[2]) < 1.2
        assert row[4] == "zero"

    def test_non_finite_C_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "find-tau", "--C", "nan")
        assert code == 2
        assert "finite" in err

    def test_no_zero_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "find-tau", "--C", "0")
        assert code == 4
        assert "no zero" in err

    def test_minus_branch(self, capsys):
        code, out, _ = run_cli(capsys, "find-tau", "--C", "-3")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "minus"
        assert float(row[3]) < 1e-9

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.5e-2", "-2.5e+1"])
    def test_negative_scientific_notation(self, capsys, value):
        # argparse alone reads these as options ("expected one argument")
        code, out, _ = run_cli(capsys, "find-tau", "--C", value)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[0]) == float(value)
        assert row[4] == "minus"


class TestTrace:
    def test_csv_contract(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "--out", str(out_file), "trace",
                             "--branch", "zero", "--clo", "0.2", "--chi", "0.8",
                             "--steps", "7")
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "C,re_tau,im_tau,residual,branch"
        assert len(lines) == 8
        cs = [float(line.split(",")[0]) for line in lines[1:]]
        assert cs == sorted(cs)

    def test_empty_interval_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "trace", "--branch", "zero",
                             "--clo", "0.8", "--chi", "0.2", "--steps", "5")
        assert code == 2

    def test_negative_scientific_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--branch", "minus", "--clo", "-1e4",
                               "--chi", "-2e-4", "--steps", "5")
        assert code == 0
        cs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert cs[0] == -1e4 and cs[-1] == -2e-4

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "--out", str(path), "trace", "--branch", "minus",
                    "--clo", "-3", "--chi", "-1", "--steps", "5")
        assert a.read_bytes() == b.read_bytes()


class TestCount:
    def test_f0_region(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--fn", "zrs2",
                               "--rs", "0.1666667,0.1666667", "--region", "F0")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "1"
        assert int(row[1]) > 0

    def test_triangle0_zero_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--fn", "zrs2",
                               "--rs", "0.3333333,0.3333333", "--region", "F0")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[0] == "0"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_t_top_is_usage_error(self, capsys, value):
        code, _, err = run_cli(capsys, "count", "--fn", "fc", "--C", "0.3",
                               "--region", "F0", f"--t-top={value}")
        assert code == 2
        assert "t_top" in err

    def test_zero_near_the_low_edge_counted(self, capsys):
        # f_C has a zero close to this rectangle's bottom edge; the count
        # passes the tau-derivative, and the derivative gate refines the
        # default 24 points per side until it is seen
        code, out, _ = run_cli(capsys, "--format", "json", "count", "--fn", "fc",
                               "--C", "-0.347830332744998",
                               "--region=-0.2226198,0.7623387,0.0667083,1.1358003")
        assert code == 0
        assert json.loads(out)[0]["count"] == 5

    def test_fc_rectangle(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--fn", "fc", "--C", "0.5",
                               "--region", "0,1,0.9,1.2")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[0] == "1"


class TestCritical:
    def test_columns_and_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--max-c", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,d,re_tau,im_tau,residual_E2prime,residual_scaled"
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        assert any(r[:4] == ["1", "-1", "2", "-1"] for r in rows)
        for r in rows:
            assert float(r[6]) < 1e-8
            assert float(r[7]) < 1e-9
        points = {(r[4], r[5]) for r in rows}
        assert len(points) == len(rows)


    def test_high_tiles(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--max-c", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 46
        for line in lines[1:]:
            assert float(line.split(",")[7]) < 1e-9


class TestConfig:
    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "eval",
                               "--fn", "eta1", "--tau", "0+1i")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and payload[0]["fn"] == "eta1"

    def test_eps_flag_sets_err_bound(self, capsys):
        code, out, _ = run_cli(capsys, "--eps", "1e-10", "eval",
                               "--fn", "eta1", "--tau", "0+1i")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1e-10

    @pytest.mark.parametrize("t_top, cusp_delta, admitted", F0_SETTINGS)
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_f0_settings_checked_as_f0_contour_checks(self, capsys, command, t_top,
                                                      cusp_delta, admitted):
        # every subcommand refuses, before any work, exactly the truncated F0
        # settings that f0_contour refuses, in the library's words
        try:
            f0_contour(t_top, cusp_delta)
            refusal = None
        except ValueError as exc:
            refusal = f"configuration error: {exc}\n"
        code, out, err = run_cli(capsys, f"--t-top={t_top!r}", f"--cusp-delta={cusp_delta!r}",
                                 *SUBCOMMANDS[command])
        if refusal is None:
            assert code == 0 and out and not err, err
        else:
            assert (code, out, err) == (2, "", refusal)

    @pytest.mark.parametrize("flag", ["--t-top=nan", "--cusp-delta=0.26"])
    def test_f0_settings_after_the_subcommand_checked(self, capsys, flag):
        code, out, err = run_cli(capsys, "eval", flag, "--fn", "eta1", "--tau", "0+1i")
        assert code == 2 and out == "" and err.startswith("configuration error:")

    def test_defaults_are_the_library_ones(self, capsys):
        args = build_parser().parse_args(list(SUBCOMMANDS["eval"]))
        assert (args.eps, args.t_top, args.cusp_delta) == (DEFAULT.eps, F0_TOP, F0_CUSP_DELTA)
        for argv in (["--help"], ["count", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            for value in (DEFAULT.eps, F0_TOP, F0_CUSP_DELTA):
                assert f"(default {value:g})" in text, (argv, value)

    def test_invalid_eps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--eps", "0.1", "eval",
                               "--fn", "eta1", "--tau", "0+1i")
        assert code == 2
        assert "eps" in err

    def test_unwritable_out_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "--out", "/nonexistent/dir/x.csv", "eval",
                                 "--fn", "eta1", "--tau", "0+1i")
        assert code == 2
        assert out == ""
        assert err.startswith("cannot write output:")

    @pytest.mark.parametrize("argv", [
        ("--config", "run.cfg", "eval", "--fn", "eta1", "--tau", "0+1i"),
        ("verify", "--suite", "special", "--json"),
    ])
    def test_removed_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


class TestVerify:
    def test_table_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "special")
        assert code == 0
        assert "suite result: PASS" in out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--suite", "special")
        assert code == 0
        payload = json.loads(out)
        assert all(row["passed"] for row in payload)
        assert {"section", "check", "passed", "detail"} <= set(payload[0])

    def test_json_to_out_file(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "--format", "json", "--out", str(path),
                               "verify", "--suite", "special")
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload and all(row["passed"] for row in payload)

    def test_functions_suite_exits_zero(self, capsys):
        # holds criterion 8, the blow-up decay-order check
        code, out, _ = run_cli(capsys, "verify", "--suite", "functions")
        assert code == 0
        assert "suite result: PASS" in out
        assert "[FAIL]" not in out


def test_verify_all_runs_without_numpy():
    # a None entry in sys.modules makes every `import numpy` raise
    code = ("import runpy, sys; sys.modules['numpy'] = None; "
            "sys.argv = ['e2crit', 'verify', '--suite', 'all']; "
            "runpy.run_module('e2crit', run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    assert proc.returncode == 0, proc.stderr
    assert "suite result: PASS" in proc.stdout


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "e2crit", "eval", "--fn", "e2", "--tau", "0+2i"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    assert proc.returncode == 0
    assert proc.stdout.startswith("fn,re,im,err_bound")
