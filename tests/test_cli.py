"""Command-line surface: parsing, output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e2crit.cli import main, parse_complex

PI = math.pi


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

    def test_numeric_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "zrs", "--rs", "0,0",
                               "--tau", "0.5+1i")
        assert code == 3
        assert "PoleAtLattice" in err


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

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EC_PRECISION", "1e-7")
        code, out, _ = run_cli(capsys, "eval", "--fn", "eta1", "--tau", "0+1i")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1e-7

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EC_PRECISION", "1e-7")
        code, out, _ = run_cli(capsys, "--eps", "1e-10", "eval",
                               "--fn", "eta1", "--tau", "0+1i")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1e-10

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 1e-9\nt_top = 5\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "eval",
                               "--fn", "eta1", "--tau", "0+1i")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1e-9

    def test_invalid_eps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--eps", "0.1", "eval",
                               "--fn", "eta1", "--tau", "0+1i")
        assert code == 2
        assert "eps" in err


class TestVerify:
    def test_table_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "special")
        assert code == 0
        assert "suite result: PASS" in out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "special", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(row["passed"] for row in payload)
        assert {"section", "check", "passed", "detail"} <= set(payload[0])

    def test_functions_suite_exits_zero(self, capsys):
        # holds criterion 8, the blow-up decay-order check
        code, out, _ = run_cli(capsys, "verify", "--suite", "functions")
        assert code == 0
        assert "suite result: PASS" in out
        assert "[FAIL]" not in out


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "e2crit", "eval", "--fn", "e2", "--tau", "0+2i"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    assert proc.returncode == 0
    assert proc.stdout.startswith("fn,re,im,err_bound")
