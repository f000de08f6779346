"""CLI tests: config parsing, command plumbing, exit codes, determinism."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    SHOWCASE_D3_MAX,
    SHOWCASE_IC_SETTLING,
    SHOWCASE_MU_PRIME,
    SHOWCASE_P2_STAR,
    REFERENCE_HURWITZ,
)
from hematodyn.cli import main, parse_config_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SHOWCASE_CFG = """
# stem and progenitor split fractions
a1 = 0.7
a2 = 0.5
p1 = 1.0
d3 = 0.1337
k = 8.75e-9
"""


class TestConfigParsing:
    def test_comments_blanks_and_spacing(self):
        values = parse_config_text(
            "# header\n\n a1 = 0.7 # trailing comment\nt_end=10\n"
        )
        assert values == {"a1": "0.7", "t_end": "10"}

    def test_last_assignment_wins(self):
        assert parse_config_text("x = 1\nx = 2\n") == {"x": "2"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a1 = 0.7\nbogus line\n")


class TestArgumentErrors:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_set_syntax(self, capsys):
        code, _, err = run(capsys, "stability", "--set", "p2")
        assert code == 2
        assert "invalid configuration" in err

    @pytest.mark.parametrize("argv", [
        ("stability", "--set", "d1=nan"),
        ("stability", "--set", "k=inf"),
        ("hopf", "--set", "p1=-inf"),
        ("sweep", "--set", "vary=p1:nan:0.5:5", "--out", "unused.csv"),
        ("simulate", "--set", "u1=1", "--set", "u2=1", "--set", "u3=1",
         "--set", "t_end=10", "--set", "abs_tol=inf"),
        *(("classify", "--set", "u1=1", "--set", "u2=1", "--set", "u3=1",
           "--set", "horizon=10", "--set", tol)
          for tol in ("equilibrium_tol=nan", "equilibrium_tol=-1", "equilibrium_tol=0",
                      "agreement_tol=nan", "agreement_tol=inf")),
    ])
    def test_non_finite_input_rejected(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be" in err and "finite" in err

    def test_unreadable_config(self, capsys):
        code, _, err = run(capsys, "stability", "--config", "/nonexistent/x.cfg")
        assert code == 2
        assert "cannot read config" in err


class TestSimulate:
    def test_csv_written_to_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            SHOWCASE_CFG
            + "p2 = 0.5\nu1 = 1766000\nu2 = 13082000\nu3 = 59429000\n"
            + "t_end = 10\noutput_stride = 0.5\n",
        )
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 0
        assert stdout == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u1,u2,u3"
        assert len(lines) == 22
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, *SHOWCASE_IC_SETTLING.as_tuple()]

    def test_missing_initial_component(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SHOWCASE_CFG + "p2 = 0.5\nu1 = 1\nu2 = 1\nt_end = 1\n")
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "u3" in err

    def test_nonpositive_horizon_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, SHOWCASE_CFG + "p2 = 0.5\nu1 = 1\nu2 = 1\nu3 = 1\nt_end = 0\n"
        )
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys):
        # growth hits the float ceiling well inside the horizon
        code, _, err = run(
            capsys, "simulate",
            "--set", "a1=0.99", "--set", "p1=3.0", "--set", "k=1e-320",
            "--set", "u1=1e300", "--set", "u2=1e300", "--set", "u3=1e300",
            "--set", "t_end=50",
        )
        assert code == 3
        assert "numerical failure" in err

    def test_rescaled_matches_dimensional_run(self, tmp_path, capsys):
        base = "u1 = 1e6\nu2 = 1e7\nu3 = 1e8\nrel_tol = 1e-10\n"
        cfg_days = write_config(
            tmp_path, base + "t_end = 30\noutput_stride = 3.0\n", "days.cfg"
        )
        # reference p1 = 0.1, so 30 days is 3 rescaled units
        cfg_scaled = write_config(
            tmp_path, base + "t_end = 3\noutput_stride = 0.3\n", "scaled.cfg"
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(capsys, "simulate", "--config", cfg_days, "--out", str(out_a))[0] == 0
        assert run(
            capsys, "simulate", "--config", cfg_scaled, "--out", str(out_b), "--rescaled"
        )[0] == 0
        rows_a = np.loadtxt(str(out_a), delimiter=",", skiprows=1)
        rows_b = np.loadtxt(str(out_b), delimiter=",", skiprows=1)
        assert np.allclose(rows_b[:, 0], 0.1 * rows_a[:, 0], rtol=0, atol=1e-9)
        assert np.allclose(rows_b[:, 1:], rows_a[:, 1:], rtol=1e-6)


class TestStability:
    def test_reference_report(self, capsys):
        code, out, _ = run(capsys, "stability")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["E0", "E1", "E2"]
        assert payload["E2"]["classification"] == "stable"
        assert payload["E2"]["hurwitz"] == pytest.approx(REFERENCE_HURWITZ, rel=1e-12)
        assert payload["E0"]["classification"] == "unstable"
        assert payload["E2"]["equilibrium"]["u3"] > 0

    def test_set_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SHOWCASE_CFG + "p2 = 0.5\n")
        code, out, _ = run(
            capsys, "stability", "--config", cfg, "--set", "p2=0.3"
        )
        assert code == 0
        # 0.3 sits inside the oscillatory window, 0.5 does not
        assert json.loads(out)["E2"]["classification"] == "unstable"

    def test_marginal_at_critical_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SHOWCASE_CFG + f"p2 = {SHOWCASE_P2_STAR!r}\n")
        code, out, _ = run(capsys, "stability", "--config", cfg)
        assert code == 0
        assert json.loads(out)["E2"]["classification"] == "marginal"


class TestHopf:
    def test_showcase_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SHOWCASE_CFG)
        code, out, _ = run(capsys, "hopf", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["p2_star"] == pytest.approx(SHOWCASE_P2_STAR, rel=1e-12)
        assert payload["d3_max"] == pytest.approx(SHOWCASE_D3_MAX, rel=1e-12)
        assert payload["mu_prime"] == pytest.approx(SHOWCASE_MU_PRIME, rel=1e-12)

    def test_rescaled_recovers_unit_rate_point(self, capsys):
        # half-speed dimensional system; renormalizing brings back the
        # unit-rate critical value
        args = ["--set", "a1=0.7", "--set", "a2=0.5", "--set", "p1=0.5",
                "--set", "d3=0.06685"]
        code, out, _ = run(capsys, "hopf", *args, "--rescaled")
        assert code == 0
        assert json.loads(out)["p2_star"] == pytest.approx(SHOWCASE_P2_STAR, rel=1e-12)
        code, out, _ = run(capsys, "hopf", *args)
        assert code == 0
        assert json.loads(out)["p2_star"] == pytest.approx(0.5 * SHOWCASE_P2_STAR, rel=1e-12)

    def test_no_crossing_is_a_config_error(self, capsys):
        code, _, err = run(
            capsys, "hopf", "--set", "a1=0.7", "--set", "a2=0.5",
            "--set", "d3=0.5", "--set", "p1=1",
        )
        assert code == 2


class TestClassify:
    def test_limit_cycle_verdict(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            SHOWCASE_CFG
            + "p2 = 0.3\nu1 = 2717000\nu2 = 26836000\nu3 = 91429000\n",
        )
        code, out, _ = run(capsys, "classify", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "limit_cycle"
        assert 30.0 < payload["period"] < 80.0
        assert payload["amplitude_u3"] > 0
        assert set(payload) == {"kind", "label", "period", "amplitude_u3", "final_distance"}

    def test_equilibrium_verdict(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            SHOWCASE_CFG
            + "p2 = 0.5\nu1 = 1766000\nu2 = 13082000\nu3 = 59429000\n"
            + "horizon = 3000\n",
        )
        code, out, _ = run(capsys, "classify", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "equilibrium"
        assert payload["label"] == "E2"
        assert payload["final_distance"] < 1e-3

    def test_slow_cycle_with_immature_death(self, tmp_path, capsys):
        # weakly unstable override set (margin ~ -3e-3): starting 25% above
        # the positive steady state, the spiral needs a long horizon to grow
        # out to the cycle, whose period sits near 410 days
        cfg = write_config(
            tmp_path,
            "p2 = 0.01\na2 = 0.99\nd2 = 0.5287\n"
            "u1 = 851821478873.2395\nu2 = 161619718309.85918\nu3 = 5.0e8\n"
            "horizon = 160000\n",
        )
        code, out, _ = run(capsys, "classify", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "limit_cycle"
        assert 380.0 < payload["period"] < 440.0


class TestSweep:
    def test_out_is_required(self, capsys):
        code, _, err = run(capsys, "sweep", "--set", "vary=d3:0.1:3.0:10")
        assert code == 2
        assert "--out" in err

    def test_csv_and_summary(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            SHOWCASE_CFG + "p2 = 0.4\nvary = p2:0.3:0.5:101\n",
        )
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, "sweep", "--config", cfg, "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["total_points"] == 101
        # grid points below the critical value are exactly the unstable ones
        grid = np.linspace(0.3, 0.5, 101)
        assert summary["counts"]["unstable"] == int(np.sum(grid < SHOWCASE_P2_STAR))
        assert summary["counts"]["stable"] == int(np.sum(grid > SHOWCASE_P2_STAR))
        assert summary["hopf_adjacent_pairs"] == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "p2,e2_exists,hurwitz,class"
        assert len(lines) == 102

    def test_missing_vary_key(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--out", str(out))
        assert code == 2
        assert "vary" in err


class TestConstellations:
    def test_report_without_classification(self, capsys):
        code, out, _ = run(capsys, "constellations", "--set", "classify=false")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"reference"} | {
            f"constellation_{i}" for i in range(1, 10)
        }
        reference = payload["reference"]
        assert reference["classification"] == "stable"
        assert reference["hurwitz"] == pytest.approx(REFERENCE_HURWITZ, rel=1e-12)
        assert reference["verdict"] is None
        assert payload["constellation_1"]["classification"] == "unstable"


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hematodyn", "hopf",
             "--set", "a1=0.7", "--set", "a2=0.5",
             "--set", "d3=0.1337", "--set", "p1=1"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["p2_star"] == pytest.approx(
            SHOWCASE_P2_STAR, rel=1e-12
        )

    def test_console_script_failure_code(self):
        args = ["stability", "--config", "/nonexistent/x.cfg"]
        if shutil.which("hematodyn") is not None:
            command = ["hematodyn", *args]
        else:
            # package importable but not installed: run the same target the
            # console script points at (pyproject: hematodyn.cli:entrypoint)
            command = [sys.executable, "-c",
                       "from hematodyn.cli import entrypoint; entrypoint()", *args]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
