"""CLI tests: config parsing, command plumbing, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SHOWCASE_BASE,
    SHOWCASE_D3_MAX,
    SHOWCASE_IC_CYCLE_HIGH,
    SHOWCASE_IC_SETTLING,
    SHOWCASE_MU_PRIME,
    SHOWCASE_P2_STAR,
    REFERENCE_HURWITZ,
)
from hematodyn import cli
from hematodyn.analysis import classify
from hematodyn.cli import main, parse_config_text
from hematodyn.integrator import IntegrationConfig, integrate
from hematodyn.model import PARAM_NAMES, REFERENCE_PARAMETERS
from hematodyn.serialize import dumps, verdict_to_dict, write_trajectory_csv


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

    # no '=', a misspelled or unknown key, an empty key
    @pytest.mark.parametrize("item", ["p2", "P2=0.3", "d_3=0.1", "=5"])
    def test_bad_set_syntax(self, capsys, item):
        code, _, err = run(capsys, "stability", "--set", item)
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
        ("classify", "--set", "u1=1", "--set", "u2=1", "--set", "u3=1", "--set", "horizon=-5"),
    ])
    def test_non_finite_input_rejected(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be" in err and "finite" in err
        # no case gives a bad t_end; classify used to blame it for a bad horizon
        assert "t_end" not in err

    def test_unreadable_config(self, capsys):
        code, _, err = run(capsys, "stability", "--config", "/nonexistent/x.cfg")
        assert code == 2
        assert "cannot read config" in err

    # sweep and constellations do not renormalize, so they do not take the flag
    @pytest.mark.parametrize("argv", [
        ("sweep", "--set", "vary=d3:0.1:3.0:10", "--out", "unused.csv"),
        ("constellations", "--set", "classify=false"),
    ], ids=["sweep", "constellations"])
    def test_rescaled_rejected_where_unused(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--rescaled"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "unused.csv").exists()


SHOWCASE_SET = ["--set", "a1=0.7", "--set", "a2=0.5", "--set", "p1=1",
                "--set", "d3=0.1337", "--set", "k=8.75e-9"]
SHOWCASE_CYCLE_SET = [*SHOWCASE_SET, "--set", "p2=0.3", "--set", "u1=2717000",
                      "--set", "u2=26836000", "--set", "u3=91429000"]
INITIAL_SET = ["--set", "u1=1", "--set", "u2=1", "--set", "u3=1"]
CONSTELLATION_1_SET = ["--set", "p1=0.7171", "--set", "a2=0.32", "--set", "d3=0.132"]
# keys that only the classifier reads; every other non-parameter float key
# is an initial state or integration setting, which simulate reads
CLASSIFY_ONLY = ("horizon", "transient_fraction", "equilibrium_tol", "agreement_tol")


class TestConfigKeys:
    # every float key the config accepts is parsed by some command: given a
    # non-number, that command names the key before it computes anything
    @pytest.mark.parametrize("key", sorted(cli._KNOWN_KEYS - {"vary", "classify"}))
    def test_every_known_float_key_is_parsed(self, capsys, key):
        if key in PARAM_NAMES:
            argv = ["stability"]
        elif key in CLASSIFY_ONLY:
            argv = ["classify", *INITIAL_SET]
        else:
            argv = ["simulate", *INITIAL_SET, "--set", "t_end=1"]
        code, out, err = run(capsys, *argv, "--set", f"{key}=abc")
        assert code == 2
        assert out == ""
        assert f"key {key!r}: not a number" in err

    # the CLI passes on only the keys it is given, so its output equals the
    # library's at the library's own defaults
    def test_classify_takes_library_defaults(self, capsys):
        params = REFERENCE_PARAMETERS.with_(**SHOWCASE_BASE, p2=0.3)
        expected = dumps(verdict_to_dict(classify(params, SHOWCASE_IC_CYCLE_HIGH)))
        code, out, _ = run(capsys, "classify", *SHOWCASE_CYCLE_SET)
        assert code == 0
        assert out == expected

    def test_simulate_takes_library_defaults(self, capsys):
        params = REFERENCE_PARAMETERS.with_(**SHOWCASE_BASE, p2=0.3)
        buffer = io.StringIO()
        traj = integrate(params, SHOWCASE_IC_CYCLE_HIGH, IntegrationConfig(t_end=60.0))
        write_trajectory_csv(traj, buffer)
        code, out, _ = run(capsys, "simulate", *SHOWCASE_CYCLE_SET, "--set", "t_end=60")
        assert code == 0
        # compared as line lists: pytest's diff of two long unequal strings takes minutes
        assert out.split("\n") == buffer.getvalue().split("\n")

    # 1000 days at a 1e-9 stride would be 1e12 samples; the stride is
    # rejected before any integration starts
    @pytest.mark.parametrize("argv", [
        ("simulate", *INITIAL_SET, "--set", "t_end=1000"),
        ("classify", *INITIAL_SET, "--set", "horizon=1000"),
    ], ids=["simulate", "classify"])
    def test_sample_count_capped(self, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("integration started at an oversized sample count")

        monkeypatch.setattr(cli, "integrate", never)
        monkeypatch.setattr("hematodyn.analysis.integrate", never)
        code, out, err = run(capsys, *argv, "--set", "output_stride=1e-9")
        assert code == 2
        assert out == ""
        assert "output_stride" in err and "samples" in err

    # 101 days at max_step 1e-5 needs over 1e7 steps; without the check at
    # construction, integrate would refuse them only after about 90 s of CPU
    def test_step_count_capped(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--set", "u1=1e6", "--set", "u2=1e7",
                             "--set", "u3=1e8", "--set", "t_end=101", "--set", "max_step=1e-5")
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        assert "max_step" in err and "steps" in err
        assert elapsed < 1.0


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

    # the coefficients overflow to inf and NaN; computed on Python floats,
    # that raises no numpy overflow or invalid-value warning. These reports
    # used to exit 0: at 1e200 every state read "unstable" with a NaN
    # margin, at p2 = d3 = 1e103 E2 read "marginal" with an infinite one,
    # and at 1e160 every eigenvalue was NaN
    @pytest.mark.parametrize("rates", [
        ("p1=1e200", "p2=1e200", "d3=1e200"), ("p2=1e103", "d3=1e103"), ("p2=1e160", "d3=1e160"),
    ], ids=["1e200", "1e103", "1e160"])
    def test_overflowing_rates_are_refused_without_warnings(self, capsys, rates):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "stability", *(x for rate in rates for x in ("--set", rate)))
        assert (code, out, caught) == (2, "", [])
        assert err == "invalid configuration: the characteristic polynomial at E0 overflows for these rates\n"

    # at p2 = d3 = 1e100 every margin and eigenvalue is still finite, and the
    # report keeps the bytes it had before overflow was refused
    def test_largest_finite_rates_keep_their_report(self, capsys):
        code, out, err = run(capsys, "stability", "--set", "p2=1e100", "--set", "d3=1e100")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "0f23ca0f154afeb57a5856efbee0a5367dd36f084d9ca6cb7fd8066be6b76d01"
        )

    # a2 = a1 is the edge where E2 ceases to exist; for 13 of these values
    # a2*s used to round just below 1/2, E2 "existed" and the call exited 2
    @pytest.mark.parametrize("a", [f"{a / 100:.2f}" for a in range(51, 99)])
    def test_no_positive_state_at_a2_equal_a1(self, capsys, a):
        code, out, err = run(capsys, "stability", "--set", f"a1={a}", "--set", f"a2={a}")
        assert (code, err) == (0, "")
        assert json.loads(out)["E2"]["classification"] == "nonexistent"


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

    # the basic closed form ignores d1 and d2: it gives p2* = 0.393828 here,
    # while at d1 = 0.02, d2 = 0.05 the margin changes sign at p2 = 0.371975
    @pytest.mark.parametrize("deaths", [
        ("d1=0.02",), ("d2=0.05",), ("d1=0.02", "d2=0.05"),
    ], ids=["d1", "d2", "d1-d2"])
    def test_extended_set_is_a_config_error(self, capsys, deaths):
        argv = ["hopf", "--set", "a1=0.7", "--set", "a2=0.5", "--set", "d3=0.1337",
                "--set", "p1=1"]
        for item in deaths:
            argv += ["--set", item]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "d1" in err and "d2" in err and "bifurcation_bracket" in err


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

    def test_stride_of_the_whole_horizon_is_a_config_error(self, capsys):
        # one sample after the transient cannot carry a verdict
        code, out, err = run(capsys, "classify", *INITIAL_SET,
                             "--set", "horizon=1000", "--set", "output_stride=1000")
        assert code == 2
        assert out == ""
        assert "output_stride" in err and "at least 3" in err


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

    def test_overflowing_grid_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with pytest.warns(UserWarning, match="plausible range"):
            code, stdout, err = run(
                capsys, "sweep", "--set", "vary=p2:1e150:1e160:3;d3:1e150:1e160:3", "--out", str(out)
            )
        assert (code, stdout) == (2, "")
        assert "the Hurwitz margin overflows" in err
        assert not out.exists()

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


# SHA-256 of `hematodyn stability` stdout at the reference parameters
STABILITY_REFERENCE_DIGEST = "e2b85c290ca3771c2c128d44c71fd8cd8c4dd260efc71d1562421fda4330a913"


def seeded_stability_argv(count, seed):
    """`stability` argv drawn over the benchmark's query ranges; every other one extended."""
    rng = random.Random(seed)
    u = rng.uniform
    drawn = []
    for index in range(count):
        values = dict(a1=u(0.6, 0.95), a2=u(0.2, 0.98), p1=u(0.05, 1.0), p2=u(0.01, 1.0),
                      d3=u(0.1, 3.0), k=10.0 ** u(-9.5, -7.5))
        if index % 2:
            values.update(d1=u(0.0, 0.05), d2=u(0.0, 1.0))
        argv = ["stability"]
        for key, value in values.items():
            argv += ["--set", f"{key}={value!r}"]
        drawn.append(argv)
    return drawn


def seeded_classify_argv(seed):
    """30 `classify` argv: 12 showcase cycles in the benchmark's ranges, 8
    settling starts above the onset, 8 extended sets with E1 and E2, and 2
    sets without E2 whose stem line washes out."""
    rng = random.Random(seed)
    u = rng.uniform
    drawn = []
    for index in range(30):
        if index < 12:
            values = dict(SHOWCASE_BASE, p2=0.3 * u(0.98, 1.02), d3=0.1337 * u(0.98, 1.02))
            start = SHOWCASE_IC_CYCLE_HIGH.as_tuple()
        elif index < 20:
            values = dict(SHOWCASE_BASE, p2=u(0.45, 0.6))
            start = SHOWCASE_IC_SETTLING.as_tuple()
        elif index < 28:
            values = dict(a1=0.85, a2=0.841, p1=1.0, p2=u(0.35, 0.45), d1=u(0.0, 0.02),
                          d2=u(0.05, 0.2), d3=u(0.3, 0.4), k=3.5e-8)
            start = (3.0e6, 1.0e7, 3.0e7)
        else:
            values = dict(SHOWCASE_BASE, a1=u(0.4, 0.48), p2=u(0.25, 0.55))
            if index == 29:
                values["a2"] = u(0.2, 0.4)
            start = SHOWCASE_IC_CYCLE_HIGH.as_tuple()
        for name, base in zip(("u1", "u2", "u3"), start):
            values[name] = base * u(0.95, 1.05)
        argv = ["classify"]
        for key, value in values.items():
            argv += ["--set", f"{key}={value!r}"]
        drawn.append(argv)
    return drawn


class TestGoldenOutput:
    # SHA-256 of stdout, frozen from the release before the parameter names
    # and the reference set moved into hematodyn.model
    @pytest.mark.parametrize("argv, digest", [
        (["stability"], STABILITY_REFERENCE_DIGEST),
        (["stability", "--set", "a2=0.95", "--set", "d1=0.0405", "--set", "d2=2.5423"],
         "f78fdddadffdc8610a03a3d5f766af920bb6b1b41c9bb7acdbea44fe8b0b2483"),
        (["stability", "--set", "a1=0.45"],
         "a15dcd1ae964df55925a06a44c9bc6b2f9ab12e9ea61e4f98e55f03586e087bf"),
        (["hopf", *SHOWCASE_SET],
         "97ee7681b3350d060b2aba39953c42dc0109b3dd40c9668a07af643fa6892d84"),
        (["simulate", *SHOWCASE_CYCLE_SET, "--set", "t_end=600"],
         "6d0b4c4fd1ed6ed1a3b5cb4306b1ec359d93b259f8dde4231f29005da243c121"),
        (["classify", *SHOWCASE_CYCLE_SET],
         "5335ed7d18050cad5567d5b4289df7b80da4a94c1889a6525d19e49ce604e513"),
        (["constellations", "--set", "classify=false"],
         "fe0a672c39c44c52596ddab4cdc92167e7e6d0794c8107103afb0f804bcbd138"),
        # constellation set 1: E2 unstable by the basic closed form at p1 != 1,
        # E1 absent, E0 decided by its eigenvalues alone
        (["stability", *CONSTELLATION_1_SET],
         "fee8e921f5e37b6fbbb91480d64fe7368a78ba9e2781a38b6b6aefe4d17f2531"),
        (["hopf", "--rescaled", *CONSTELLATION_1_SET],
         "969517c3e552f033b8c7d0708c52f3e67f29a5dbfcf301ed9047b5d8bd12082b"),
    ], ids=["stability-reference", "stability-extended", "stability-no-E2", "hopf",
            "simulate", "classify", "constellations", "stability-set-1", "hopf-rescaled-set-1"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_seeded_stability_digest(self, capsys):
        # one SHA-256 over the exit code and stdout of 300 seeded calls
        digest = hashlib.sha256()
        for argv in seeded_stability_argv(300, seed=7919):
            code, out, _ = run(capsys, *argv)
            digest.update(b"%d\n" % code)
            digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == (
            "12416a107e614a73b8cb4510d952bf5d0d47ff2bfc69c8edc8221fcdea51eadb"
        )

    def test_seeded_classify_digest(self, capsys):
        # one SHA-256 over the exit code and stdout of 30 seeded calls, with
        # every verdict kind and E0, E1 and E2 as settle targets
        digest = hashlib.sha256()
        for argv in seeded_classify_argv(seed=4099):
            code, out, _ = run(capsys, *argv)
            digest.update(b"%d\n" % code)
            digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == (
            "01c4a9dc453b52f0331c7e1625f5d7cacb135f4d863017bc5891b8c9422eeee1"
        )


def eager_parser():
    # the plain argparse layout: every command's options built up front
    parser = argparse.ArgumentParser(prog="hematodyn", description=cli._build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, rescalable) in cli._COMMANDS.items():
        cli._add_options(sub.add_parser(name, help=text), rescalable)
    return parser


def eager_outcome(capsys, argv):
    """(attributes or None, exit code, stdout, stderr) of the eager parser on argv."""
    try:
        parsed, code = vars(eager_parser().parse_args(argv)), 0
    except SystemExit as exc:
        parsed, code = None, exc.code
    return (parsed, code) + capsys.readouterr()


# tokens argparse treats apart from a plain call, and option-value pairs
# drawn as often, so that many draws are plain calls
TRICKY_TOKENS = [
    "stability", "sweep", "constellations", "stab", "bogus", "a1=0.7", "",
    "--config", "--out", "--set", "--rescaled", "--res", "--con", "--set=a=1",
    "-h", "--help", "--", "-", "-0.5",
]
OPTION_PAIRS = [
    ["--config", "c.txt"], ["--config", ""], ["--out", "hopf"], ["--out", "x.json"],
    ["--set", "a1=0.7"], ["--set", "k=2"], ["--set", ""],
]


class TestParserBuild:
    # main() reads a plain call itself and hands every other argv to
    # argparse; either way it must parse, print and exit as the eager parser does
    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"], ["stab"], ["--set", "a1=1", "stability"],
        ["stability", "--bogus"], ["sweep", "--rescaled"], ["stability", "--set"],
        ["stability", "--set", "a1=0.8", "--set", "k=2", "--out", "x.json", "--rescaled"],
        ["simulate", "--config", "c.txt", "--out", "hopf"],
        ["stability", "--res"], ["stability", "--set=a1=0.8"], ["stability", "extra"],
        *([name] for name in cli._COMMANDS),
        *([name, "--help"] for name in cli._COMMANDS),
    ], ids=" ".join)
    def test_same_as_full_parser(self, capsys, monkeypatch, argv):
        # the commands only record what they are given: the parse is under test
        seen = []
        monkeypatch.setattr(cli, "_COMMANDS", {
            name: (lambda args, cfg: seen.append(dict(vars(args))), text, rescalable)
            for name, (_, text, rescalable) in cli._COMMANDS.items()
        })
        monkeypatch.setattr(cli, "_load_config", lambda args: {})
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcome = (seen[0] if seen else None, code) + capsys.readouterr()
        assert outcome == eager_outcome(capsys, argv)

    @settings(max_examples=300)
    @given(st.builds(
        lambda head, pieces: head + sum(pieces, []),
        st.sampled_from([[], ["stability"], ["hopf"], ["sweep"], ["constellations"], ["bogus"]]),
        st.lists(st.one_of(st.sampled_from(TRICKY_TOKENS).map(lambda token: [token]),
                           st.sampled_from(OPTION_PAIRS)), max_size=5),
    ))
    def test_reader_agrees_with_argparse(self, argv):
        plain = cli._plain_args(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                parsed = vars(eager_parser().parse_args(argv))
        except SystemExit:
            assert plain is None
        else:
            assert plain is None or vars(plain) == parsed

    @pytest.fixture
    def built(self, monkeypatch):
        # wrap __init__ in place: argparse's own __init__ names its class
        # through the module, so a replaced module attribute would break it
        progs, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return progs

    def test_a_plain_call_builds_no_parser(self, capsys, built):
        assert main(["stability"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STABILITY_REFERENCE_DIGEST
        assert main(["hopf", *SHOWCASE_SET]) == 0
        assert built == []

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["stability", "--bogus"], 2)],
                             ids=["help", "unknown-option"])
    def test_help_and_errors_build_the_eager_parser(self, capsys, built, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert (out if code == 0 else err).startswith("usage: hematodyn [-h]")
        assert built == ["hematodyn", *(f"hematodyn {name}" for name in cli._COMMANDS)]

    @pytest.mark.parametrize("call", [
        lambda: main(("stability",)),
        lambda: main(iter(["stability"])),
        lambda: main(),
    ], ids=["tuple", "iterator", "sys.argv"])
    def test_argv_from_any_iterable_or_sys_argv(self, capsys, monkeypatch, call):
        monkeypatch.setattr(sys, "argv", ["hematodyn", "stability"])
        assert call() == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STABILITY_REFERENCE_DIGEST


def child_env():
    """The environment with the directory of the package under test first on
    PYTHONPATH, so a child process imports it whether or not it is installed."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hematodyn", "hopf",
             "--set", "a1=0.7", "--set", "a2=0.5",
             "--set", "d3=0.1337", "--set", "p1=1"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["p2_star"] == pytest.approx(
            SHOWCASE_P2_STAR, rel=1e-12
        )

    @pytest.mark.parametrize("argv, loaded", [(["stability"], False), (["--help"], True)],
                             ids=["stability", "help"])
    def test_argparse_imported_only_when_it_parses(self, argv, loaded):
        script = (
            "import sys\n"
            "from hematodyn import cli\n"
            "try:\n"
            "    cli.main(sys.argv[1:])\n"
            "except SystemExit:\n"
            "    pass\n"
            "sys.stderr.write(repr('argparse' in sys.modules))\n"
        )
        result = subprocess.run([sys.executable, "-c", script, *argv],
                                capture_output=True, text=True, timeout=120, env=child_env())
        assert result.stderr == repr(loaded)

    def test_multiprocessing_imported_only_for_lanes(self):
        # point queries and an audit without classification start no helper
        # and never load multiprocessing; only sweep and constellations do
        script = (
            "import io, os, sys, contextlib\n"
            "import hematodyn\n"
            "from hematodyn import cli\n"
            "def no_fork():\n"
            "    raise AssertionError('forked')\n"
            "os.fork = no_fork\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['stability']) == 0\n"
            f"    assert cli.main(['classify', *{SHOWCASE_CYCLE_SET!r}]) == 0\n"
            "hematodyn.check_constellations(run_classify=False)\n"
            "sys.stderr.write(repr('multiprocessing' in sys.modules))\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=120, env=child_env())
        assert result.stderr == "False"

    # a forked helper must not flush its copy of a buffered file or of stdout:
    # both commands, run with helpers and stdout a pipe, give the serial bytes
    LANES_SCRIPT = (
        "import sys\n"
        "from hematodyn import cli, sweep\n"
        "sweep._usable_cpus = lambda: int(sys.argv[1])\n"
        "sweep.default_horizon = lambda params: 300.0\n"  # a quick audit
        "sys.stdout.write('buffered before the command\\n')\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )

    def run_lanes(self, cpus, *argv):
        result = subprocess.run([sys.executable, "-c", self.LANES_SCRIPT, str(cpus), *argv],
                                capture_output=True, timeout=120, env=child_env())
        assert (result.returncode, result.stderr) == (0, b"")
        return result.stdout

    def test_sweep_file_and_stdout_independent_of_lanes(self, tmp_path):
        vary = "vary=p1:0.1:0.9:40;a2:0.1:0.9:40;d3:0.2:2.0:20"  # 32000 rows, 4 blocks
        outputs = {}
        for cpus in (1, 4):
            path = tmp_path / f"sweep-{cpus}.csv"
            stdout = self.run_lanes(cpus, "sweep", "--set", vary, "--out", str(path))
            outputs[cpus] = (stdout, path.read_bytes())
        assert outputs[4] == outputs[1]
        stdout, csv = outputs[1]
        assert stdout.startswith(b"buffered before the command\n{")
        assert csv.count(b"\n") == 32001 and csv.count(b"p1,a2,d3,") == 1

    def test_constellations_to_a_pipe_independent_of_lanes(self):
        outputs = {cpus: self.run_lanes(cpus, "constellations") for cpus in (1, 4)}
        assert outputs[4] == outputs[1]
        assert outputs[1].count(b"buffered before the command\n") == 1
        assert len(json.loads(outputs[1].split(b"\n", 1)[1])) == 10

    def test_console_script_failure_code(self):
        args = ["stability", "--config", "/nonexistent/x.cfg"]
        if shutil.which("hematodyn") is not None:
            command = ["hematodyn", *args]
        else:
            # package importable but not installed: run the same target the
            # console script points at (pyproject: hematodyn.cli:entrypoint)
            command = [sys.executable, "-c",
                       "from hematodyn.cli import entrypoint; entrypoint()", *args]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120,
                                env=child_env())
        assert result.returncode == 2
