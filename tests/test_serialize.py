"""Serialization tests: byte determinism, and emitted JSON that parses back exactly."""

import io
import json
import math
import re
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CN_A, draw_basic_admissible, draw_extended_admissible, showcase_params
from hematodyn import (
    AttractorVerdict,
    CellState,
    CharPolyCoeffs,
    HopfReport,
    ModelParameters,
    REFERENCE_PARAMETERS,
    Trajectory,
    check_constellations,
    constellation_report_to_dict,
    dumps,
    hopf_point,
    hopf_to_dict,
    nondimensionalize,
    params_to_dict,
    stability_report_to_dict,
    stability_reports,
    verdict_to_dict,
    write_trajectory_csv,
)
from hematodyn import serialize
from hematodyn.cli import main
from hematodyn.model import PARAM_NAMES
from hematodyn.serialize import _stability_json
from hematodyn.stability import MARGINAL, NONEXISTENT
from hematodyn.sweep import _CHUNK

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestDumps:
    @given(finite_floats)
    def test_float_survives_text_round_trip(self, value):
        recovered = json.loads(dumps({"x": value}))["x"]
        assert recovered == value or (math.isnan(value) and math.isnan(recovered))

    def test_non_finite_literals(self):
        text = dumps({"a": math.nan, "b": math.inf, "c": -math.inf})
        assert "NaN" in text and "Infinity" in text
        back = json.loads(text)
        assert math.isnan(back["a"])
        assert back["b"] == math.inf
        assert back["c"] == -math.inf

    def test_layout_is_stable(self):
        text = dumps({"b": [1, 2], "a": {"nested": True}, "s": "x", "n": None})
        assert text == dumps({"b": [1, 2], "a": {"nested": True}, "s": "x", "n": None})
        assert text.endswith("\n")
        assert json.loads(text) == {"b": [1, 2], "a": {"nested": True}, "s": "x", "n": None}

    def test_insertion_order_preserved(self):
        lines = dumps({"z": 1, "a": 2}).splitlines()
        assert lines[1].startswith('  "z"')

    def test_mixed_payload_bytes(self):
        # every value kind the reports hold, pinned byte for byte, both as a
        # list item and directly under a dict key
        payload = {
            'é"': 'é"',
            "f": [math.nan, math.inf, -math.inf, np.float64(0.1), 1.5],
            "b": [True, False],
            "i": -3,
            "n": None,
            "l": [],
            "d": {},
            "t": (2, "x"),
            "nan": math.nan,
            "inf": math.inf,
            "-inf": -math.inf,
            "zero": -0.0,
            "np": np.float64(-2.5),
            "yes": True,
            "none": None,
            "int": 7,
            "s": "é",
            "nest": [{"in": [-0.0, "y", 0.25]}, 3],
        }
        assert dumps(payload) == (
            '{\n  "\\u00e9\\"": "\\u00e9\\"",\n'
            '  "f": [\n    NaN,\n    Infinity,\n    -Infinity,\n    0.10000000000000001,\n    1.5\n  ],\n'
            '  "b": [\n    true,\n    false\n  ],\n'
            '  "i": -3,\n  "n": null,\n  "l": [],\n  "d": {},\n'
            '  "t": [\n    2,\n    "x"\n  ],\n'
            '  "nan": NaN,\n  "inf": Infinity,\n  "-inf": -Infinity,\n  "zero": -0,\n'
            '  "np": -2.5,\n  "yes": true,\n  "none": null,\n  "int": 7,\n  "s": "\\u00e9",\n'
            '  "nest": [\n    {\n      "in": [\n        -0,\n        "y",\n        0.25\n'
            '      ]\n    },\n    3\n  ]\n}\n'
        )

    @given(st.text())
    def test_strings_quoted_as_json_dumps_quotes_them(self, text):
        quoted = json.dumps(text)
        assert dumps(text) == quoted + "\n"
        assert dumps({text: "v"}) == "{\n  " + quoted + ': "v"\n}\n'

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        traj = Trajectory(
            np.array([0.0, 0.5, 1.0]),
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.5]]),
        )
        out = io.StringIO()
        write_trajectory_csv(traj, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,u1,u2,u3"
        assert lines[1] == "0,1,2,3"
        assert lines[3].split(",") == ["1", "7", "8", "9.5"]

    def test_full_precision_round_trip(self):
        times = np.array([0.0, 1.0 / 3.0])
        states = np.array([[1e-9, 2.0 / 7.0, 3e8], [0.1, 0.2, 0.3]])
        out = io.StringIO()
        write_trajectory_csv(Trajectory(times, states), out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(parsed[:, 0], times)
        assert np.array_equal(parsed[:, 1:], states)

    @pytest.mark.parametrize("rows", [1, 2 * _CHUNK + 5], ids=["1-row", "3-blocks"])
    def test_matches_row_by_row_writer(self, rows):
        rng = np.random.default_rng(rows)
        times = np.cumsum(rng.uniform(1e-3, 2.0, rows))
        # magnitudes from 1e-300 to 1e300, plus -0.0, inf and the smallest subnormal
        states = rng.random((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
        states[0] = (-0.0, np.inf, 5e-324)
        traj = Trajectory(times, states)
        # the writer before block formatting, one numpy-scalar row at a time
        expected = io.StringIO()
        expected.write("t,u1,u2,u3\n")
        for t, row in zip(traj.times, traj.states):
            expected.write("%.17g,%.17g,%.17g,%.17g\n" % (t, row[0], row[1], row[2]))
        blocks = []
        write_trajectory_csv(traj, SimpleNamespace(write=blocks.append))
        assert "".join(blocks) == expected.getvalue()
        # the header, then one write per block of at most _CHUNK rows
        assert len(blocks) == 1 + -(-rows // _CHUNK)


def parse_back(data: dict) -> dict:
    """The emitted text parsed again; it must equal the dict it came from."""
    back = json.loads(dumps(data))
    assert back == data
    return back


class TestParamsRoundTrip:
    @given(
        st.floats(0.51, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 1.0),
        st.floats(0.01, 2.0), st.floats(0.1, 3.0),
        st.floats(1e-10, 1e-6), st.floats(0.0, 0.009), st.floats(0.0, 3.0),
    )
    def test_round_trip_is_exact(self, a1, a2, p1, p2, d3, k, d1, d2):
        params = REFERENCE_PARAMETERS.with_(
            a1=a1, a2=a2, p1=p1, p2=p2, d3=d3, k=k, d1=d1, d2=d2
        )
        data = parse_back(params_to_dict(params))
        assert list(data) == list(PARAM_NAMES)
        assert REFERENCE_PARAMETERS.with_(**data) == params


class TestReportRoundTrips:
    def test_stability_reports(self):
        for params in (showcase_params(0.5), showcase_params(0.3), CN_A):
            for report in stability_reports(params).values():
                data = parse_back(stability_report_to_dict(report))
                assert list(data) == [
                    "label", "exists", "equilibrium", "coeffs", "hurwitz", "eigenvalues",
                    "classification",
                ]
                assert data["label"] == report.label
                assert data["classification"] == report.classification
                assert data["hurwitz"] == report.hurwitz
                assert data["exists"] is (report.equilibrium is not None)
                if report.equilibrium is None:
                    assert data["equilibrium"] is None
                else:
                    assert list(data["equilibrium"]) == ["u1", "u2", "u3"]
                    assert CellState(**data["equilibrium"]) == report.equilibrium
                if report.coeffs is None:
                    assert data["coeffs"] is None
                else:
                    assert list(data["coeffs"]) == ["b1", "b2", "b3"]
                    assert CharPolyCoeffs(**data["coeffs"]) == report.coeffs
                if report.eigenvalues is None:
                    assert data["eigenvalues"] is None
                else:
                    pairs = tuple(complex(re, im) for re, im in data["eigenvalues"])
                    assert pairs == report.eigenvalues

    def test_hopf_report(self):
        report = hopf_point(0.7, 0.5, 0.1337, 1.0)
        data = parse_back(hopf_to_dict(report))
        assert list(data) == ["p2_star", "d3_max", "omega", "lambda3", "mu_prime"]
        assert HopfReport(**data) == report

    def test_verdicts(self):
        cases = [
            AttractorVerdict(kind="equilibrium", label="E2", final_distance=1e-5),
            AttractorVerdict(
                kind="limit_cycle", period=45.0, amplitude_u3=1e7, final_distance=0.4
            ),
            AttractorVerdict(kind="undecided", final_distance=0.2),
        ]
        for verdict in cases:
            data = parse_back(verdict_to_dict(verdict))
            assert list(data) == ["kind", "label", "period", "amplitude_u3", "final_distance"]
            assert AttractorVerdict(**data) == verdict

    def test_field_copies_match_asdict(self):
        # the writers copy a dataclass's fields shallowly; asdict is the
        # reference for content and key order
        report = stability_reports(CN_A)["E2"]
        verdict = AttractorVerdict(kind="limit_cycle", period=45.0, amplitude_u3=1e7)
        hopf = hopf_point(0.7, 0.5, 0.1337, 1.0)
        data = stability_report_to_dict(report)
        pairs = [
            (data["equilibrium"], report.equilibrium),
            (data["coeffs"], report.coeffs),
            (hopf_to_dict(hopf), hopf),
            (verdict_to_dict(verdict), verdict),
        ]
        for copied, obj in pairs:
            assert list(copied.items()) == list(asdict(obj).items())
            copied["extra"] = None
            assert "extra" not in vars(obj)

    def test_constellation_report_payload(self):
        report = check_constellations(run_classify=False)[1]
        data = json.loads(dumps(constellation_report_to_dict(report)))
        assert data["index"] == 1
        assert data["overrides"] == report.overrides
        assert data["e2_exists"] is True
        assert data["classification"] == report.classification
        assert data["verdict"] is None
        assert set(data["params"]) == {"a1", "a2", "p1", "p2", "d1", "d2", "d3", "k"}


LABELS = ("E0", "E1", "E2")


def via_dumps(reports) -> str:
    """The `stability` payload through the generic writer, the template's reference."""
    return dumps({label: stability_report_to_dict(reports[label]) for label in LABELS})


def tied(params):
    """The reports at params, after checking that the template writes `via_dumps`' bytes."""
    reports = stability_reports(params)
    assert _stability_json(reports) == via_dumps(reports), params
    return reports


def decades(low, high):
    """Floats 10**x for x drawn from [low, high]."""
    return st.floats(low, high).map(lambda x: 10.0 ** x)


def scaled(params, factor):
    # every rate times factor: the coefficients scale as factor, factor^2
    # and factor^3, the counts not at all
    return params.with_(**{name: getattr(params, name) * factor
                           for name in ("p1", "p2", "d1", "d2", "d3")})


class TestStabilityTemplate:
    """`serialize._stability_json`, which the `stability` command writes, is
    `dumps` of the `stability_report_to_dict` payload bit for bit; a field
    the template lacks fails here."""

    def test_seeded_draws_and_their_rescaled_rates(self):
        rng = np.random.default_rng(35)
        e1_absent = set()
        for index in range(400):
            draw = draw_extended_admissible if index % 2 else draw_basic_admissible
            params = draw(rng)
            reports = tied(params)
            tied(nondimensionalize(params))
            e1_absent.add(reports["E1"].equilibrium is None)
        assert e1_absent == {False, True}

    @pytest.mark.parametrize("overrides, e1_exists", [
        (dict(a1=0.45, a2=0.3), False),
        (dict(a1=0.45), True),
        (dict(a1=0.8, a2=0.9), True),
    ], ids=["E1-E2-absent", "E2-absent", "a2-above-a1"])
    def test_absent_states(self, overrides, e1_exists):
        reports = tied(REFERENCE_PARAMETERS.with_(**overrides))
        assert reports["E2"].classification == NONEXISTENT
        assert (reports["E1"].equilibrium is not None) is e1_exists

    def test_marginal_at_the_hopf_point(self):
        report = hopf_point(0.7, 0.5, 0.1337, 1.0)
        params = showcase_params(report.p2_star)
        assert tied(params)["E2"].classification == MARGINAL
        assert tied(nondimensionalize(params))["E2"].classification == MARGINAL

    @pytest.mark.parametrize("exponent", range(-300, 4, 3))
    def test_feedback_strengths(self, exponent):
        # the counts scale as 1/k: from about 1e300 down to 1e-3 cells/kg
        tied(REFERENCE_PARAMETERS.with_(k=10.0 ** exponent))
        tied(CN_A.with_(k=10.0 ** exponent))

    @pytest.mark.parametrize("params", [REFERENCE_PARAMETERS, CN_A, showcase_params(0.3)],
                             ids=["reference", "extended", "showcase"])
    def test_rates_just_below_the_overflow_refusal(self, params):
        # bisect the decade of the rate scale at which `stability_report` starts refusing
        low, high = 0.0, 200.0
        for _ in range(60):
            mid = 0.5 * (low + high)
            try:
                stability_reports(scaled(params, 10.0 ** mid))
            except ValueError as exc:
                assert "overflows" in str(exc)
                high = mid
            else:
                low = mid
        with pytest.raises(ValueError, match="overflows"):
            stability_reports(scaled(params, 10.0 ** high))
        reports = tied(scaled(params, 10.0 ** low)).values()
        assert max(abs(r.hurwitz) for r in reports if r.hurwitz is not None) > 1e300

    def test_negative_zero_entries(self):
        # E0's trace (2*a1 - 1)*p1 + (2*a2 - 1)*p2 - d3 is 0.5 + 0 - 0.5, so b1
        # and b3 are -0.0, which both writers spell "-0"
        reports = tied(ModelParameters(a1=0.75, a2=0.5, p1=1.0, p2=0.4, d3=0.5, k=1e-8))
        coeffs = reports["E0"].coeffs
        assert [math.copysign(1.0, c) for c in (coeffs.b1, coeffs.b3)] == [-1.0, -1.0]
        assert re.findall(r'"b[13]": -0\b', _stability_json(reports)) == ['"b1": -0', '"b3": -0']

    @given(
        st.floats(0.5, 0.999), st.floats(1e-3, 0.999),
        decades(-100, 100), decades(-100, 100), decades(-100, 100), decades(-300, 3),
        st.one_of(st.just(0.0), decades(-100, 100)), st.one_of(st.just(0.0), decades(-100, 100)),
    )
    def test_rates_over_every_decade(self, a1, a2, p1, p2, d3, k, d1, d2):
        params = ModelParameters(a1=a1, a2=a2, p1=p1, p2=p2, d3=d3, k=k, d1=d1, d2=d2)
        try:
            tied(params)
        except ValueError:
            pass  # refused as overflowing, so never written

    def test_command_never_walks_the_payload(self, capsys, monkeypatch):
        expected = via_dumps(stability_reports(REFERENCE_PARAMETERS))

        def refuse(*args):
            raise AssertionError("the stability command reached serialize._emit")

        monkeypatch.setattr(serialize, "_emit", refuse)
        assert main(["stability"]) == 0
        assert capsys.readouterr() == (expected, "")
