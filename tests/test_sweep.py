"""Sweep machinery tests: grids, determinism, brackets, example sets."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CN_A,
    CONSTELLATION_HURWITZ,
    SHOWCASE_P2_STAR,
    REFERENCE_HURWITZ,
    draw_basic_admissible,
    showcase_params,
)
from hematodyn import (
    AxisSpec,
    CONSTELLATIONS,
    CONSTELLATION_DIRECTIONS,
    ModelParameters,
    PLAUSIBLE_INTERVALS,
    REFERENCE_PARAMETERS,
    SweepSpec,
    axis_for,
    bifurcation_bracket,
    char_poly_E2,
    check_constellations,
    dumps,
    hopf_point,
    hurwitz_classify,
    hurwitz_value,
    run_sweep,
    steady_state_E2,
    sweep_summary,
    write_sweep_csv,
)
from hematodyn.sweep import _CHUNK


def reference_csv(result):
    """Row-by-row CSV through the public accessors, the writer's oracle."""
    out = io.StringIO()
    out.write(",".join(result.spec.names) + ",e2_exists,hurwitz,class\n")
    for coords, exists, h, label in result.iter_rows():
        out.write(",".join("%.17g" % v for v in coords))
        out.write(",%d,%.17g,%s\n" % (exists, h, label))
    return out.getvalue()


class RecordingSink:
    def __init__(self):
        self.blocks = []

    def write(self, text):
        self.blocks.append(text)
        return len(text)


class TestAxisSpec:
    def test_feedback_strength_is_not_sweepable(self):
        with pytest.raises(ValueError, match="does not depend on k"):
            AxisSpec(name="k", low=1e-9, high=1e-8)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            AxisSpec(name="b2", low=0.0, high=1.0)

    def test_interval_and_count_validated(self):
        with pytest.raises(ValueError):
            AxisSpec(name="d3", low=2.0, high=1.0)
        with pytest.raises(ValueError):
            AxisSpec(name="d3", low=0.5, high=1.0, count=1)
        with pytest.raises(ValueError):
            AxisSpec(name="d3", low=0.5, high=1.0, nudge=0.5)

    @given(
        st.sampled_from(sorted(PLAUSIBLE_INTERVALS)),
        st.floats(min_value=0.0, max_value=0.49),
        st.floats(min_value=0.51, max_value=1.0),
        st.sampled_from(("low", "high", "count", "nudge")),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_fields_rejected(self, name, lo_frac, hi_frac, field, value):
        lo, hi = PLAUSIBLE_INTERVALS[name]
        fields = dict(name=name, low=lo + lo_frac * (hi - lo), high=lo + hi_frac * (hi - lo),
                      count=7, nudge=1e-4)
        AxisSpec(**fields)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} of the {name} axis must be finite"):
            AxisSpec(**fields)

    def test_leaving_plausible_range_warns(self):
        with pytest.warns(UserWarning, match="plausible range"):
            AxisSpec(name="d3", low=0.5, high=5.0)

    def test_grid_nudges_open_endpoints_inward(self):
        axis = axis_for("d3")
        grid = axis.grid()
        lo, hi = PLAUSIBLE_INTERVALS["d3"]
        pad = 1e-4 * (hi - lo)
        assert grid[0] == pytest.approx(lo + pad, rel=1e-14)
        assert grid[-1] == pytest.approx(hi - pad, rel=1e-14)
        assert len(grid) == 100
        assert np.all(np.diff(grid) > 0)


class TestSweepSpec:
    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(varied=(axis_for("d3"), axis_for("d3")))

    def test_axis_count_limits(self):
        with pytest.raises(ValueError):
            SweepSpec(varied=())

    def test_grid_size_cap(self):
        axes = tuple(axis_for(name, count=300) for name in ("p1", "a2", "d3"))
        with pytest.raises(ValueError, match="cap"):
            SweepSpec(varied=axes)

    def test_shape_and_names(self):
        spec = SweepSpec(varied=(axis_for("p1", 5), axis_for("d3", 4)))
        assert spec.shape == (5, 4)
        assert spec.names == ("p1", "d3")


class TestRunSweep:
    def test_every_single_parameter_sweep_is_cycle_free(self):
        # around the reference point no one-parameter excursion inside the
        # plausible box destabilizes the positive state
        for name in PLAUSIBLE_INTERVALS:
            result = run_sweep(SweepSpec(varied=(axis_for(name),)))
            assert result.counts["unstable"] == 0, name
            assert result.hopf_pair_count == 0, name
            assert result.n_points == 100

    @pytest.mark.parametrize("overrides,axes", [
        ({}, (axis_for("p2", 13), axis_for("d3", 11))),
        (CONSTELLATIONS[9], (AxisSpec("d1", 0.0, 0.3, 9), AxisSpec("d2", 2.0, 3.0, 11))),
        (CONSTELLATIONS[9], (
            AxisSpec("a2", 0.85, 1.0, 10), AxisSpec("d2", 2.0, 3.0, 9), AxisSpec("d1", 0.0, 0.09, 4)
        )),
    ], ids=["basic-p2-d3", "extended-d1-d2", "extended-a2-d2-d1"])
    def test_sweep_matches_pointwise_evaluation(self, overrides, axes):
        spec = SweepSpec(varied=axes, fixed=REFERENCE_PARAMETERS.with_(**overrides))
        result = run_sweep(spec)
        if overrides:
            # the extended grids cross both the existence and the Hopf boundary
            assert min(result.counts[name] for name in ("stable", "unstable", "nonexistent")) > 0
        for index in range(result.n_points):
            params = spec.fixed.with_(**dict(zip(spec.names, result.point_at(index))))
            exists = steady_state_E2(params) is not None
            assert result.exists[index] == exists
            if not exists:
                assert result.classification_at(index) == "nonexistent"
                continue
            coeffs = char_poly_E2(params)
            assert result.classification_at(index) == hurwitz_classify(coeffs)
            assert result.hurwitz[index] == pytest.approx(hurwitz_value(coeffs), rel=1e-9)

    def test_three_parameter_box_contains_reported_unstable_point(self):
        axes = (axis_for("p1", 40), axis_for("a2", 40), axis_for("d3", 40))
        result = run_sweep(SweepSpec(varied=axes))
        assert result.counts["unstable"] > 0
        assert result.hopf_pair_count > 0
        bounds = result.unstable_bounds
        target = CONSTELLATIONS[1]  # varies exactly these three parameters
        for name in ("p1", "a2", "d3"):
            lo, hi = bounds[name]
            assert lo <= target[name] <= hi

    def test_counts_partition_the_grid(self):
        result = run_sweep(SweepSpec(varied=(axis_for("a2", 80),)))
        assert sum(result.counts.values()) == result.n_points
        # high self-renewal of progenitors removes the positive state
        assert result.counts["nonexistent"] > 0
        assert np.isnan(result.hurwitz[~result.exists]).all()

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        spec = SweepSpec(varied=(axis_for("p1", 60), axis_for("d2", 50)))
        csv = {}
        results = {}
        for chunk in (7, 1000, _CHUNK):
            monkeypatch.setattr("hematodyn.sweep._CHUNK", chunk)
            results[chunk] = run_sweep(spec)
            out = io.StringIO()
            write_sweep_csv(results[chunk], out)
            csv[chunk] = out.getvalue()
        reference = results[_CHUNK]
        for chunk, result in results.items():
            assert np.array_equal(result.exists, reference.exists), chunk
            assert np.array_equal(result.class_codes, reference.class_codes), chunk
            assert np.array_equal(result.hurwitz, reference.hurwitz, equal_nan=True), chunk
            assert csv[chunk] == csv[_CHUNK], chunk


class TestResultAccess:
    def test_point_at_follows_c_order(self):
        spec = SweepSpec(varied=(axis_for("p1", 5), axis_for("d3", 4)))
        result = run_sweep(spec)
        g1 = spec.varied[0].grid()
        g2 = spec.varied[1].grid()
        assert result.point_at(0) == (g1[0], g2[0])
        assert result.point_at(7) == (g1[1], g2[3])
        rows = list(result.iter_rows())
        assert len(rows) == 20
        coords, exists, h, label = rows[7]
        assert coords == result.point_at(7)
        assert label == result.classification_at(7)

    def test_csv_layout(self):
        spec = SweepSpec(varied=(axis_for("d3", 3),))
        out = io.StringIO()
        write_sweep_csv(run_sweep(spec), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "d3,e2_exists,hurwitz,class"
        assert len(lines) == 4
        assert lines[1].endswith(",stable")

    def test_golden_digests(self):
        # frozen from the row-by-row writer; 11339 points (not a multiple of
        # the chunk size) with stable, unstable and nonexistent rows
        axes = (axis_for("p1", 23), axis_for("a2", 29), axis_for("d3", 17))
        result = run_sweep(SweepSpec(varied=axes))
        assert result.n_points % _CHUNK != 0
        assert result.counts["nonexistent"] > 0 and result.counts["unstable"] > 0
        out = io.StringIO()
        write_sweep_csv(result, out)
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
            "126b9eaa56e83fc5d25930459a40908f8d1bb192b816a1abd8ac2298e3e47b7e"
        )
        assert hashlib.sha256(dumps(sweep_summary(result)).encode("utf-8")).hexdigest() == (
            "30131a192ac8d9251bb257b0f565dc3f25bfb057eaf63ce61755bfb1ba7822d3"
        )

    @pytest.mark.parametrize("axes", [
        (("a2", 80),),
        tuple((name, 2) for name in PLAUSIBLE_INTERVALS),
        (("a2", _CHUNK - 1),),
        (("p1", 128), ("a2", _CHUNK // 128)),
        (("a2", 3), ("d3", (_CHUNK + 1) // 3)),
    ], ids=["1-axis", "7-axes", "chunk-1", "chunk", "chunk+1"])
    def test_csv_matches_row_by_row_reference(self, axes):
        result = run_sweep(SweepSpec(varied=tuple(axis_for(n, c) for n, c in axes)))
        sink = RecordingSink()
        write_sweep_csv(result, sink)
        assert "".join(sink.blocks) == reference_csv(result)
        # header, then one write per block of at most _CHUNK rows
        assert len(sink.blocks) == 1 + -(-result.n_points // _CHUNK)
        assert all(block.count("\n") <= _CHUNK for block in sink.blocks)

    def test_summary_structure_and_truncation(self):
        axes = (axis_for("p1", 40), axis_for("a2", 40), axis_for("d3", 40))
        result = run_sweep(SweepSpec(varied=axes))
        summary = sweep_summary(result, max_points=5)
        assert summary["total_points"] == 64000
        assert summary["counts"] == result.counts
        assert summary["unstable"]["count"] == result.counts["unstable"]
        assert len(summary["unstable"]["points"]) == 5
        assert summary["unstable"]["points_truncated"] is True
        assert set(summary["unstable"]["bounds"]) == {"p1", "a2", "d3"}
        assert [a["name"] for a in summary["axes"]] == ["p1", "a2", "d3"]


class TestBifurcationBracket:
    def test_matches_closed_form_for_basic_variant(self):
        root = bifurcation_bracket(showcase_params(0.4), 0.3, 0.5)
        assert root == pytest.approx(SHOWCASE_P2_STAR, abs=1e-9)

    def test_random_basic_draws_match_closed_form(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 20:
            params = draw_basic_admissible(rng)
            try:
                report = hopf_point(params.a1, params.a2, params.d3, params.p1)
            except ValueError:
                continue  # decay too fast for a crossing, draw again
            star = report.p2_star
            root = bifurcation_bracket(params, 0.5 * star, 2.0 * star)
            assert root == pytest.approx(star, rel=1e-8)
            checked += 1

    def test_extended_variant_crossing(self):
        root = bifurcation_bracket(CN_A, 0.4, 0.95)
        assert 0.4 < root < 0.6
        at_root = hurwitz_value(char_poly_E2(CN_A.with_(p2=root)))
        assert abs(at_root) < 1e-9

    def test_same_sign_endpoints_rejected(self):
        with pytest.raises(ValueError, match="same sign"):
            bifurcation_bracket(showcase_params(0.4), 0.45, 0.5)

    def test_nonexistent_state_rejected(self):
        # progenitor self-renewal so strong the positive state vanishes
        params = ModelParameters(a1=0.6, a2=0.7, p1=1.0, p2=0.5, d3=0.3, k=1e-8)
        with pytest.raises(ValueError, match="does not exist"):
            bifurcation_bracket(params, 0.1, 0.5)

    def test_endpoint_order_validated(self):
        with pytest.raises(ValueError):
            bifurcation_bracket(showcase_params(0.4), 0.5, 0.3)


class TestConstellations:
    def test_override_directions_match_reference(self):
        for index, moves in CONSTELLATION_DIRECTIONS.items():
            overrides = CONSTELLATIONS[index]
            assert set(moves) == set(overrides)
            for name, direction in moves.items():
                delta = overrides[name] - getattr(REFERENCE_PARAMETERS, name)
                assert delta * direction > 0, (index, name)

    def test_reports_without_classification(self):
        reports = check_constellations(run_classify=False)
        assert len(reports) == 10
        assert [r.index for r in reports] == list(range(10))
        reference = reports[0]
        assert reference.overrides == {}
        assert reference.e2_exists
        assert reference.hurwitz == pytest.approx(REFERENCE_HURWITZ, rel=1e-12)
        assert reference.classification == "stable"
        assert all(r.verdict is None for r in reports)

    def test_margins_match_frozen_values(self):
        reports = check_constellations(run_classify=False)
        for index in range(1, 10):
            report = reports[index]
            assert report.overrides == CONSTELLATIONS[index]
            assert report.e2_exists
            assert report.hurwitz == pytest.approx(
                CONSTELLATION_HURWITZ[index], rel=1e-12
            )

    def test_margin_signs(self):
        # seven of the nine sample points sit on the unstable side; 3 and 4
        # land stable (their unstable pockets open at larger p1), see the
        # acceptance test and README for the discrepancy
        reports = check_constellations(run_classify=False)
        expected_stable = {3, 4}
        for index in range(1, 10):
            expected = "stable" if index in expected_stable else "unstable"
            assert reports[index].classification == expected, index
