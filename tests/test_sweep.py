"""Sweep machinery tests: grids, determinism, brackets, example sets."""

import hashlib
import io
import json
import math
import multiprocessing
import os
import threading
import time
import tracemalloc

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
from hematodyn import sweep
from hematodyn import (
    AttractorVerdict,
    AxisSpec,
    CONSTELLATIONS,
    CONSTELLATION_DIRECTIONS,
    IntegrationError,
    ModelParameters,
    PLAUSIBLE_INTERVALS,
    REFERENCE_PARAMETERS,
    SweepResult,
    SweepSpec,
    axis_for,
    bifurcation_bracket,
    char_poly_E2,
    check_constellations,
    constellation_report_to_dict,
    dumps,
    hopf_point,
    hurwitz_classify,
    hurwitz_value,
    instability_region_bounds,
    run_sweep,
    steady_state_E2,
    sweep_summary,
    write_sweep_csv,
)
from hematodyn.stability import CLASS_NAMES
from hematodyn.sweep import _CHUNK, _CSV_BLOCK, _lanes


def point_at(grids, shape, index):
    """Coordinates of the grid point at a flat index (C order, last axis fastest)."""
    return tuple(float(g[i]) for g, i in zip(grids, np.unravel_index(index, shape)))


def reference_csv(result):
    """Row-by-row CSV from the axis grids and the result arrays, the writer's oracle."""
    grids = [axis.grid() for axis in result.spec.varied]
    out = io.StringIO()
    out.write(",".join(result.spec.names) + ",e2_exists,hurwitz,class\n")
    for index in range(result.n_points):
        out.write(",".join("%.17g" % v for v in point_at(grids, result.spec.shape, index)))
        label = CLASS_NAMES[result.class_codes[index]]
        exists = result.class_codes[index] != 3
        out.write(",%d,%.17g,%s\n" % (exists, result.hurwitz[index], label))
    return out.getvalue()


def assert_golden_digests():
    # frozen from the row-by-row writer; 11339 points (not a multiple of
    # the chunk size or the CSV block size) with stable, unstable and
    # nonexistent rows
    axes = (axis_for("p1", 23), axis_for("a2", 29), axis_for("d3", 17))
    result = run_sweep(SweepSpec(varied=axes))
    assert result.n_points % _CHUNK != 0 and result.n_points % _CSV_BLOCK != 0
    assert result.counts["nonexistent"] > 0 and result.counts["unstable"] > 0
    out = io.StringIO()
    write_sweep_csv(result, out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
        "126b9eaa56e83fc5d25930459a40908f8d1bb192b816a1abd8ac2298e3e47b7e"
    )
    assert hashlib.sha256(dumps(sweep_summary(result)).encode("utf-8")).hexdigest() == (
        "30131a192ac8d9251bb257b0f565dc3f25bfb057eaf63ce61755bfb1ba7822d3"
    )


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
        with pytest.raises(ValueError, match="does not depend on k"):
            axis_for("k", 5)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter 'b2'"):
            AxisSpec(name="b2", low=0.0, high=1.0)
        with pytest.raises(ValueError, match="unknown sweep parameter 'foo'"):
            axis_for("foo")

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

    @pytest.mark.parametrize("field", ["low", "high", "count", "nudge"])
    def test_non_numeric_field_named(self, field):
        fields = dict(name="d3", low=0.5, high=1.0, count=7, nudge=1e-4)
        fields[field] = "3"
        with pytest.raises(ValueError, match=f"{field} of the d3 axis must be a number, got '3'"):
            AxisSpec(**fields)

    # a bool is an int subclass, so low=True used to construct an axis
    @pytest.mark.parametrize("field", ["low", "high", "nudge"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)], ids=repr)
    def test_bool_field_named(self, field, value):
        fields = dict(name="d3", low=0.5, high=1.0, count=7, nudge=1e-4)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} of the d3 axis must be a number, got "):
            AxisSpec(**fields)

    @pytest.mark.parametrize("field", ["low", "high", "nudge"])
    def test_int_beyond_float_range_named(self, field):
        fields = dict(name="d3", low=0.5, high=1.0, count=7, nudge=1e-4)
        fields[field] = 10 ** 400
        with pytest.raises(ValueError, match=f"{field} of the d3 axis must be finite"):
            AxisSpec(**fields)

    def test_numeric_fields_stored_as_float(self):
        axis = AxisSpec(name="d3", low=np.float32(0.5), high=1, count=np.int64(7), nudge=0)
        assert (axis.low, axis.high, axis.nudge) == (0.5, 1.0, 0.0)
        assert all(type(v) is float for v in (axis.low, axis.high, axis.nudge))
        # a numpy count used to reach the summary, which then failed to serialize
        assert type(axis.count) is int and axis.count == 7
        summary = json.loads(dumps(sweep_summary(run_sweep(SweepSpec(varied=(axis,))))))
        assert summary["axes"][0]["count"] == 7

    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    def test_count_must_be_an_int(self, count):
        with pytest.raises(ValueError, match="count of the d3 axis must be an int"):
            AxisSpec(name="d3", low=0.5, high=1.0, count=count)

    def test_leaving_plausible_range_warns(self):
        with pytest.warns(UserWarning, match="plausible range") as record:
            AxisSpec(name="d3", low=0.5, high=5.0)
        # the warning names the AxisSpec(...) call, not the generated __init__
        assert record[0].filename == __file__

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
            assert sweep_summary(result)["unstable"]["bounds"] == {}, name

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
        grids = [axis.grid() for axis in axes]
        for index in range(result.n_points):
            point = point_at(grids, spec.shape, index)
            params = spec.fixed.with_(**dict(zip(spec.names, point)))
            exists = steady_state_E2(params) is not None
            # code 3 and a NaN margin exactly where E2 does not exist
            assert (result.class_codes[index] != 3) == exists
            assert math.isnan(result.hurwitz[index]) == (not exists)
            label = CLASS_NAMES[result.class_codes[index]]
            if not exists:
                assert label == "nonexistent"
                continue
            coeffs = char_poly_E2(params)
            assert label == hurwitz_classify(coeffs)
            assert result.hurwitz[index] == pytest.approx(hurwitz_value(coeffs), rel=1e-9)

    def test_three_parameter_box_contains_reported_unstable_point(self):
        axes = (axis_for("p1", 40), axis_for("a2", 40), axis_for("d3", 40))
        result = run_sweep(SweepSpec(varied=axes))
        assert result.counts["unstable"] > 0
        assert result.hopf_pair_count > 0
        bounds = sweep_summary(result)["unstable"]["bounds"]
        target = CONSTELLATIONS[1]  # varies exactly these three parameters
        for name in ("p1", "a2", "d3"):
            lo, hi = bounds[name]
            assert lo <= target[name] <= hi

    def test_unstable_points_fill_the_rescaled_triangle(self):
        # the vectorised margins put code 1 exactly in the open triangle
        # p2/p2_cut + d3/d3_cut < 1 of the rates rescaled by p1, here p1 = 0.8
        a1, a2, p1 = 0.75, 0.4, 0.8
        d3_cut, p2_cut = instability_region_bounds(a1, a2)
        fixed = ModelParameters(a1=a1, a2=a2, p1=p1, p2=0.1, d3=0.1, k=1e-8)
        axes = (
            AxisSpec("p2", 0.003, 1.5 * p1 * p2_cut, 90, nudge=0.0),
            AxisSpec("d3", 0.1, 1.5 * p1 * d3_cut, 70, nudge=0.0),
        )
        result = run_sweep(SweepSpec(varied=axes, fixed=fixed))
        p2, d3 = np.meshgrid(axes[0].grid(), axes[1].grid(), indexing="ij")
        inside = (p2 / (p1 * p2_cut) + d3 / (p1 * d3_cut)).ravel() < 1.0
        assert np.array_equal(result.class_codes == 1, inside)
        assert np.all(result.class_codes[~inside] == 0)
        assert 0 < np.count_nonzero(inside) < inside.size

    def test_overflowing_margin_is_refused(self):
        # where E2 exists the margin used to overflow to NaN or inf and be
        # counted: 4 "unstable" and 5 "marginal" points on this grid
        with pytest.warns(UserWarning, match="plausible range"):
            axes = tuple(AxisSpec(name, 1e150, 1e160, 3, nudge=0.0) for name in ("p2", "d3"))
        with pytest.raises(ValueError) as excinfo:
            run_sweep(SweepSpec(varied=axes))
        assert str(excinfo.value) == (
            "the Hurwitz margin overflows where the positive state exists, at p2=1e+150, d3=1e+150"
        )

    def test_counts_partition_the_grid(self):
        result = run_sweep(SweepSpec(varied=(axis_for("a2", 80),)))
        assert sum(result.counts.values()) == result.n_points
        # high self-renewal of progenitors removes the positive state
        assert result.counts["nonexistent"] > 0
        assert np.isnan(result.hurwitz[result.class_codes == 3]).all()

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        grids = [
            (axis_for("p1", 60), axis_for("d2", 50)),
            # crosses the existence and the Hopf boundary
            (axis_for("p1", 30), axis_for("a2", 25), axis_for("d3", 8)),
        ]
        for axes in grids:
            spec = SweepSpec(varied=axes)
            csv = {}
            results = {}
            for chunk in (7, 1000, _CHUNK):
                # the evaluation block and the CSV block alike
                monkeypatch.setattr("hematodyn.sweep._CHUNK", chunk)
                monkeypatch.setattr("hematodyn.sweep._CSV_BLOCK", chunk)
                results[chunk] = run_sweep(spec)
                out = io.StringIO()
                write_sweep_csv(results[chunk], out)
                csv[chunk] = out.getvalue()
            reference = results[_CHUNK]
            for chunk, result in results.items():
                assert np.array_equal(result.class_codes, reference.class_codes), chunk
                # code 3 exactly on the NaN margins, whichever block a point fell in
                assert np.array_equal(result.class_codes == 3, np.isnan(result.hurwitz)), chunk
                assert np.array_equal(result.hurwitz, reference.hurwitz, equal_nan=True), chunk
                assert result.counts == reference.counts, chunk
                assert np.array_equal(result.unstable_points, reference.unstable_points), chunk
                assert result.hopf_pair_count == reference.hopf_pair_count, chunk
                assert sweep_summary(result) == sweep_summary(reference), chunk
                assert csv[chunk] == csv[_CHUNK], chunk
        assert reference.counts["unstable"] > 0 and reference.counts["nonexistent"] > 0
        assert reference.hopf_pair_count > 0

    def test_memory_stays_within_the_result_and_one_block(self):
        # 27 blocks; every whole-grid temporary (a copy of the codes, a
        # product of margins) would cost at least a byte per point more
        spec = SweepSpec(varied=tuple(axis_for(name, 60) for name in ("p1", "a2", "d3")))
        tracemalloc.start()
        try:
            result = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_points > 25 * _CHUNK
        held = sum(array.nbytes for array in (result.hurwitz, result.class_codes, result.unstable_points))
        # a block's temporaries: its indices, coordinate columns and
        # coefficient arrays, well under 32 float64 values per point
        allowance = 32 * 8 * _CHUNK
        assert peak <= held + allowance, (peak, held)

    @pytest.mark.parametrize("chunk", [_CHUNK, 100])
    @pytest.mark.parametrize("counts", [
        (_CHUNK + 1000,),
        (3, _CHUNK + 5),
        (3, 4, 3, 3, 4, 3, 3),
    ], ids=["1-axis", "2-axes-long-slices", "7-axes"])
    def test_hopf_pairs_match_the_whole_array_rule(self, monkeypatch, counts, chunk):
        # random margins of both signs, NaN runs (no positive state) and
        # one adjacent pair whose product underflows to -0.0
        axes = tuple(axis_for(name, count) for name, count in zip(PLAUSIBLE_INTERVALS, counts))
        spec = SweepSpec(varied=axes)
        grids = [axis.grid() for axis in axes]
        rng = np.random.default_rng(len(counts))
        size = math.prod(counts)
        margins = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        for start in rng.integers(0, size, 20):
            margins[start:start + rng.integers(1, 300)] = np.nan
        tiny = int(rng.integers(0, size // counts[-1])) * counts[-1]
        margins[tiny:tiny + 2] = 1e-200, -1e-200
        assert margins[tiny] * margins[tiny + 1] == 0.0 and np.signbit(margins[tiny] * margins[tiny + 1])

        def injected(cols):
            # the flat index of each point, from its coordinates
            index = np.ravel_multi_index(
                [np.searchsorted(grid, cols[axis.name]) for grid, axis in zip(grids, axes)], spec.shape)
            h = margins[index]
            # E2 is missing exactly on the NaN margins; what run_sweep is
            # handed there must not count
            return ~np.isnan(h), np.where(np.isnan(h), -1.0, h), np.ones_like(h)

        monkeypatch.setattr(sweep, "_eval_columns", injected)
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
        result = run_sweep(spec)
        assert np.array_equal(result.hurwitz, margins, equal_nan=True)
        grid = margins.reshape(spec.shape)
        expected = 0
        for axis in range(len(counts)):
            along = np.moveaxis(grid, axis, 0)
            expected += int(np.count_nonzero(along[:-1] * along[1:] < 0.0))
        assert result.hopf_pair_count == expected
        assert expected > 0


class TestResultAccess:
    def test_flat_index_follows_c_order(self):
        spec = SweepSpec(varied=(axis_for("p1", 5), axis_for("d3", 4)))
        result = run_sweep(spec)
        g1 = spec.varied[0].grid()
        g2 = spec.varied[1].grid()
        assert point_at((g1, g2), spec.shape, 0) == (g1[0], g2[0])
        assert point_at((g1, g2), spec.shape, 7) == (g1[1], g2[3])
        # the arrays hold point 7's values, and the CSV writes them on row 7
        params = spec.fixed.with_(p1=g1[1], d3=g2[3])
        assert result.hurwitz[7] == pytest.approx(hurwitz_value(char_poly_E2(params)), rel=1e-9)
        out = io.StringIO()
        write_sweep_csv(result, out)
        rows = out.getvalue().splitlines()[1:]
        assert len(rows) == 20
        cells = rows[7].split(",")
        assert (float(cells[0]), float(cells[1])) == (g1[1], g2[3])
        assert cells[-1] == CLASS_NAMES[result.class_codes[7]]

    def test_csv_layout(self):
        spec = SweepSpec(varied=(axis_for("d3", 3),))
        out = io.StringIO()
        write_sweep_csv(run_sweep(spec), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "d3,e2_exists,hurwitz,class"
        assert len(lines) == 4
        assert lines[1].endswith(",stable")

    def test_golden_digests(self):
        assert_golden_digests()

    @pytest.mark.parametrize("axes", [
        (("a2", 80),),
        tuple((name, 2) for name in PLAUSIBLE_INTERVALS),
        (("a2", _CHUNK - 1),),
        (("p1", 128), ("a2", _CHUNK // 128)),
        (("a2", 3), ("d3", (_CHUNK + 1) // 3)),
        (("a2", _CSV_BLOCK - 1),),
        (("p1", 128), ("a2", _CSV_BLOCK // 128)),
        (("a2", 3), ("d3", (_CSV_BLOCK + 1) // 3)),
    ], ids=["1-axis", "7-axes", "chunk-1", "chunk", "chunk+1", "block-1", "block", "block+1"])
    def test_csv_matches_row_by_row_reference(self, axes):
        result = run_sweep(SweepSpec(varied=tuple(axis_for(n, c) for n, c in axes)))
        sink = RecordingSink()
        write_sweep_csv(result, sink)
        assert "".join(sink.blocks) == reference_csv(result)
        # header, then one write per block of at most _CSV_BLOCK rows
        assert len(sink.blocks) == 1 + -(-result.n_points // _CSV_BLOCK)
        assert all(block.count("\n") <= _CSV_BLOCK for block in sink.blocks)

    def test_edge_rows_match_row_by_row_reference(self, monkeypatch):
        # every class, marginal included, with signed zeros, nan, +-inf and
        # tiny margins; E2 is missing exactly on code 3, as in run_sweep
        spec = SweepSpec(varied=(axis_for("p1", 4), axis_for("d3", 3)))
        codes = np.array([0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 3], dtype=np.int8)
        margins = np.array([
            1e-300, np.inf, -1e-300, -np.inf, 0.0, -0.0,
            np.nan, np.nan, 2.5, -7.0, 1e-300, np.nan,
        ])
        result = SweepResult(
            spec=spec,
            hurwitz=margins,
            class_codes=codes,
            counts=dict(zip(CLASS_NAMES, np.bincount(codes).tolist())),
            unstable_points=np.empty((0, 2)),
            hopf_pair_count=0,
        )
        monkeypatch.setattr("hematodyn.sweep._CSV_BLOCK", 5)
        sink = RecordingSink()
        write_sweep_csv(result, sink)
        text = "".join(sink.blocks)
        assert text == reference_csv(result)
        assert len(sink.blocks) == 1 + 3
        assert all(block.count("\n") <= 5 for block in sink.blocks)
        assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == set(CLASS_NAMES)
        assert [line.split(",")[-2] for line in text.splitlines()[5:7]] == ["0", "-0"]

    def test_summary_structure_and_truncation(self, monkeypatch):
        axes = (axis_for("p1", 40), axis_for("a2", 40), axis_for("d3", 40))
        result = run_sweep(SweepSpec(varied=axes))
        monkeypatch.setattr("hematodyn.sweep._SUMMARY_POINTS", 5)
        summary = sweep_summary(result)
        assert summary["total_points"] == 64000
        assert summary["counts"] == result.counts
        assert summary["unstable"]["count"] == result.counts["unstable"]
        assert len(summary["unstable"]["points"]) == 5
        assert summary["unstable"]["points_truncated"] is True
        # each axis's range over all the unstable points, not only the listed ones
        pts = result.unstable_points
        assert pts.shape == (result.counts["unstable"], 3)
        assert summary["unstable"]["bounds"] == {
            name: [float(pts[:, pos].min()), float(pts[:, pos].max())]
            for pos, name in enumerate(("p1", "a2", "d3"))
        }
        assert [a["name"] for a in summary["axes"]] == ["p1", "a2", "d3"]


@pytest.fixture
def lanes(monkeypatch):
    """Set the usable-CPU count that _lanes sees; no helper may outlive a test."""
    # with a second thread running, _lanes runs everything in the caller
    assert threading.active_count() == 1

    def use(cpus):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)

    yield use
    assert multiprocessing.active_children() == []


def wait_for(ready, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not ready():
        assert time.monotonic() < deadline, "gave up waiting for another lane"
        time.sleep(0.001)


def caller_computes_one(fn, n, marks):
    """fn, except that with one helper the caller computes exactly one of n
    items. A helper's item notes its index, then waits until the caller has
    claimed an index (a file in marks); the caller's item waits until the
    helper has noted all n - 1 others, so none is left for it to claim."""
    caller, claimed = os.getpid(), marks / "claimed"

    def wrapped(index):
        if os.getpid() == caller:
            claimed.touch()
            wait_for(lambda: len(list(marks.glob("noted-*"))) == n - 1)
        else:
            (marks / f"noted-{index}").touch()
            wait_for(claimed.exists)
        return fn(index)

    return wrapped


def helper_reaches(monkeypatch, marks, fn, target):
    """fn, except that a helper, not the caller, computes index target.
    Helpers claim nothing until the caller's first item, index 0, has begun
    (a file in marks); that item waits until a helper has noted target."""
    caller, begun, lane = os.getpid(), marks / "begun", sweep._lane

    def late_lane(*args):
        wait_for(begun.exists)
        lane(*args)

    def wrapped(index):
        if os.getpid() != caller:
            (marks / f"noted-{index}").touch()
        elif not begun.exists():
            begun.touch()
            wait_for((marks / f"noted-{target}").exists)
        return fn(index)

    monkeypatch.setattr(sweep, "_lane", late_lane)
    return wrapped


def square(index):
    return index, index * index


def failing_at_4(marks, in_caller=True):
    """square, except that index 4 raises an IntegrationError (in a helper
    only, unless in_caller) and leaves a file named after the raising pid."""
    caller = os.getpid()

    def fn(index):
        if index == 4 and (in_caller or os.getpid() != caller):
            (marks / str(os.getpid())).touch()
            raise IntegrationError("step size underflow", 1.5, (1.0, 2.0, 3.0))
        return square(index)

    return fn


class TestLanes:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 400])
    def test_results_in_order(self, lanes, cpus, n):
        lanes(cpus)
        assert list(_lanes(square, n)) == [square(i) for i in range(n)]

    def test_work_is_split_between_processes(self, lanes, tmp_path):
        lanes(2)
        pids = list(_lanes(caller_computes_one(lambda index: os.getpid(), 6, tmp_path), 6))
        assert len(set(pids)) == 2
        assert pids.count(os.getpid()) == 1

    @pytest.mark.parametrize("cpus, n, thread", [(1, 5, False), (2, 1, False), (2, 5, True)],
                             ids=["one-cpu", "one-item", "second-thread"])
    def test_no_process_for_one_cpu_one_item_or_a_thread(self, lanes, monkeypatch, cpus, n, thread):
        lanes(cpus)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        if thread:
            other.start()
        try:
            assert list(_lanes(square, n)) == [square(i) for i in range(n)]
        finally:
            release.set()
            if thread:
                other.join(timeout=10.0)
        assert not other.is_alive()

    def test_exception_in_a_helper_is_raised_by_the_caller_as_serial(
            self, lanes, monkeypatch, tmp_path, tmp_path_factory):
        lanes(1)
        with pytest.raises(IntegrationError) as serial:
            list(_lanes(failing_at_4(tmp_path), 7))
        (tmp_path / str(os.getpid())).unlink()
        lanes(2)
        fn = helper_reaches(monkeypatch, tmp_path_factory.mktemp("marks"), failing_at_4(tmp_path), 4)
        got = []
        with pytest.raises(IntegrationError) as info:
            for value in _lanes(fn, 7):
                got.append(value)
        # a helper met the failure first, and the caller met it again
        assert sorted(path.name for path in tmp_path.iterdir()) != [str(os.getpid())]
        assert len(list(tmp_path.iterdir())) == 2
        assert got == [square(i) for i in range(4)]
        err, ref = info.value, serial.value
        assert type(err) is type(ref)
        assert (str(err), err.args, err.reason, err.time, err.state, err.trajectory) == (
            str(ref), ref.args, ref.reason, ref.time, ref.state, ref.trajectory)

    def test_failure_only_in_a_helper_changes_nothing(self, lanes, monkeypatch, tmp_path, tmp_path_factory):
        lanes(2)
        fn = helper_reaches(monkeypatch, tmp_path_factory.mktemp("marks"),
                            failing_at_4(tmp_path, in_caller=False), 4)
        assert list(_lanes(fn, 7)) == [square(i) for i in range(7)]
        raised = [path.name for path in tmp_path.iterdir()]
        assert len(raised) == 1 and raised != [str(os.getpid())]

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_helper_that_dies_changes_nothing(self, lanes, monkeypatch, tmp_path, cpus):
        lanes(cpus)
        caller = os.getpid()

        def dies_at_3(index):
            if index == 3 and os.getpid() != caller:
                os._exit(7)
            return square(index)

        fn = helper_reaches(monkeypatch, tmp_path, dies_at_3, 3)
        assert list(_lanes(fn, 8)) == [square(i) for i in range(8)]
        assert (tmp_path / "noted-3").exists()

    def test_consumer_closes_early(self, lanes):
        lanes(2)
        caller = os.getpid()

        def slow_in_helpers(index):
            if index > 0 and os.getpid() != caller:
                time.sleep(60.0)
            return square(index)

        results = _lanes(slow_in_helpers, 6)
        assert next(results) == square(0)
        t0 = time.perf_counter()
        results.close()
        # the helper still in its item is stopped, not waited for
        assert time.perf_counter() - t0 < 10.0

    def test_writer_whose_sink_raises_stops_the_helpers(self, lanes, monkeypatch):
        lanes(2)
        monkeypatch.setattr(sweep, "_CSV_BLOCK", 100)
        result = run_sweep(SweepSpec(varied=(axis_for("p1", 40), axis_for("d3", 30))))

        class FullDisk:
            def write(self, text):
                if text.count("\n") > 1:
                    raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_sweep_csv(result, FullDisk())


class TestLaneCountInvariance:
    # the usable-CPU count decides how many lanes run; bytes must not move
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("chunk, axes", [
        (5, (("a2", 23),)),
        (5, tuple((name, 2) for name in PLAUSIBLE_INTERVALS)),
        (5, (("p1", 7), ("a2", 6))),
        (_CHUNK, (("a2", 3 * _CHUNK // 2),)),
        (_CHUNK, tuple((name, 3 if name != "d3" else 13) for name in PLAUSIBLE_INTERVALS)),
        (_CHUNK, (("p1", 23), ("a2", 29), ("d3", 17))),
        (_CSV_BLOCK, (("a2", 3 * _CSV_BLOCK // 2),)),
        (_CSV_BLOCK, (("p1", 23), ("a2", 29), ("d3", 17))),
    ], ids=["5-1-axis", "5-7-axes", "5-long-axes", "chunk-1-axis", "chunk-7-axes", "chunk-3-axes",
            "block-1-axis", "block-3-axes"])
    def test_csv_bytes(self, lanes, monkeypatch, cpus, chunk, axes):
        monkeypatch.setattr(sweep, "_CSV_BLOCK", chunk)
        lanes(cpus)
        result = run_sweep(SweepSpec(varied=tuple(axis_for(n, c) for n, c in axes)))
        assert result.n_points % chunk != 0  # a partial last block
        sink = RecordingSink()
        write_sweep_csv(result, sink)
        assert "".join(sink.blocks) == reference_csv(result)
        assert [block.count("\n") for block in sink.blocks[1:-1]] == [chunk] * (len(sink.blocks) - 2)
        assert len(sink.blocks) == 1 + -(-result.n_points // chunk)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_golden_digests(self, lanes, cpus):
        lanes(cpus)
        assert_golden_digests()

    def test_constellation_reports(self, lanes, monkeypatch):
        # a short first horizon keeps the ten sets quick and still takes
        # every set through classification and its retry
        monkeypatch.setattr(sweep, "default_horizon", lambda params: 300.0)
        texts = {}
        for cpus in (1, 2, 4):
            lanes(cpus)
            texts[cpus] = [dumps(constellation_report_to_dict(r)) for r in check_constellations()]
        assert texts[2] == texts[1] and texts[4] == texts[1]
        assert len({json.loads(text)["verdict"]["kind"] for text in texts[1]}) > 1


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


def _bits(state):
    return [v.hex() for v in state.as_tuple()]


class TestRetry:
    # an audit set is classified from a 25 % overshoot of its positive state
    # over the default horizon; only an undecided verdict is tried once
    # more, from the same start over 8 times that horizon
    PARAMS = REFERENCE_PARAMETERS.with_(**CONSTELLATIONS[1])

    def scripted(self, monkeypatch, verdicts):
        """Patch sweep.classify to return verdicts in turn; return its calls."""
        calls = []

        def fake(params, initial, horizon):
            assert params is self.PARAMS
            calls.append((initial, horizon))
            return verdicts[len(calls) - 1]

        monkeypatch.setattr(sweep, "default_horizon", lambda params: 300.0)
        monkeypatch.setattr(sweep, "classify", fake)
        return calls

    def overshoot(self):
        return [(1.25 * v).hex() for v in steady_state_E2(self.PARAMS).state.as_tuple()]

    # a verdict of each kind; the first two are decided
    VERDICTS = [
        AttractorVerdict(kind="limit_cycle", period=1.0, amplitude_u3=1.0),
        AttractorVerdict(kind="equilibrium", label="E2"),
        AttractorVerdict(kind="undecided"),
    ]
    KINDS = ["limit-cycle", "equilibrium", "undecided"]

    @pytest.mark.parametrize("decided", VERDICTS[:2], ids=KINDS[:2])
    def test_decided_first_run_is_the_only_one(self, monkeypatch, decided):
        calls = self.scripted(monkeypatch, [decided])
        assert sweep._classify_from_equilibrium(self.PARAMS) is decided
        assert [(_bits(start), horizon) for start, horizon in calls] == [(self.overshoot(), 300.0)]

    @pytest.mark.parametrize("retried", VERDICTS, ids=KINDS)
    def test_undecided_first_run_is_retried_once_from_its_start(self, monkeypatch, retried):
        calls = self.scripted(monkeypatch, [AttractorVerdict(kind="undecided"), retried])
        # the retry's verdict stands, even when it is undecided again
        assert sweep._classify_from_equilibrium(self.PARAMS) is retried
        assert [(_bits(start), horizon) for start, horizon in calls] == [
            (self.overshoot(), 300.0), (self.overshoot(), 2400.0)]

    def test_set_without_a_positive_state_is_not_classified(self, monkeypatch):
        # 2 * a1 * p1 < p1 + d1: E2 does not exist, so there is no overshoot
        # of it to start from
        params = REFERENCE_PARAMETERS.with_(d1=0.1)
        assert steady_state_E2(params) is None

        def never(*args):
            raise AssertionError("classified a set without a positive state")

        monkeypatch.setattr(sweep, "classify", never)
        assert sweep._classify_from_equilibrium(params) is None
