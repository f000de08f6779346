"""Attractor classification tests: peak finding, verdicts, horizons."""

import math

import numpy as np
import pytest

from conftest import (
    CN_A,
    SHOWCASE_IC_SETTLING,
    SHOWCASE_IC_CYCLE_HIGH,
    SHOWCASE_IC_CYCLE_LOW,
    SHOWCASE_PERIOD,
    showcase_params,
)
from hematodyn import analysis
from hematodyn import (
    AttractorVerdict,
    CellState,
    IntegrationConfig,
    ModelParameters,
    REFERENCE_PARAMETERS,
    Trajectory,
    classify,
    default_horizon,
    integrate,
    oscillation_report,
    rhs,
    steady_state_E2,
    steady_states,
)

# classify's own settings, which it checks by name before integrating
CLASSIFY_SETTINGS = ("horizon", "transient_fraction", "equilibrium_tol", "agreement_tol")


def sinusoid_trajectory(period, amplitude, offset, t_end, n):
    times = np.linspace(0.0, t_end, n)
    u3 = offset + amplitude * np.sin(2.0 * math.pi * times / period)
    states = np.column_stack([np.full(n, 1.0), np.full(n, 2.0), u3])
    return Trajectory(times, states)


class TestOscillationReport:
    def test_sinusoid_period_and_amplitude(self):
        period, amplitude = 17.3, 2.0
        traj = sinusoid_trajectory(period, amplitude, 10.0, 200.0, 4001)
        report = oscillation_report(traj)
        assert report.period == pytest.approx(period, rel=1e-3)
        # peak minus trough of a sinusoid is twice the amplitude
        assert report.amplitude == pytest.approx(2.0 * amplitude, rel=5e-3)
        assert len(report.peak_times) == len(report.peak_heights)

    def test_quadratic_refinement_beats_the_grid(self):
        # coarse sampling: raw grid maxima are off by up to half a stride,
        # the parabola fit should land much closer to the true crest
        period = 17.3
        traj = sinusoid_trajectory(period, 2.0, 10.0, 120.0, int(120.0 / (period / 12.0)))
        report = oscillation_report(traj)
        first_true = period / 4.0
        offsets = [
            abs(((t - first_true) % period + period / 2.0) % period - period / 2.0)
            for t in report.peak_times
        ]
        assert max(offsets) < 0.02 * period

    def test_constant_trajectory_has_no_peaks(self):
        times = np.linspace(0.0, 10.0, 101)
        states = np.full((101, 3), 5.0)
        report = oscillation_report(Trajectory(times, states))
        assert report.peak_times == ()
        assert report.period is None
        assert report.amplitude is None

    def test_two_peaks_give_single_interval_period(self):
        period = 40.0
        traj = sinusoid_trajectory(period, 1.0, 3.0, 85.0, 851)
        report = oscillation_report(traj)
        assert len(report.peak_times) == 2
        assert report.period == pytest.approx(period, rel=1e-3)
        assert report.amplitude == pytest.approx(2.0, rel=1e-2)

    def test_too_few_samples_rejected(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.ones((2, 3)))
        with pytest.raises(ValueError):
            oscillation_report(traj)


class TestVerdictValidation:
    def test_limit_cycle_needs_period_and_amplitude(self):
        with pytest.raises(ValueError):
            AttractorVerdict(kind="limit_cycle", period=None, amplitude_u3=1.0)
        with pytest.raises(ValueError):
            AttractorVerdict(kind="limit_cycle", period=10.0, amplitude_u3=0.0)

    def test_equilibrium_needs_label(self):
        with pytest.raises(ValueError):
            AttractorVerdict(kind="equilibrium")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttractorVerdict(kind="chaotic")


class TestClassify:
    def test_stable_side_settles_to_positive_equilibrium(self):
        params = showcase_params(p2=0.5)
        verdict = classify(params, SHOWCASE_IC_SETTLING)
        assert verdict.kind == "equilibrium"
        assert verdict.label == "E2"
        assert verdict.final_distance < 1e-3

    def test_settled_state_is_a_genuine_equilibrium(self):
        params = showcase_params(p2=0.5)
        e2 = steady_state_E2(params).state
        residual = np.linalg.norm(rhs(params, e2))
        scale = np.linalg.norm(e2.as_tuple())
        assert residual < 1e-6 * scale

    def test_unstable_side_cycles_from_both_starts(self):
        params = showcase_params(p2=0.3)
        v1 = classify(params, SHOWCASE_IC_CYCLE_HIGH)
        v2 = classify(params, SHOWCASE_IC_CYCLE_LOW)
        assert v1.kind == "limit_cycle"
        assert v2.kind == "limit_cycle"
        # same attractor regardless of the start
        assert v1.period == pytest.approx(v2.period, rel=5e-3)
        assert v1.amplitude_u3 == pytest.approx(v2.amplitude_u3, rel=2e-2)
        assert v1.amplitude_u3 > 0.0
        # the verdict's period and amplitude are the oscillation report of the
        # same post-transient half, bit for bit
        horizon = default_horizon(params)
        for start, verdict in ((SHOWCASE_IC_CYCLE_HIGH, v1), (SHOWCASE_IC_CYCLE_LOW, v2)):
            traj = integrate(params, start, IntegrationConfig(
                t_end=horizon, rel_tol=1e-8, abs_tol=1e-3, output_stride=horizon / 4000.0))
            keep = traj.times >= 0.5 * horizon
            report = oscillation_report(Trajectory(traj.times[keep], traj.states[keep]))
            assert (verdict.period, verdict.amplitude_u3) == (report.period, report.amplitude)

    def test_verdict_survives_tighter_tolerances(self):
        params = showcase_params(p2=0.3)
        base = classify(params, SHOWCASE_IC_CYCLE_HIGH)
        tight = classify(params, SHOWCASE_IC_CYCLE_HIGH, rel_tol=1e-10, abs_tol=1e-5)
        assert tight.kind == base.kind == "limit_cycle"
        assert tight.period == pytest.approx(base.period, rel=5e-3)

    def test_death_rates_present_still_cycles(self):
        e2 = steady_state_E2(CN_A).state
        start = CellState(1.25 * e2.u1, 1.25 * e2.u2, 1.25 * e2.u3)
        verdict = classify(CN_A, start)
        assert verdict.kind == "limit_cycle"
        assert verdict.period > 0.0

    def test_short_horizon_is_undecided_not_guessed(self):
        # decaying oscillations that have not settled yet
        verdict = classify(showcase_params(p2=0.41), SHOWCASE_IC_SETTLING, horizon=150.0)
        assert verdict.kind == "undecided"
        assert math.isfinite(verdict.final_distance)

    # the reference set started 5 % above E2 settles; a stride of the whole
    # horizon used to report that from the final sample alone
    @pytest.mark.parametrize("stride_per_horizon, kwargs, window", [
        (1.0, {}, "kept tail"),
        (1 / 30, {}, "trailing 5 %"),
        (0.1, {"transient_fraction": 0.97}, "kept tail"),
    ], ids=["whole-horizon", "two-in-settle-window", "late-transient"])
    def test_coarse_stride_refused_not_judged(self, monkeypatch, stride_per_horizon, kwargs, window):
        e2 = steady_state_E2(REFERENCE_PARAMETERS).state
        start = CellState(1.05 * e2.u1, e2.u2, e2.u3)
        stride = default_horizon(REFERENCE_PARAMETERS) * stride_per_horizon
        monkeypatch.setattr(analysis, "integrate", _not_integrated)
        with pytest.raises(ValueError, match=f"output_stride .* in the {window}.*at least 3"):
            classify(REFERENCE_PARAMETERS, start, output_stride=stride, **kwargs)

    def test_stride_too_coarse_for_peaks_named(self, monkeypatch):
        # two samples in the kept tail used to fail only inside the peak
        # search, with a message that did not name the setting
        params = showcase_params(p2=0.3)
        stride = default_horizon(params) / 2.5
        monkeypatch.setattr(analysis, "integrate", _not_integrated)
        with pytest.raises(ValueError, match="output_stride .* leaves 2 sample"):
            classify(params, SHOWCASE_IC_CYCLE_HIGH, output_stride=stride)

    # each setting follows the number rule before anything is integrated:
    # equilibrium_tol=True used to judge at a tolerance of 1.0, and
    # horizon=True and horizon=-5 were blamed on t_end
    @pytest.mark.parametrize("value, message, name", [
        *((value, message, name)
          for value, message in [
              (True, "must be a number, got True"), ("1", "must be a number, got '1'"),
              (math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
          ]
          for name in CLASSIFY_SETTINGS),
        *((value, f"must be positive and finite, got {value}", name)
          for value in (0.0, -5.0)
          for name in ("horizon", "equilibrium_tol", "agreement_tol")),
    ], ids=lambda arg: arg if arg in CLASSIFY_SETTINGS else repr(arg))
    def test_setting_refused_by_name_before_integrating(self, monkeypatch, value, message, name):
        start = steady_state_E2(REFERENCE_PARAMETERS).state
        monkeypatch.setattr(analysis, "integrate", _not_integrated)
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            classify(REFERENCE_PARAMETERS, start, **{name: value})

    # classify counts the sample grid before integrating; each count must be
    # that of the samples the run returns, also at the windows' edges
    @pytest.mark.parametrize("stride_per_horizon", [
        1.0, 0.6, 0.5, 0.45, 1 / 3, 0.25, 0.1, 1 / 19, 1 / 20, 1 / 21, 1 / 30, 1 / 40, 1 / 41, 1 / 60,
    ])
    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.95, 0.97, 0.99])
    def test_counts_are_those_of_the_integrated_samples(self, monkeypatch, stride_per_horizon, fraction):
        horizon = 300.0
        stride = horizon * stride_per_horizon
        e2 = steady_state_E2(REFERENCE_PARAMETERS).state
        start = CellState(1.05 * e2.u1, e2.u2, e2.u3)
        times = integrate(
            REFERENCE_PARAMETERS, start, IntegrationConfig(t_end=horizon, output_stride=stride)
        ).times
        keep = int(np.count_nonzero(times >= fraction * horizon))
        window = int(np.count_nonzero(times >= times[-1] - 0.05 * horizon))
        monkeypatch.setattr(analysis, "integrate", _not_integrated)
        if keep < 3:
            expected = (ValueError, rf"leaves {keep} sample\(s\) in the kept tail")
        elif window < 3:
            expected = (ValueError, rf"leaves {window} sample\(s\) in the trailing 5 %")
        else:
            expected = (_Integrated, "classify integrated")
        with pytest.raises(expected[0], match=expected[1]):
            classify(REFERENCE_PARAMETERS, start, horizon, transient_fraction=fraction,
                     output_stride=stride)

    def test_transient_fraction_validated(self):
        with pytest.raises(ValueError):
            classify(showcase_params(p2=0.5), SHOWCASE_IC_SETTLING, transient_fraction=1.0)

    def test_public_classify_integrates_once_and_returns_the_verdict(self, monkeypatch):
        runs = []

        def spy(*args):
            runs.append(args)
            return integrate(*args)

        monkeypatch.setattr(analysis, "integrate", spy)
        verdict = classify(showcase_params(p2=0.3), SHOWCASE_IC_CYCLE_HIGH)
        assert isinstance(verdict, AttractorVerdict)
        assert verdict.kind == "limit_cycle"
        assert len(runs) == 1


# E2 does not exist (2 * a1 * p1 < p1 + d1) and the run settles on E1
NO_E2 = REFERENCE_PARAMETERS.with_(d1=0.1)
NO_E2_START = CellState(1e8, 2e9, 4e8)

# one run of each verdict kind classify reaches from these starts
VERDICT_CASES = [
    (showcase_params(p2=0.3), SHOWCASE_IC_CYCLE_HIGH, "limit_cycle"),
    (showcase_params(p2=0.5), SHOWCASE_IC_SETTLING, "equilibrium"),
    (NO_E2, NO_E2_START, "equilibrium"),
]
VERDICT_IDS = ["showcase-cycle", "showcase-settling", "without-E2"]


def _relative_distance(row, reference):
    # the row-by-row form of the settle test's distance
    diff = row - reference
    return float(np.sqrt(diff @ diff) / max(float(np.sqrt(reference @ reference)), 1.0))


class TestFinalState:
    @pytest.mark.parametrize("params, start, kind", [
        *VERDICT_CASES[:2],
        (CN_A, CellState(*(1.25 * v for v in steady_state_E2(CN_A).state.as_tuple())), "limit_cycle"),
    ], ids=[*VERDICT_IDS[:2], "extended"])
    def test_verdict_is_judged_at_the_end_of_one_reproducible_run(self, params, start, kind):
        # the constellation audit retries an undecided set from the same
        # start, and `hematodyn classify` must print the audit's verdict, so
        # a second call gives the same bits; final_distance is that of the
        # final sample of the one run judged, whatever the verdict's kind
        horizon = default_horizon(params)
        verdict = classify(params, start, horizon)
        assert verdict.kind == kind
        assert classify(params, start, horizon) == verdict
        config = IntegrationConfig(t_end=horizon, output_stride=horizon / 4000.0)
        final = integrate(params, start, config).states[-1]
        want = min(_relative_distance(final, eq.state.as_array()) for eq in steady_states(params))
        assert verdict.final_distance.hex() == want.hex()


class TestSettleDistances:
    # E0, E1 and E2 all exist: d2 lies below (2 * a2 - 1) * p2
    PARAMS = ModelParameters(a1=0.85, a2=0.841, p1=1.0, p2=0.4, d1=0.01, d2=0.1, d3=0.36765, k=3.5e-8)

    @pytest.mark.parametrize("scale", [1e7, 1e11, 1e12], ids=["scale-1e7", "scale-1e11", "scale-1e12"])
    def test_stacked_distances_have_the_bits_of_the_row_by_row_form(self, scale):
        # the settle test's one array pass against the row-by-row form; E0's
        # zero reference takes the 1.0 floor of the norm
        targets = steady_states(self.PARAMS)
        assert [eq.label for eq in targets] == ["E0", "E1", "E2"]
        rng = np.random.default_rng(2301)
        rows = rng.uniform(0.0, scale, (4000, 3))
        rows[rng.random((4000, 3)) < 0.1] = 0.0
        rows[:3] = 0.0
        for eq in targets:
            ref = eq.state.as_array()
            # rows on and next to the reference, and the reference scaled up
            near = ref * rng.uniform(0.999, 1.001, (500, 3))
            states = np.vstack([rows, ref, near, ref * scale / max(ref.max(), 1.0)])
            got = analysis._relative_distances(states, ref).tolist()
            want = [_relative_distance(row, ref) for row in states]
            assert [v.hex() for v in got] == [v.hex() for v in want], eq.label

    @pytest.mark.parametrize("horizon", [50.0, 400.0])
    def test_final_distance_is_the_row_by_row_distance_of_the_final_sample(self, horizon):
        # the settle pass reads it off the trailing window's last sample
        e2 = steady_state_E2(self.PARAMS).state
        start = CellState(1.25 * e2.u1, 0.8 * e2.u2, 1.1 * e2.u3)
        verdict = classify(self.PARAMS, start, horizon)
        config = IntegrationConfig(t_end=horizon, output_stride=horizon / 4000.0)
        final = integrate(self.PARAMS, start, config).states[-1]
        want = min(_relative_distance(final, eq.state.as_array()) for eq in steady_states(self.PARAMS))
        assert verdict.final_distance.hex() == want.hex()

    @pytest.mark.parametrize("params, start, kind", VERDICT_CASES, ids=VERDICT_IDS)
    def test_final_distance_whatever_the_verdict(self, params, start, kind):
        # the same minimum over the steady states that exist, whether the
        # run settles or cycles
        verdict = classify(params, start)
        assert verdict.kind == kind
        horizon = default_horizon(params)
        config = IntegrationConfig(t_end=horizon, output_stride=horizon / 4000.0)
        final = integrate(params, start, config).states[-1]
        want = min(_relative_distance(final, eq.state.as_array()) for eq in steady_states(params))
        assert verdict.final_distance.hex() == want.hex()


class _Integrated(Exception):
    pass


def _not_integrated(*args, **kwargs):
    raise _Integrated("classify integrated")


class TestDefaultHorizon:
    def test_basic_variant_uses_bifurcation_frequency(self):
        horizon = default_horizon(showcase_params(p2=0.3))
        assert horizon == pytest.approx(40.0 * SHOWCASE_PERIOD, rel=1e-12)

    def test_no_bifurcation_falls_back_to_rescaled_span(self):
        # d3 beyond the critical ceiling: no closed-form frequency exists
        params = ModelParameters(a1=0.7, a2=0.5, p1=1.0, p2=0.5, d3=0.5, k=8.75e-9)
        assert default_horizon(params) == pytest.approx(2000.0)

    def test_extended_variant_scales_with_stem_rate(self):
        assert default_horizon(CN_A) == pytest.approx(2000.0)
        slower = CN_A.with_(p1=0.5)
        assert default_horizon(slower) == pytest.approx(4000.0)
