"""Integrator tests: accuracy, positivity, convergence order, dense output."""

import dataclasses
import functools
import hashlib
import inspect
import itertools
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    SHOWCASE_IC_CYCLE_HIGH,
    SHOWCASE_IC_SETTLING,
    draw_box_admissible,
    showcase_params,
    relative_distance,
)
from hematodyn import (
    CellState,
    IntegrationConfig,
    IntegrationError,
    ModelParameters,
    REFERENCE_PARAMETERS,
    Trajectory,
    integrate,
    invariant_box,
    nondimensionalize,
    steady_state_E2,
)
from hematodyn import integrator
from hematodyn.model import rhs_closure
from hematodyn.sweep import CONSTELLATIONS


class TestConfigValidation:
    def test_rel_tol_range(self):
        with pytest.raises(ValueError):
            IntegrationConfig(t_end=1.0, rel_tol=1e-2)
        with pytest.raises(ValueError):
            IntegrationConfig(t_end=1.0, rel_tol=1e-13)

    def test_positive_quantities(self):
        with pytest.raises(ValueError):
            IntegrationConfig(t_end=0.0)
        with pytest.raises(ValueError):
            IntegrationConfig(t_end=1.0, abs_tol=0.0)
        with pytest.raises(ValueError):
            IntegrationConfig(t_end=1.0, output_stride=-0.5)

    def test_sample_count_capped(self):
        # 1e12 samples would not fit in memory; construction refuses them
        with pytest.raises(ValueError, match="output_stride"):
            IntegrationConfig(t_end=1000.0, output_stride=1e-9)
        assert IntegrationConfig(t_end=1000.0, output_stride=2e-4).stride == 2e-4

    def test_step_count_capped(self):
        # a max_step this small needs more steps than integrate allows
        with pytest.raises(ValueError, match="max_step"):
            IntegrationConfig(t_end=101.0, max_step=1e-5)
        assert IntegrationConfig(t_end=100.0, max_step=1e-5).max_step == 1e-5

    @given(
        st.floats(min_value=1e-3, max_value=1e5),
        st.floats(min_value=1e-12, max_value=1e-3),
        st.floats(min_value=1e-9, max_value=1e6),
        st.sampled_from(("t_end", "rel_tol", "abs_tol", "max_step", "initial_step", "output_stride")),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_settings_rejected(self, t_end, rel_tol, abs_tol, name, value):
        fields = dict(t_end=t_end, rel_tol=rel_tol, abs_tol=abs_tol,
                      max_step=t_end, initial_step=t_end / 100.0, output_stride=t_end / 10.0)
        IntegrationConfig(**fields)
        fields[name] = value
        with pytest.raises(ValueError, match=name):
            IntegrationConfig(**fields)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "max_step", "initial_step", "output_stride"])
    def test_non_numeric_setting_named(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a number, got '1e-6'"):
            IntegrationConfig(t_end=10.0, **{name: "1e-6"})

    # a bool is an int subclass: t_end=True must not run for one day. None
    # is the default of the last three settings, so only the first three refuse it
    @pytest.mark.parametrize("name, value", [
        (name, value)
        for name in ("t_end", "rel_tol", "abs_tol", "max_step", "initial_step", "output_stride")
        for value in (True, False, "5", np.bool_(True), None)
        if value is not None or name in ("t_end", "rel_tol", "abs_tol")
    ], ids=repr)
    def test_bool_or_non_number_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number, got "):
            IntegrationConfig(**{"t_end": 10.0, name: value})

    @pytest.mark.parametrize("value", [np.int64(5), np.float32(5.0), 5])
    def test_numpy_and_int_t_end_stored_as_float(self, value):
        config = IntegrationConfig(t_end=value, output_stride=np.float32(0.5))
        assert type(config.t_end) is float and config.t_end == 5.0
        assert type(config.stride) is float and config.stride == 0.5

    def test_default_stride_is_two_thousandth(self):
        config = IntegrationConfig(t_end=100.0)
        assert config.stride == pytest.approx(0.05)


class TestTrajectoryShape:
    def test_times_and_bounds(self):
        params = showcase_params(p2=0.5)
        traj = integrate(params, SHOWCASE_IC_SETTLING, IntegrationConfig(t_end=20.0, output_stride=0.5))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 20.0
        assert np.all(np.diff(traj.times) > 0.0)
        assert np.all(traj.states >= 0.0)
        assert len(traj) == 41
        # interior samples sit exactly on the stride grid
        assert np.allclose(traj.times, np.arange(41) * 0.5, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t_end, stride", [
        (1.0, 0.1), (20.0, 0.5), (1818.4, 1818.4 / 4000.0), (100.0, 100.0), (100.0, 100.0 / 3.0),
        (300.0 / 0.5745702826844706, 300.0 / 0.5745702826844706 / 4000.0),
    ])
    def test_sample_grid_is_the_running_sum(self, t_end, stride):
        # the interior times are stride added up one at a time while short
        # of t_end - 1e-9 * stride, bit for bit
        want = []
        sample_t = stride
        while sample_t < t_end - 1e-9 * stride:
            want.append(sample_t)
            sample_t += stride
        got = integrator._sample_grid(stride, t_end).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_final_state_accessor(self):
        params = showcase_params(p2=0.5)
        traj = integrate(params, SHOWCASE_IC_SETTLING, IntegrationConfig(t_end=5.0))
        assert traj.final.as_tuple() == tuple(traj.states[-1])
        assert traj.state_at(0).as_tuple() == SHOWCASE_IC_SETTLING.as_tuple()

    def test_integrate_takes_params_initial_and_config(self):
        # a run's samples are all that it hands back, so nothing else is
        # asked of it
        assert list(inspect.signature(integrate).parameters) == ["params", "initial", "config"]
        with pytest.raises(TypeError):
            integrate(REFERENCE_PARAMETERS, CellState(1.0, 1.0, 1.0), IntegrationConfig(t_end=10.0),
                      mark=5.0)

    def test_trajectory_holds_times_and_states(self):
        assert [field.name for field in dataclasses.fields(Trajectory)] == ["times", "states"]

    def test_zero_initial_state_stays_zero(self):
        traj = integrate(
            REFERENCE_PARAMETERS, CellState(0.0, 0.0, 0.0), IntegrationConfig(t_end=50.0)
        )
        assert np.all(traj.states == 0.0)


class TestAccuracy:
    def test_converges_to_positive_equilibrium(self):
        # stable regime: p2 above the critical value
        params = showcase_params(p2=0.5)
        e2 = steady_state_E2(params).state
        traj = integrate(params, SHOWCASE_IC_SETTLING, IntegrationConfig(t_end=1500.0))
        assert relative_distance(traj.final, e2) < 1e-3

    def test_extinction_when_renewal_weak(self):
        params = ModelParameters(a1=0.3, a2=0.4, p1=1.0, p2=0.8, d3=0.5, k=1e-8)
        initial = CellState(1e3, 1e3, 1e3)
        traj = integrate(params, initial, IntegrationConfig(t_end=200.0))
        assert np.all(traj.states >= 0.0)
        assert np.linalg.norm(traj.final.as_tuple()) < 1.0

    def test_self_convergence_under_tolerance_halving(self):
        params = showcase_params(p2=0.5)
        coarse = IntegrationConfig(t_end=100.0, rel_tol=1e-6, abs_tol=1.0)
        fine = IntegrationConfig(t_end=100.0, rel_tol=5e-7, abs_tol=0.5)
        a = np.array(integrate(params, SHOWCASE_IC_SETTLING, coarse).final.as_tuple())
        b = np.array(integrate(params, SHOWCASE_IC_SETTLING, fine).final.as_tuple())
        allowance = coarse.abs_tol + coarse.rel_tol * np.linalg.norm(a, np.inf)
        # global error accumulates over many steps; stay within a modest
        # multiple of the per-step allowance
        assert np.linalg.norm(a - b, np.inf) < 100.0 * allowance

    def test_fifth_order_convergence(self):
        """Fixed-step error against a tight reference scales like h^5."""
        params = showcase_params(p2=0.5)
        t_end = 8.0
        ref = integrate(
            params, SHOWCASE_IC_SETTLING, IntegrationConfig(t_end=t_end, rel_tol=1e-12, abs_tol=1e-6)
        ).final
        ref = np.array(ref.as_tuple())
        errors = []
        for h in (0.5, 0.25, 0.125):
            # enormous abs_tol parks the controller at max_step, turning the
            # adaptive scheme into a fixed-step one for the order measurement
            config = IntegrationConfig(
                t_end=t_end, rel_tol=1e-3, abs_tol=1e15, max_step=h,
                initial_step=h, output_stride=t_end,
            )
            final = np.array(integrate(params, SHOWCASE_IC_SETTLING, config).final.as_tuple())
            errors.append(np.linalg.norm(final - ref) / np.linalg.norm(ref))
        order1 = math.log2(errors[0] / errors[1])
        order2 = math.log2(errors[1] / errors[2])
        assert 4.0 < order1 < 6.5
        assert 4.0 < order2 < 6.5

    def test_dense_samples_match_tight_reference(self):
        params = showcase_params(p2=0.5)
        loose = integrate(
            params, SHOWCASE_IC_SETTLING,
            IntegrationConfig(t_end=50.0, rel_tol=1e-8, abs_tol=1e-3, output_stride=0.25),
        )
        tight = integrate(
            params, SHOWCASE_IC_SETTLING,
            IntegrationConfig(t_end=50.0, rel_tol=1e-12, abs_tol=1e-6, output_stride=0.25),
        )
        assert np.allclose(loose.times, tight.times, rtol=0, atol=1e-9)
        scale = np.abs(tight.states).max()
        assert np.abs(loose.states - tight.states).max() < 1e-6 * scale

    def test_rescaled_run_matches_original_timebase(self):
        params = REFERENCE_PARAMETERS  # p1 = 0.1
        initial = CellState(1e6, 1e7, 1e8)
        t_end = 80.0
        original = integrate(
            params, initial,
            IntegrationConfig(t_end=t_end, rel_tol=1e-10, output_stride=1.0),
        )
        rescaled = integrate(
            nondimensionalize(params), initial,
            IntegrationConfig(t_end=0.1 * t_end, rel_tol=1e-10, output_stride=0.1),
        )
        assert np.allclose(rescaled.times, 0.1 * original.times, rtol=0, atol=1e-9)
        scale = np.abs(original.states).max()
        assert np.abs(original.states - rescaled.states).max() < 1e-6 * scale


class TestPositivityAndBounds:
    def test_random_draws_stay_nonnegative_and_boxed(self):
        rng = np.random.default_rng(31)
        for i in range(120):
            params, initial = draw_box_admissible(rng, extended=bool(i % 2))
            box = invariant_box(params, initial)
            traj = integrate(
                params, initial, IntegrationConfig(t_end=150.0 / params.p1)
            )
            assert np.all(traj.states >= 0.0)
            bounds = np.array([box.c1, box.c2, box.c3])
            assert np.all(traj.states <= bounds[None, :])

    def test_decay_through_noise_floor_does_not_abort(self):
        # components hovering near zero wobble within the error allowance;
        # the band policy must retry, not raise
        params = ModelParameters(a1=0.55, a2=0.3, p1=0.9, p2=0.2, d3=0.4, k=1e-8, d1=0.5, d2=1.0)
        initial = CellState(2e3, 5e2, 1e4)
        traj = integrate(params, initial, IntegrationConfig(t_end=400.0, abs_tol=1e-3))
        assert np.all(traj.states >= 0.0)


class TestFailureModes:
    def test_blowup_reported_with_partial_trajectory(self):
        # feedback too weak to matter before overflow; growth hits the float
        # ceiling and the error carries what was integrated up to that point
        params = ModelParameters(a1=0.99, a2=0.2, p1=3.0, p2=0.1, d3=0.1, k=1e-320)
        with pytest.raises(IntegrationError) as info:
            integrate(params, CellState(1e300, 1e300, 1e300), IntegrationConfig(t_end=50.0))
        err = info.value
        assert isinstance(err.trajectory, Trajectory)
        assert len(err.trajectory) > 1
        assert 0.0 < err.time < 50.0
        assert err.trajectory.times[-1] <= err.time
        # NaN arises on this path, so the step control's comparison order
        # shows here: pin where and how the run ends
        assert err.reason == "step size underflow"
        assert err.time.hex() == "0x1.50f60e89b63f3p+2"
        assert len(err.trajectory) == 211

    @pytest.mark.parametrize("partial", [False, True], ids=["no-trajectory", "trajectory"])
    def test_error_survives_pickling(self, partial):
        trajectory = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]]))
        err = IntegrationError("step size underflow", 1.0, (1.0, 2.0, 3.0),
                               trajectory if partial else None)
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is IntegrationError
        assert str(copy) == str(err) == "step size underflow at t=1.0, state=(1.0, 2.0, 3.0)"
        assert (copy.reason, copy.time, copy.state) == (err.reason, err.time, err.state)
        if partial:
            assert np.array_equal(copy.trajectory.times, trajectory.times)
            assert np.array_equal(copy.trajectory.states, trajectory.states)
        else:
            assert copy.trajectory is None

    def test_initial_state_type_checked(self):
        with pytest.raises(TypeError):
            integrate(REFERENCE_PARAMETERS, (1.0, 2.0, 3.0), IntegrationConfig(t_end=1.0))


# each DP5 row as (stage, coefficient) pairs in the integrator's term order;
# the last row is the fifth-order solution, which has no stage-2 term
_DP5_ROWS = (
    ((0, integrator._A21),),
    ((0, integrator._A31), (1, integrator._A32)),
    ((0, integrator._A41), (1, integrator._A42), (2, integrator._A43)),
    ((0, integrator._A51), (1, integrator._A52), (2, integrator._A53), (3, integrator._A54)),
    ((0, integrator._A61), (1, integrator._A62), (2, integrator._A63), (3, integrator._A64),
     (4, integrator._A65)),
    ((0, integrator._B1), (2, integrator._B3), (3, integrator._B4), (4, integrator._B5),
     (5, integrator._B6)),
)


def _dp5_step(f, state, k1, h):
    # one step with every stage slope from f; terms are added left to right
    # with no start value, as the integrator writes them
    slopes = [k1]
    for row in _DP5_ROWS:
        state_s = tuple(
            state[c] + h * functools.reduce(operator.add, (a * slopes[s][c] for s, a in row))
            for c in range(3)
        )
        slopes.append(f(*state_s))
    return state_s, slopes[-1]


class TestInlinedStages:
    def test_two_steps_match_rhs_closure(self):
        # integrate writes the right-hand side out in its stages; two steps
        # built from rhs_closure must give the same bits. Step 2 starts from
        # step 1's last slope, so all six written-out stages are covered.
        rng = np.random.default_rng(12)
        h = 1e-4  # small enough that the controller accepts both steps whole
        config = IntegrationConfig(t_end=2 * h, max_step=h, initial_step=h, output_stride=2 * h)
        for i in range(300):
            extended = i % 2 == 1
            params = ModelParameters(
                a1=rng.uniform(0.05, 0.98), a2=rng.uniform(0.05, 0.98),
                p1=rng.uniform(0.05, 3.0), p2=rng.uniform(0.05, 3.0), d3=rng.uniform(0.05, 3.0),
                k=10.0 ** rng.uniform(-10, -7),
                d1=rng.uniform(0.01, 1.0) if extended else 0.0,
                d2=rng.uniform(0.01, 1.0) if extended else 0.0,
            )
            state = 10.0 ** rng.uniform(3, 9, 3)
            if i % 5 == 0:
                state[i // 5 % 3] = 0.0
            state = tuple(state.tolist())
            f = rhs_closure(params)
            mid, k7 = _dp5_step(f, state, f(*state), h)
            want, _ = _dp5_step(f, mid, k7, h)
            traj = integrate(params, CellState(*state), config)
            assert traj.times.tolist() == [0.0, 2 * h]
            got = traj.final.as_tuple()
            assert [v.hex() for v in got] == [v.hex() for v in want], (i, params, state)


def _table_sum(k1, k2, k3, k4, k5, k6, k7):
    # the generic form of the dense-output coefficients, kept as the oracle
    # for the unrolled integrator._dense_coeffs
    ks = (k1, k2, k3, k4, k5, k6, k7)
    return tuple(sum(ks[s] * integrator._P[s][j] for s in range(7)) for j in range(4))


def _digest(traj):
    return hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest()


_SET8 = REFERENCE_PARAMETERS.with_(**CONSTELLATIONS[8])
_SET8_E2 = steady_state_E2(_SET8).state
_CLAMP_AND_DIP = (ModelParameters(a1=0.55, a2=0.3, p1=0.9, p2=0.2, d3=0.4, k=1e-8, d1=0.5, d2=1.0),
                  CellState(2e3, 5e2, 1e4), IntegrationConfig(t_end=400.0, abs_tol=1e-3))
_CLAMP_AND_DIP_DIGEST = "c7674332bc2b32d304ed4bcfddd1e24250030598c36f7f9dacd052b2bad0c600"


class TestDenseOutputBits:
    @pytest.mark.parametrize("params, initial, config, digest", [
        # showcase cycle at a 0.05 d stride: about 14 samples per step
        (showcase_params(p2=0.3), SHOWCASE_IC_CYCLE_HIGH,
         IntegrationConfig(t_end=400.0, output_stride=0.05),
         "1089ff3ede97e355a103ef5082ada3ae3162f6251a2d07e0c6722a7269275211"),
        # extended variant (d1, d2 > 0) started 5 % above E2 in u1
        (_SET8, CellState(1.05 * _SET8_E2.u1, _SET8_E2.u2, _SET8_E2.u3),
         IntegrationConfig(t_end=2000.0),
         "8810df4a02c1860508caa5c96312c3c46a24cc53916a28babdfd1e36b2967a25"),
        # decay through the noise floor: clamps undershoots and rejects
        # steps on both a step-end dip and a dense-output dip
        (*_CLAMP_AND_DIP, _CLAMP_AND_DIP_DIGEST),
        # a 50 d first step: the error estimate rejects it (err > 1) six times
        (showcase_params(p2=0.3), SHOWCASE_IC_CYCLE_HIGH,
         IntegrationConfig(t_end=100.0, initial_step=50.0),
         "b7b5654152e0df0e56c27f873ee6025694b86d9d1a81becf0ac5110ab61b5088"),
        # max_step caps 199 of the 202 step-size updates
        (showcase_params(p2=0.5), SHOWCASE_IC_SETTLING,
         IntegrationConfig(t_end=100.0, max_step=0.5),
         "ce48eaf710810d6410523025eed5eeb594ab1ed957638294e022db85e685e719"),
        # zero state: every error estimate is exactly 0, so each step grows by fac_cap
        (REFERENCE_PARAMETERS, CellState(0.0, 0.0, 0.0), IntegrationConfig(t_end=50.0),
         "4804a3e643d0874bdec712673441f622ff50529f4aeffed37e28f8fe9bfeb81b"),
        # every step is max_step = output_stride long, so t + h adds up as
        # the sample grid does and each step's one sample lies on its end
        (showcase_params(p2=0.3), SHOWCASE_IC_CYCLE_HIGH,
         IntegrationConfig(t_end=60.0, initial_step=0.1, max_step=0.1, output_stride=0.1),
         "d764b73a02076812f2287580c735e349f7cbc537b53c0609ed796940cc6c30c0"),
        # every step is two strides long, and its second sample lies on its end
        (showcase_params(p2=0.3), SHOWCASE_IC_CYCLE_HIGH,
         IntegrationConfig(t_end=60.0, initial_step=0.125, max_step=0.125, output_stride=0.0625),
         "c10579d1493eb015b7fe7f6ac2800ed6b3de756f8072c1dc957c9b63f322ac45"),
    ], ids=["showcase-fine-stride", "set8-extended", "clamp-and-dip",
            "oversized-initial-step", "max-step-cap", "zero-state",
            "one-sample-on-each-step-end", "two-samples-second-on-the-step-end"])
    def test_samples_are_pinned(self, params, initial, config, digest):
        assert _digest(integrate(params, initial, config)) == digest

    def test_unrolled_coeffs_match_table_sum(self):
        rng = np.random.default_rng(9)
        cases = []
        for _ in range(2000):
            ks = rng.choice([-1.0, 1.0], 7) * 10.0 ** rng.uniform(-3.0, 9.0, 7)
            ks[rng.random(7) < 0.2] = 0.0
            ks[rng.random(7) < 0.05] = -0.0
            cases.append(ks.tolist())
        # all-zero slopes in every sign pattern: only the sum's start value
        # then decides the sign of a zero coefficient
        cases.extend(itertools.product((0.0, -0.0), repeat=7))
        wants = []
        for k1, k2, k3, k4, k5, k6, k7 in cases:
            got = integrator._dense_coeffs(k1, k3, k4, k5, k6, k7)
            want = _table_sum(k1, k2, k3, k4, k5, k6, k7)
            assert [q.hex() for q in got] == [q.hex() for q in want]
            wants.append(want)
        # the block evaluation applies the same function to numpy columns
        k1, _, k3, k4, k5, k6, k7 = np.array(cases).T
        got = integrator._dense_coeffs(k1, k3, k4, k5, k6, k7)
        for j, column in enumerate(got):
            assert [q.hex() for q in column.tolist()] == [want[j].hex() for want in wants]

    def test_interpolant_ends_on_the_step_endpoint(self):
        # at theta = 1 the quartic sums each stage's row of _P, which must be
        # that stage's fifth-order weight
        weights = (integrator._B1, 0.0, integrator._B3, integrator._B4,
                   integrator._B5, integrator._B6, 0.0)
        for row, weight in zip(integrator._P, weights):
            assert abs(math.fsum(row) - weight) <= 1e-15


# E2 does not exist (2 * a1 * p1 < p1 + d1): the stem line washes out, and
# near zero a fine stride's samples dip past the clamp band
_WASHOUT = ModelParameters(
    a1=0.804097900850991, a2=0.6257690665059411, p1=0.5745702826844706,
    p2=0.45083640165882344, d3=1.2237066098584077, k=2.4655620557082846e-09,
    d1=0.5132974960368444, d2=0.7406101406949239,
)
_WASHOUT_START = CellState(16736.934370118302, 7282.320334267583, 647437.1342604525)
_WASHOUT_T_END = 300.0 / _WASHOUT.p1


def _outcome(params, initial, config):
    # every byte integrate hands back: the samples' digest, or the error's
    # reason, time, state and partial samples
    try:
        traj = integrate(params, initial, config)
    except IntegrationError as err:
        return err.reason, err.time.hex(), tuple(v.hex() for v in err.state), _digest(err.trajectory)
    return _digest(traj)


@pytest.fixture
def replays(monkeypatch):
    """(record, resume state) for each dip that evaluating a block of records finds."""
    found = []
    flush = integrator._flush

    def spy(records, *args):
        block = list(integrator._RECORD.iter_unpack(bytes(records)))
        kept, replay = flush(records, *args)
        if replay is not None:
            found.append((next(r for r in block if r[10] == replay[11]), replay))
        return kept, replay

    monkeypatch.setattr(integrator, "_flush", spy)
    return found


# A washing-out set at a loose rel_tol: the large counts set the error
# tolerance, so a small count dips below zero between samples while every
# step still ends above abs_tol, and the dip is found in a block
_LOOSE = ModelParameters(a1=0.92, a2=0.85, p1=0.32, p2=0.72, d3=1.0, k=1.5e-10, d1=1.08, d2=0.63)
_LOOSE_START = CellState(3.0e5, 6.0, 1.6e6)
_LOOSE_TOLERANCES = dict(rel_tol=9e-4, abs_tol=0.07)


def _loose_config(samples):
    return IntegrationConfig(t_end=64.0, output_stride=64.0 / samples, **_LOOSE_TOLERANCES)


def _washout_config(samples):
    return IntegrationConfig(t_end=_WASHOUT_T_END, output_stride=_WASHOUT_T_END / samples)


# what the step loop gave when it evaluated each sample in the step that
# owns it and rejected the step at once on a dip
_LOOSE_FAULT_AFTER_DIP = ("step limit exceeded", "0x1.707449f824229p+4",
                          ("0x1.145c98950adf4p-8", "0x1.343d5547718a1p+10", "0x1.30b6e095b7cf8p+8"),
                          "593db590be4b6f55c7dbe3cf048ba3d83eb87591a16da887d74d376f34893c8b")
_LOOSE_FAULT_BEFORE_DIP = ("step limit exceeded", "0x1.9978015680c8ep+3",
                           ("0x1.2f4f8a233c1cap+3", "0x1.17b34ebd30a94p+12", "0x1.15918bdcd1047p+10"),
                           "d2dd65d8895d28919f630aaee074957d9d5f50a8045f9b983f56b6e7ea76576e")
_FAULT_AFTER_DIP = ("step limit exceeded", "0x1.110aabe78afd6p+8",
                    ("0x1.a973a17303ddap-45", "0x1.15d1cfb8236aap-31", "0x0.0p+0"),
                    "6ea64a79daefdbc867ce1625bf64ce80d7242b563bdad74f1137e0d604e55d54")
_FAULT_BEFORE_DIP = ("step limit exceeded", "0x1.6ce55b3f488dbp+7",
                     ("0x1.df1767bee54f4p-30", "0x1.d185cee65890fp-31", "0x0.0p+0"),
                     "95c300de845f343d09803b9b222ab5abea24498de9e7fc57384291f5b23d007c")


class TestDenseOutputReplay:
    """Samples are evaluated a block of steps at a time, after the steps are
    taken; a dip among them resumes the loop from its step, as rejecting
    that step at once would have. From a run's first dip, or from the first
    sampling step that ends within abs_tol of zero, samples are evaluated
    in the step that owns them. Every pin is what the step loop gave when
    it evaluated each sample in its own step."""

    # At 20 and 50 samples the loose run has one dip, in the step from loop
    # top 18 (t = 17.5), at the step's first and at its second sample, and
    # the block that holds it is evaluated after t = 24.8.
    @pytest.mark.parametrize("samples, digest", [
        (20, "1ce4d43046ca60e39d4ffb4e1775ff460f099fec17e73d9166eac31aac351e64"),
        (50, "09e4283d9207fd5de617a67930c22a001a3111ef455d08a04303c7080a1808e9"),
    ], ids=["first-sample", "later-sample"])
    def test_dip_resumes_from_its_step(self, replays, samples, digest):
        traj = integrate(_LOOSE, _LOOSE_START, _loose_config(samples))
        (record, replay), = replays
        # the rejection's state: the step's loop top, with h halved and fac_cap 1
        assert replay == (*record[:7], record[7] * 0.5, record[8], record[9], 1.0, 18)
        assert _digest(traj) == digest

    def test_fault_with_records_pending(self, monkeypatch, replays):
        # The step limit stops the 20-sample loose run while the records of
        # its last steps wait for evaluation. At 22 steps those hold the dip
        # at loop top 18, so the loop resumes from there; at 15 they hold no
        # dip, and their samples still reach the error's partial trajectory.
        monkeypatch.setattr(integrator, "_MAX_STEPS", 22)
        assert _outcome(_LOOSE, _LOOSE_START, _loose_config(20)) == _LOOSE_FAULT_AFTER_DIP
        assert len(replays) == 1
        monkeypatch.setattr(integrator, "_MAX_STEPS", 15)
        assert _outcome(_LOOSE, _LOOSE_START, _loose_config(20)) == _LOOSE_FAULT_BEFORE_DIP
        assert len(replays) == 1

    def test_samples_taken_in_the_step_after_a_dip(self, replays):
        # a loose run whose counts stay above abs_tol through six dips: the
        # first is found in a block, and the five after it are rejected in
        # their steps, with the bytes a block evaluation of each gives
        params = ModelParameters(a1=0.82, a2=0.47, p1=0.54, p2=0.88, d3=0.2, k=5.8e-7, d1=0.64, d2=1.46)
        config = IntegrationConfig(t_end=466.0, rel_tol=2.9e-4, abs_tol=1.7e-3, output_stride=1.165)
        traj = integrate(params, CellState(3.7e8, 1.8e4, 9.1e5), config)
        assert len(replays) == 1
        assert _digest(traj) == "213885a3a35c2ccacdac6b639e0827186afb99f1daae1105917bcd7f1d204596"

    # The washing-out run ends a sampling step below abs_tol before its
    # first dip, at every stride, so each of its dips rejects its step at
    # once: at 20 and 50 samples one dip, at loop top 179; at 4000 samples
    # 55 dips.
    @pytest.mark.parametrize("samples, digest", [
        (20, "b5d8c110bfb90ce12f58f38d5ce6003398c9614d49b0e956bf6b1528b8749973"),
        (50, "f16047f1e129c2b8d7b5392e28bad699441d8e6fc16ed3483bfbc2ff27b9b9bf"),
        (4000, "ba147b2ad67e76b93e438a01ac01be18600378f0b2a79eb40626d957f1e4683d"),
    ], ids=["20", "50", "4000"])
    def test_dips_near_zero_rejected_in_the_step(self, replays, samples, digest):
        traj = integrate(_WASHOUT, _WASHOUT_START, _washout_config(samples))
        assert not replays
        assert _digest(traj) == digest

    def test_fault_after_sampling_in_the_step(self, monkeypatch, replays):
        # the step limit stops the 20-sample washing-out run after (185)
        # and before (170) its dip at loop top 179
        monkeypatch.setattr(integrator, "_MAX_STEPS", 185)
        assert _outcome(_WASHOUT, _WASHOUT_START, _washout_config(20)) == _FAULT_AFTER_DIP
        monkeypatch.setattr(integrator, "_MAX_STEPS", 170)
        assert _outcome(_WASHOUT, _WASHOUT_START, _washout_config(20)) == _FAULT_BEFORE_DIP
        assert not replays

    @pytest.mark.parametrize("block", [1, 7, integrator._BLOCK])
    def test_block_size_changes_no_byte(self, monkeypatch, replays, block):
        monkeypatch.setattr(integrator, "_BLOCK", block)
        # two dips, the first with err_prev above its 1e-4 floor
        assert _outcome(*_CLAMP_AND_DIP) == _CLAMP_AND_DIP_DIGEST
        assert _outcome(_WASHOUT, _WASHOUT_START, _washout_config(4000)) == (
            "ba147b2ad67e76b93e438a01ac01be18600378f0b2a79eb40626d957f1e4683d")
        assert not replays
        assert _outcome(_LOOSE, _LOOSE_START, _loose_config(50)) == (
            "09e4283d9207fd5de617a67930c22a001a3111ef455d08a04303c7080a1808e9")
        assert len(replays) == 1
        monkeypatch.setattr(integrator, "_MAX_STEPS", 22)
        assert _outcome(_LOOSE, _LOOSE_START, _loose_config(20)) == _LOOSE_FAULT_AFTER_DIP
        monkeypatch.setattr(integrator, "_MAX_STEPS", 15)
        assert _outcome(_LOOSE, _LOOSE_START, _loose_config(20)) == _LOOSE_FAULT_BEFORE_DIP
        assert len(replays) == 2
