"""Model-layer tests: right-hand side, steady states, Jacobian."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SHOWCASE_E2_AT_0P3937, showcase_params
from hematodyn import (
    CellState,
    IntegrationConfig,
    ModelParameters,
    REFERENCE_PARAMETERS,
    invariant_box,
    jacobian,
    nondimensionalize,
    rhs,
    steady_state_E1,
    steady_state_E2,
    steady_states,
)

fractions = st.floats(min_value=0.01, max_value=0.99)
rates = st.floats(min_value=0.01, max_value=3.0)
counts = st.floats(min_value=0.0, max_value=1e10)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def any_params(draw):
    return ModelParameters(
        a1=draw(fractions),
        a2=draw(fractions),
        p1=draw(rates),
        p2=draw(rates),
        d3=draw(rates),
        k=draw(st.floats(min_value=1e-10, max_value=1e-6)),
        d1=draw(st.floats(min_value=0.0, max_value=1.0)),
        d2=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


def residual_norm(params, state):
    return np.linalg.norm(rhs(params, state))


def state_norm(state):
    return np.linalg.norm(state.as_tuple())


class TestRhs:
    @given(params=any_params())
    def test_extinction_state_is_equilibrium(self, params):
        assert rhs(params, CellState(0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_vanishes_at_positive_equilibrium_showcase_params(self):
        params = showcase_params(p2=0.3937)
        e2 = steady_state_E2(params).state
        assert residual_norm(params, e2) < 1e-6 * state_norm(e2)

    def test_vanishes_at_positive_equilibrium_reference_params(self):
        e2 = steady_state_E2(REFERENCE_PARAMETERS).state
        assert residual_norm(REFERENCE_PARAMETERS, e2) < 1e-6 * state_norm(e2)

    def test_vanishes_at_semitrivial_equilibrium(self):
        e1 = steady_state_E1(REFERENCE_PARAMETERS).state
        assert residual_norm(REFERENCE_PARAMETERS, e1) < 1e-6 * state_norm(e1)

    @given(params=any_params(), u2=counts, u3=counts)
    def test_octant_preserved_on_u1_face(self, params, u2, u3):
        du1, _, _ = rhs(params, CellState(0.0, u2, u3))
        assert du1 >= 0.0

    @given(params=any_params(), u1=counts, u3=counts)
    def test_octant_preserved_on_u2_face(self, params, u1, u3):
        _, du2, _ = rhs(params, CellState(u1, 0.0, u3))
        assert du2 >= 0.0

    @given(params=any_params(), u1=counts, u2=counts)
    def test_octant_preserved_on_u3_face(self, params, u1, u2):
        _, _, du3 = rhs(params, CellState(u1, u2, 0.0))
        assert du3 >= 0.0


class TestNondimensionalize:
    def test_reference_ratios(self):
        q = nondimensionalize(REFERENCE_PARAMETERS)
        assert q.p1 == 1.0
        assert q.p2 == pytest.approx(4.0, rel=1e-15)
        assert q.d3 == pytest.approx(27.0, rel=1e-15)
        assert q.a1 == REFERENCE_PARAMETERS.a1
        assert q.k == REFERENCE_PARAMETERS.k

    def test_identity_when_already_rescaled(self):
        params = showcase_params(p2=0.5)
        assert nondimensionalize(params) == params


class TestSteadyStates:
    def test_semitrivial_example(self):
        # a2=0.841, p2=0.4, d3=2.7, k=1.75e-9
        e1 = steady_state_E1(REFERENCE_PARAMETERS).state
        assert e1.u1 == 0.0
        assert e1.u3 == pytest.approx(0.682 / 1.75e-9, rel=1e-12)
        assert e1.u2 == pytest.approx((2.7 / 0.4) * e1.u3, rel=1e-12)

    def test_semitrivial_absent_below_half(self):
        params = REFERENCE_PARAMETERS.with_(a2=0.4)
        assert steady_state_E1(params) is None

    def test_positive_equilibrium_showcase_values(self):
        e2 = steady_state_E2(showcase_params(p2=0.3937)).state
        assert e2.u1 == pytest.approx(SHOWCASE_E2_AT_0P3937[0], rel=1e-13)
        assert e2.u2 == pytest.approx(SHOWCASE_E2_AT_0P3937[1], rel=1e-13)
        assert e2.u3 == pytest.approx(SHOWCASE_E2_AT_0P3937[2], rel=1e-13)
        # coarse cross-check at reporting precision
        assert e2.u3 == pytest.approx(4.5714286e7, rel=1e-6)
        assert e2.u2 == pytest.approx(1.2075e7, rel=1e-4)
        assert e2.u1 == pytest.approx(1.3583e6, rel=1e-4)

    # the counts scale as 1/k: at k = 1e-310 they leave float range, and
    # the refusal used to name the count u2, which no caller gives
    @pytest.mark.parametrize("build, label, deaths", [
        (steady_state_E1, "E1", {}),
        (steady_state_E2, "E2", {}),
        (steady_state_E1, "E1", {"d1": 0.01, "d2": 0.1}),
        (steady_state_E2, "E2", {"d1": 0.01, "d2": 0.1}),
    ], ids=["E1-basic", "E2-basic", "E1-extended", "E2-extended"])
    def test_overflowing_counts_are_refused_naming_k(self, build, label, deaths):
        params = REFERENCE_PARAMETERS.with_(**deaths)
        assert all(math.isfinite(u) for u in build(params.with_(k=1e-300)).state.as_tuple())
        with pytest.raises(ValueError, match=f"^{label}'s cell counts overflow at k=1e-310: they scale as 1/k$"):
            build(params.with_(k=1e-310))

    def test_both_absent_when_fractions_small(self):
        params = ModelParameters(a1=0.4, a2=0.3, p1=1.0, p2=0.5, d3=0.5, k=1e-9)
        assert steady_state_E1(params) is None
        assert steady_state_E2(params) is None

    def test_positive_equilibrium_needs_a2_below_a1(self):
        params = showcase_params(p2=0.5).with_(a2=0.7)
        assert steady_state_E2(params) is None

    def test_boundary_a1_half_excluded(self):
        params = showcase_params(p2=0.5).with_(a1=0.5, a2=0.3)
        assert steady_state_E2(params) is None

    def test_steady_states_always_include_extinction(self):
        listed = steady_states(ModelParameters(a1=0.4, a2=0.3, p1=1.0, p2=0.5, d3=0.5, k=1e-9))
        assert [s.label for s in listed] == ["E0"]

    def test_extended_equilibrium_satisfies_rhs(self):
        rng = np.random.default_rng(3)
        from conftest import draw_extended_admissible

        for _ in range(200):
            params = draw_extended_admissible(rng)
            e2 = steady_state_E2(params)
            assert e2 is not None
            assert residual_norm(params, e2.state) < 1e-9 * max(state_norm(e2.state), 1.0)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        from conftest import draw_extended_admissible

        for _ in range(60):
            params = draw_extended_admissible(rng)
            state = np.array([rng.uniform(1e3, 1e9) for _ in range(3)])
            jac = jacobian(params, CellState(*state))
            for j in range(3):
                h = 1e-5 * max(1.0, abs(state[j]))
                up, dn = state.copy(), state.copy()
                up[j] += h
                dn[j] -= h
                fd = (np.array(rhs(params, CellState(*up)))
                      - np.array(rhs(params, CellState(*dn)))) / (2.0 * h)
                scale = np.maximum(np.abs(jac[:, j]), 1e-12 * np.abs(jac).max())
                assert np.all(np.abs(jac[:, j] - fd) <= 1e-5 * scale + 1e-9)

    def test_lower_triangular_at_extinction(self):
        params = ModelParameters(a1=0.85, a2=0.841, p1=1.0, p2=4.0, d3=27.0, k=1.75e-9)
        jac = jacobian(params, CellState(0.0, 0.0, 0.0))
        assert jac[0, 1] == 0.0 and jac[0, 2] == 0.0 and jac[1, 2] == 0.0
        assert jac[0, 0] == pytest.approx(0.7, rel=1e-12)
        assert jac[1, 1] == pytest.approx(0.682 * 4.0, rel=1e-12)
        assert jac[2, 2] == pytest.approx(-27.0, rel=1e-12)

    def test_first_row_vanishes_at_positive_equilibrium(self):
        params = showcase_params(p2=0.42)
        e2 = steady_state_E2(params).state
        jac = jacobian(params, e2)
        assert abs(jac[0, 0]) < 1e-9
        assert jac[0, 1] == 0.0


class TestInvariantBox:
    def test_ratio_bound_example(self):
        # reference values: rescaled p2 = 4, so B1 = 5 / 0.3
        box = invariant_box(REFERENCE_PARAMETERS, CellState(1.0, 1.0, 1.0))
        assert box.b1 == pytest.approx(5.0 / 0.3, rel=1e-12)

    def test_equal_death_rates_cancel_in_ratio_bound(self):
        base = invariant_box(REFERENCE_PARAMETERS, CellState(1.0, 1.0, 1.0))
        bumped = invariant_box(
            REFERENCE_PARAMETERS.with_(d1=0.07, d2=0.07), CellState(1.0, 1.0, 1.0)
        )
        assert bumped.b1 == pytest.approx(base.b1, rel=1e-12)

    def test_initial_state_always_contained(self):
        rng = np.random.default_rng(5)
        from conftest import draw_box_admissible

        for i in range(100):
            params, initial = draw_box_admissible(rng, extended=bool(i % 2))
            box = invariant_box(params, initial)
            assert box.contains(initial)

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ValueError):
            invariant_box(REFERENCE_PARAMETERS.with_(a1=1.0), CellState(1.0, 1.0, 1.0))


class TestValidation:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(ValueError):
            ModelParameters(a1=1.2, a2=0.5, p1=1.0, p2=0.5, d3=0.5, k=1e-9)
        with pytest.raises(ValueError):
            ModelParameters(a1=0.7, a2=0.5, p1=-1.0, p2=0.5, d3=0.5, k=1e-9)
        with pytest.raises(ValueError):
            ModelParameters(a1=0.7, a2=0.5, p1=1.0, p2=0.5, d3=0.5, k=0.0)

    @given(any_params(), st.sampled_from(("a1", "a2", "p1", "p2", "d3", "k", "d1", "d2")), non_finite)
    def test_non_finite_fields_rejected(self, params, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            params.with_(**{name: value})

    # a bool is an int subclass, so k=True used to pass and serialize as `true`
    @pytest.mark.parametrize("name", ["a1", "a2", "p1", "p2", "d3", "k", "d1", "d2"])
    @pytest.mark.parametrize("value", [True, False, "1e-9", None, np.bool_(True)], ids=repr)
    def test_bool_or_non_number_rate_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number, got "):
            REFERENCE_PARAMETERS.with_(**{name: value})

    @pytest.mark.parametrize("name", ["u1", "u2", "u3"])
    @pytest.mark.parametrize("value", [True, "1", None, np.bool_(False)], ids=repr)
    def test_bool_or_non_number_count_named(self, name, value):
        counts = dict(u1=1.0, u2=2.0, u3=3.0)
        counts[name] = value
        with pytest.raises(ValueError, match=f"{name} must be a number, got "):
            CellState(**counts)

    # float() of an int beyond float range raised a bare OverflowError
    @pytest.mark.parametrize("build, name", [
        (lambda v: REFERENCE_PARAMETERS.with_(k=v), "k"),
        (lambda v: REFERENCE_PARAMETERS.with_(d2=-v), "d2"),
        (lambda v: CellState(1.0, v, 3.0), "u2"),
        (lambda v: IntegrationConfig(t_end=v), "t_end"),
        (lambda v: IntegrationConfig(t_end=1.0, max_step=v), "max_step"),
    ], ids=["k", "negative-d2", "u2", "t_end", "max_step"])
    def test_int_beyond_float_range_named(self, build, name):
        with pytest.raises(ValueError, match=f"{name} must be finite, got a number beyond float range"):
            build(10 ** 400)

    def test_numpy_scalars_stored_as_float(self):
        params = REFERENCE_PARAMETERS.with_(p2=np.float32(0.5), d3=np.int64(2), k=np.float64(1e-9))
        assert (params.p2, params.d3, params.k) == (0.5, 2.0, 1e-9)
        assert all(type(getattr(params, name)) is float for name in ("p2", "d3", "k"))
        state = CellState(np.int64(1), np.float32(2.0), 3)
        assert state.as_tuple() == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in state.as_tuple())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CellState(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CellState(0.0, math.nan, 0.0)

    def test_is_basic_flag(self):
        assert REFERENCE_PARAMETERS.is_basic
        assert not REFERENCE_PARAMETERS.with_(d2=0.1).is_basic

    def test_with_replaces_fields(self):
        p = REFERENCE_PARAMETERS.with_(p2=0.7)
        assert p.p2 == 0.7
        assert p.a1 == REFERENCE_PARAMETERS.a1
