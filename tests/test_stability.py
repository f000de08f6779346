"""Stability layer: coefficients, Routh-Hurwitz, Hopf point, instability region."""

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CN_A,
    CN_A_HURWITZ,
    SHOWCASE_BETA,
    SHOWCASE_D3_MAX,
    SHOWCASE_GAMMA,
    SHOWCASE_LAMBDA3,
    SHOWCASE_MU_PRIME,
    SHOWCASE_OMEGA,
    SHOWCASE_P2_STAR,
    REFERENCE_HURWITZ,
    draw_basic_admissible,
    draw_extended_admissible,
    showcase_params,
)
from hematodyn import (
    CharPolyCoeffs,
    ModelParameters,
    REFERENCE_PARAMETERS,
    beta_gamma,
    char_poly_E2,
    char_poly_at,
    eigenvalues_at,
    hopf_point,
    hurwitz_classify,
    hurwitz_codes,
    hurwitz_factored,
    hurwitz_value,
    instability_region_bounds,
    jacobian,
    stability_report,
    stability_reports,
    steady_state_E0,
    steady_state_E1,
    steady_state_E2,
)
from hematodyn.stability import MARGINAL_TOL, _basic_coeffs_rescaled, _extended_coeffs, _shape_constants


def numpy_char_coeffs(params, state):
    """Independent oracle: coefficients from trace/minors/determinant."""
    jac = jacobian(params, state)
    b1 = -np.trace(jac)
    b2 = 0.0
    for i in range(3):
        rows = [r for r in range(3) if r != i]
        b2 += np.linalg.det(jac[np.ix_(rows, rows)])
    b3 = -np.linalg.det(jac)
    return b1, b2, b3


def ndarray_char_coeffs(params, state):
    """The 9-entry expressions on the ndarray of `jacobian`, as numpy scalars."""
    j = jacobian(params, state)
    b1 = -(j[0, 0] + j[1, 1] + j[2, 2])
    b2 = (
        (j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1])
        + (j[0, 0] * j[2, 2] - j[0, 2] * j[2, 0])
        + (j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
    )
    det = (
        j[0, 0] * (j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1])
        - j[0, 1] * (j[1, 0] * j[2, 2] - j[1, 2] * j[2, 0])
        + j[0, 2] * (j[1, 0] * j[2, 1] - j[1, 1] * j[2, 0])
    )
    return float(b1), float(b2), float(-det)


def numpy_hurwitz_codes(h, prod):
    """Reference: the Hurwitz class rule written with numpy calls."""
    marginal = np.abs(h) <= MARGINAL_TOL * np.maximum(1.0, np.abs(prod))
    return np.where(marginal, 2, np.where(h > 0.0, 0, 1))


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


class TestBetaGamma:
    def test_rational_oracle_at_showcase_fractions(self):
        # the kernel's exact rational values for a1=7/10, a2=1/2
        _, beta, gamma = _shape_constants(Fraction(7, 10), Fraction(5, 7))
        assert beta == Fraction(53, 63)
        assert gamma == Fraction(40, 9)
        got = beta_gamma(0.7, 0.5)
        assert got.beta == pytest.approx(float(beta), rel=1e-15)
        assert got.gamma == pytest.approx(float(gamma), rel=1e-15)
        assert got.beta == pytest.approx(SHOWCASE_BETA, rel=1e-15)
        assert got.gamma == pytest.approx(SHOWCASE_GAMMA, rel=1e-15)

    def test_vanishing_a2_limit(self):
        got = beta_gamma(0.8, 1e-12)
        assert got.beta == pytest.approx(1.0, abs=1e-11)
        assert got.gamma == pytest.approx((1 / 1.6) / (1 - 1 / 1.6), rel=1e-10)

    @given(
        a1=st.floats(min_value=0.501, max_value=0.999),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_ranges(self, a1, frac):
        got = beta_gamma(a1, frac * a1)
        assert 0.0 < got.beta < 1.0
        assert got.gamma > 0.0

    def test_a2_at_or_above_a1_rejected(self):
        with pytest.raises(ValueError):
            beta_gamma(0.7, 0.7)
        with pytest.raises(ValueError):
            beta_gamma(0.7, 0.9)


HOPF_RATES = dict(a1=0.7, a2=0.5, d3=0.1337, p1=1.0)
FACTORED_RATES = dict(a1=0.7, a2=0.5, p2=0.3, d3=0.1337)


class TestBasicClosedFormDomain:
    # the basic-variant closed forms used to return numbers for a1 >= 1,
    # hopf_point(True, ...) computed with a1 = 1, and a string a1 or a2
    # was a bare TypeError from the domain comparison
    closed_forms = pytest.mark.parametrize("closed_form", [
        lambda a1, a2: beta_gamma(a1, a2),
        lambda a1, a2: hopf_point(a1, a2, 0.1, 1.0),
        lambda a1, a2: instability_region_bounds(a1, a2),
        lambda a1, a2: hurwitz_factored(a1, a2, 0.3, 0.1),
    ], ids=["beta_gamma", "hopf_point", "instability_region_bounds", "hurwitz_factored"])

    @closed_forms
    @pytest.mark.parametrize("a1, message", [
        (1.0, "the basic closed forms need 1/2 < a1 < 1, got a1=1.0"),
        (1.5, "the basic closed forms need 1/2 < a1 < 1, got a1=1.5"),
        (True, "a1 must be a number, got True"),
        (0.5, "the basic closed forms need 1/2 < a1 < 1, got a1=0.5"),
        (math.nan, "a1 must be finite, got nan"),
        (math.inf, "a1 must be finite, got inf"),
        ("0.7", "a1 must be a number, got '0.7'"),
    ], ids=["1.0", "1.5", "True", "0.5", "nan", "inf", "'0.7'"])
    def test_a1_outside_half_to_one_refused(self, closed_form, a1, message):
        with pytest.raises(ValueError) as excinfo:
            closed_form(a1, 0.5)
        assert str(excinfo.value) == message

    @closed_forms
    @pytest.mark.parametrize("a2, message", [
        ("0.7", "a2 must be a number, got '0.7'"),
        (True, "a2 must be a number, got True"),
        (math.nan, "a2 must be finite, got nan"),
        (0.8, "the basic closed forms need 0 < a2 < a1, got a1=0.8, a2=0.8"),
    ], ids=["'0.7'", "True", "nan", "0.8"])
    def test_a2_outside_zero_to_a1_refused(self, closed_form, a2, message):
        with pytest.raises(ValueError) as excinfo:
            closed_form(0.8, a2)
        assert str(excinfo.value) == message

    # hopf_point(0.7, 0.5, 0.1337, inf) used to return p2_star=inf, omega=nan,
    # and hurwitz_factored inf or nan for p2 = inf or d3 = nan
    @pytest.mark.parametrize("closed_form, rates, name", [
        (hopf_point, HOPF_RATES, "p1"), (hopf_point, HOPF_RATES, "d3"),
        (hurwitz_factored, FACTORED_RATES, "p2"), (hurwitz_factored, FACTORED_RATES, "d3"),
    ], ids=["p1", "d3", "hurwitz_factored-p2", "hurwitz_factored-d3"])
    @pytest.mark.parametrize("value, message", [
        (math.inf, "must be finite"), (math.nan, "must be finite"),
        (True, "must be a number"), ("1", "must be a number"),
        (0.0, "must be positive and finite"), (-1.0, "must be positive and finite"),
    ], ids=repr)
    def test_hopf_rates_follow_the_number_rule(self, closed_form, rates, name, value, message):
        with pytest.raises(ValueError, match=f"{name} {message}, got "):
            closed_form(**{**rates, name: value})


class TestClosedFormBits:
    # no CLI digest reaches beta_gamma, hurwitz_factored or
    # instability_region_bounds; their float outputs on seeded draws (and
    # hopf_point's) are pinned here, so that moving arithmetic between an
    # entry check and its kernel cannot move a bit unseen
    def test_outputs_are_pinned(self):
        rng = np.random.default_rng(2713)
        digest = hashlib.sha256()
        for _ in range(500):
            a1 = rng.uniform(0.501, 0.999)
            a2 = rng.uniform(0.001, 0.999) * a1
            p1, p2, d3 = rng.uniform(0.01, 2.0, size=3).tolist()
            bg = beta_gamma(a1, a2)
            hopf = hopf_point(a1, a2, rng.uniform(0.01, 0.99) * p1 / (bg.beta * bg.gamma), p1)
            digest.update(bits(
                bg.beta, bg.gamma, hurwitz_factored(a1, a2, p2, d3),
                *instability_region_bounds(a1, a2),
                hopf.p2_star, hopf.d3_max, hopf.omega, hopf.lambda3, hopf.mu_prime,
            ))
        assert digest.hexdigest() == (
            "9f994620d689f5bdae481cc7cbfb0b5462c3da725b19e2f483f5c73f0a6ece84"
        )


class TestCharPoly:
    def test_matches_numpy_oracle_basic(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            params = draw_basic_admissible(rng)
            coeffs = char_poly_E2(params)
            b1, b2, b3 = numpy_char_coeffs(params, steady_state_E2(params).state)
            assert coeffs.b1 == pytest.approx(b1, rel=1e-9, abs=1e-12)
            assert coeffs.b2 == pytest.approx(b2, rel=1e-9, abs=1e-12)
            assert coeffs.b3 == pytest.approx(b3, rel=1e-9, abs=1e-12)

    def test_matches_numpy_oracle_extended(self):
        rng = np.random.default_rng(22)
        for _ in range(400):
            params = draw_extended_admissible(rng)
            coeffs = char_poly_E2(params)
            b1, b2, b3 = numpy_char_coeffs(params, steady_state_E2(params).state)
            scale = max(abs(b1), abs(b2), abs(b3), 1e-30)
            assert abs(coeffs.b1 - b1) < 1e-9 * max(abs(b1), 1e-3 * scale)
            assert abs(coeffs.b2 - b2) < 1e-9 * max(abs(b2), 1e-3 * scale)
            assert abs(coeffs.b3 - b3) < 1e-9 * max(abs(b3), 1e-3 * scale)

    def test_extended_reduces_to_basic(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            params = draw_basic_admissible(rng)
            basic = _basic_coeffs_rescaled(params.a1, params.a2, params.p2, params.d3)
            ext = _extended_coeffs(
                params.a1, params.a2, 1.0, params.p2, 0.0, 0.0, params.d3
            )
            for x, y in zip(basic, ext):
                assert x == pytest.approx(y, rel=1e-12, abs=1e-15)

    def test_positive_leading_coeffs_when_basic(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            coeffs = char_poly_E2(draw_basic_admissible(rng))
            assert coeffs.b1 > 0.0
            assert coeffs.b3 > 0.0

    def test_hurwitz_zero_at_critical_p2(self):
        coeffs = char_poly_E2(showcase_params(p2=SHOWCASE_P2_STAR))
        assert abs(hurwitz_value(coeffs)) <= 1e-9 * abs(coeffs.b1 * coeffs.b2)

    def test_reference_parameters_stable(self):
        coeffs = char_poly_E2(REFERENCE_PARAMETERS)
        assert hurwitz_value(coeffs) == pytest.approx(REFERENCE_HURWITZ, rel=1e-12)
        assert hurwitz_classify(coeffs) == "stable"

    def test_neutropenia_regime_parameters_unstable(self):
        assert hurwitz_value(char_poly_E2(CN_A)) == pytest.approx(CN_A_HURWITZ, rel=1e-12)

    def test_nonexistent_equilibrium_rejected(self):
        params = ModelParameters(a1=0.4, a2=0.3, p1=1.0, p2=0.5, d3=0.5, k=1e-9)
        with pytest.raises(ValueError):
            char_poly_E2(params)

    def test_k_invariance_of_coefficients(self):
        base = None
        for k in (1e-10, 1.75e-9, 3.5e-8, 1e-6):
            coeffs = char_poly_E2(showcase_params(p2=0.31).with_(k=k))
            if base is None:
                base = coeffs
            else:
                assert coeffs == base  # bit-identical


class TestHurwitzClassify:
    def test_above_critical_stable(self):
        assert hurwitz_classify(char_poly_E2(showcase_params(p2=0.5))) == "stable"

    def test_below_critical_unstable(self):
        assert hurwitz_classify(char_poly_E2(showcase_params(p2=0.3))) == "unstable"

    def test_exact_zero_marginal(self):
        assert hurwitz_classify(CharPolyCoeffs(b1=2.0, b2=3.0, b3=6.0)) == "marginal"

    def test_tolerance_band_marginal(self):
        coeffs = CharPolyCoeffs(b1=2.0, b2=3.0, b3=6.0 + 1e-13)
        assert hurwitz_classify(coeffs) == "marginal"

    def test_out_of_theory_coefficients_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_classify(CharPolyCoeffs(b1=-1.0, b2=1.0, b3=1.0))
        with pytest.raises(ValueError):
            hurwitz_classify(CharPolyCoeffs(b1=1.0, b2=1.0, b3=-1.0))

    def test_agrees_with_eigenvalues(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            params = draw_basic_admissible(rng)
            coeffs = char_poly_E2(params)
            verdict = hurwitz_classify(coeffs)
            eigs = np.linalg.eigvals(jacobian(params, steady_state_E2(params).state))
            top = max(eigs, key=lambda z: z.real).real
            if verdict == "stable":
                assert top < 0.0
            elif verdict == "unstable":
                assert top > 0.0


class TestHurwitzCodes:
    @staticmethod
    def edge_pairs():
        # margins at and a few ulps either side of both thresholds, signed
        # zeros, infinities and NaN, against products below, at and above 1
        prods = [0.0, -0.0, 0.5, -0.5, 1.0, 3.7, -3.7, 1e10, 1e300, math.inf, -math.inf]
        hs = [0.0, -0.0, 1.0, -1.0, 1e-300, math.inf, -math.inf, math.nan]
        for threshold in {MARGINAL_TOL * max(1.0, abs(p)) for p in prods} | {MARGINAL_TOL}:
            for steps in range(-3, 4):
                x = threshold
                for _ in range(abs(steps)):
                    x = math.nextafter(x, math.inf if steps > 0 else 0.0)
                hs += [x, -x]
        prods += [math.nan]
        return [(h, p) for h in hs for p in prods]

    @staticmethod
    def differs(h, prod):
        # the one known difference: a margin within MARGINAL_TOL of zero with
        # a NaN product is marginal now, since |h| <= tol is tested apart from
        # |h| <= tol*|prod|; the numpy rule took max(1, NaN) = NaN and went by
        # the sign of h. No caller passes such a pair. hurwitz_classify and
        # the sweep take h = prod - b3, NaN with prod. In
        # _classify_by_eigenvalues a NaN prod = max(|z|) means the first
        # eigenvalue has a NaN part; solve_cubic's Newton polish turns that
        # into a NaN real part, so h = -(largest real part) is NaN as well.
        return abs(h) <= MARGINAL_TOL and math.isnan(prod)

    def test_matches_numpy_rule_on_edges(self):
        pinned = 0
        for h, prod in self.edge_pairs():
            want = int(numpy_hurwitz_codes(h, prod))
            got = hurwitz_codes(h, prod)
            assert type(got) is int
            if self.differs(h, prod):
                assert (want, got) == (0 if h > 0.0 else 1, 2)
                pinned += 1
            else:
                assert got == want, (h, prod)
        assert pinned == 11  # +-0.0, 1e-300, and +-tol with its three ulp neighbours below

    def test_matches_numpy_rule_on_arrays_and_floats(self):
        rng = np.random.default_rng(211)
        edges = [pair for pair in self.edge_pairs() if not self.differs(*pair)]
        edge_h, edge_prod = np.array(edges).T
        # seeded margins spanning the marginal band, with products of any sign
        prod = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3.0, 6.0, 4000)
        h = rng.normal(size=4000) * MARGINAL_TOL * 10.0 ** rng.uniform(-1.0, 7.0, 4000)
        h, prod = np.concatenate([h, edge_h]), np.concatenate([prod, edge_prod])
        want = numpy_hurwitz_codes(h, prod)
        assert np.array_equal(hurwitz_codes(h, prod), want)
        assert set(np.unique(want).tolist()) == {0, 1, 2}
        assert [hurwitz_codes(x, y) for x, y in zip(h.tolist(), prod.tolist())] == want.tolist()


class TestFloatPath:
    @staticmethod
    def draws():
        rng = np.random.default_rng(212)
        for _ in range(200):
            # a2 on both sides of 1/2, so that E1 exists for about half the draws
            params = draw_basic_admissible(rng).with_(a2=rng.uniform(0.02, 0.98))
            yield params
            yield draw_extended_admissible(rng)

    def test_char_poly_at_has_the_ndarray_bits(self):
        seen = set()
        for params in self.draws():
            for eq in (steady_state_E0(), steady_state_E1(params), steady_state_E2(params)):
                if eq is None:
                    continue
                seen.add(eq.label)
                c = char_poly_at(params, eq.state)
                assert bits(c.b1, c.b2, c.b3) == bits(*ndarray_char_coeffs(params, eq.state))
        assert seen == {"E0", "E1", "E2"}

    def test_reports_hold_python_floats_and_complexes(self):
        for params in self.draws():
            for report in stability_reports(params).values():
                if report.equilibrium is None:
                    continue
                values = (report.coeffs.b1, report.coeffs.b2, report.coeffs.b3, report.hurwitz)
                assert [type(v) for v in values] == [float] * 4
                assert [type(z) for z in report.eigenvalues] == [complex] * 3


class TestFactoredIdentity:
    @given(
        a1=st.floats(min_value=0.51, max_value=0.99),
        frac=st.floats(min_value=0.02, max_value=0.98),
        p2=st.floats(min_value=0.01, max_value=2.0),
        d3=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_factored_equals_raw(self, a1, frac, p2, d3):
        a2 = frac * a1
        b1, b2, b3 = _basic_coeffs_rescaled(a1, a2, p2, d3)
        raw = b1 * b2 - b3
        factored = hurwitz_factored(a1, a2, p2, d3)
        assert factored == pytest.approx(raw, rel=1e-10, abs=1e-14)


class TestHopfPoint:
    def test_showcase_values(self):
        h = hopf_point(0.7, 0.5, 0.1337, 1.0)
        assert h.p2_star == pytest.approx(0.3937, abs=5e-4)  # four-digit rounding
        assert h.p2_star == pytest.approx(SHOWCASE_P2_STAR, rel=1e-14)
        assert h.d3_max == pytest.approx(SHOWCASE_D3_MAX, rel=1e-14)
        assert h.omega == pytest.approx(SHOWCASE_OMEGA, rel=1e-14)
        assert h.lambda3 == pytest.approx(SHOWCASE_LAMBDA3, rel=1e-14)
        assert h.mu_prime == pytest.approx(SHOWCASE_MU_PRIME, rel=1e-14)

    def test_critical_coefficients_are_marginal(self):
        h = hopf_point(0.7, 0.5, 0.1337, 1.0)
        coeffs = char_poly_E2(showcase_params(p2=h.p2_star))
        assert hurwitz_classify(coeffs) == "marginal"

    def test_eigenvalues_at_criticality(self):
        h = hopf_point(0.7, 0.5, 0.1337, 1.0)
        params = showcase_params(p2=h.p2_star)
        eigs = eigenvalues_at(params, steady_state_E2(params))
        # conjugate pair on the axis plus the negative real eigenvalue
        assert eigs[0].real == pytest.approx(0.0, abs=1e-12)
        assert abs(eigs[0].imag) == pytest.approx(h.omega, rel=1e-9)
        assert eigs[2].real == pytest.approx(h.lambda3, rel=1e-9)

    def test_transversality_against_finite_differences(self):
        h = hopf_point(0.7, 0.5, 0.1337, 1.0)
        step = 1e-5
        res = []
        for p2 in (h.p2_star + step, h.p2_star - step):
            params = showcase_params(p2=p2)
            eigs = np.linalg.eigvals(jacobian(params, steady_state_E2(params).state))
            res.append(max(z.real for z in eigs))
        slope = (res[0] - res[1]) / (2.0 * step)
        assert h.mu_prime == pytest.approx(slope, rel=1e-3)
        assert h.mu_prime < 0.0

    def test_transversality_on_random_draws(self):
        rng = np.random.default_rng(26)
        done = 0
        while done < 25:
            a1 = rng.uniform(0.55, 0.95)
            a2 = rng.uniform(0.05, a1 - 0.05)
            bg = beta_gamma(a1, a2)
            d3 = rng.uniform(0.2, 0.9) / (bg.beta * bg.gamma)
            h = hopf_point(a1, a2, d3, 1.0)
            params = ModelParameters(a1=a1, a2=a2, p1=1.0, p2=h.p2_star, d3=d3, k=1e-9)
            step = 1e-5 * max(h.p2_star, 1.0)
            res = []
            for p2 in (h.p2_star + step, h.p2_star - step):
                q = params.with_(p2=p2)
                eigs = np.linalg.eigvals(jacobian(q, steady_state_E2(q).state))
                res.append(max(z.real for z in eigs))
            slope = (res[0] - res[1]) / (2.0 * step)
            assert h.mu_prime == pytest.approx(slope, rel=1e-3)
            done += 1

    @given(
        a1=st.floats(min_value=0.52, max_value=0.98),
        frac=st.floats(min_value=0.05, max_value=0.95),
        d3_frac=st.floats(min_value=0.05, max_value=0.95),
        p1=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_report_sign_invariants(self, a1, frac, d3_frac, p1):
        a2 = frac * a1
        bg = beta_gamma(a1, a2)
        d3 = d3_frac * p1 / (bg.beta * bg.gamma)
        h = hopf_point(a1, a2, d3, p1)
        assert h.p2_star > 0.0
        assert h.omega > 0.0
        assert h.lambda3 < 0.0
        assert h.mu_prime < 0.0

    def test_clearance_beyond_threshold_rejected(self):
        with pytest.raises(ValueError):
            hopf_point(0.7, 0.5, SHOWCASE_D3_MAX, 1.0)
        with pytest.raises(ValueError):
            hopf_point(0.7, 0.5, 0.5, 1.0)

    def test_dimensional_scaling(self):
        # rates scale linearly with p1; the rescaled geometry is unchanged
        h1 = hopf_point(0.7, 0.5, 0.1337, 1.0)
        h2 = hopf_point(0.7, 0.5, 0.1337 * 0.25, 0.25)
        assert h2.p2_star == pytest.approx(0.25 * h1.p2_star, rel=1e-12)
        assert h2.d3_max == pytest.approx(0.25 * h1.d3_max, rel=1e-12)
        assert h2.omega == pytest.approx(0.25 * h1.omega, rel=1e-12)


class TestEigenvalues:
    def test_extinction_state_closed_forms(self):
        params = ModelParameters(a1=0.85, a2=0.841, p1=1.0, p2=4.0, d3=27.0, k=1.75e-9)
        eigs = eigenvalues_at(params, stability_report(params, "E0").equilibrium)
        values = sorted(z.real for z in eigs)
        assert values[0] == pytest.approx(-27.0, rel=1e-12)
        assert values[1] == pytest.approx(0.7, rel=1e-12)
        assert values[2] == pytest.approx(0.682 * 4.0, rel=1e-12)
        assert all(z.imag == 0.0 for z in eigs)

    def test_semitrivial_tail_eigenvalues_negative(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            a2 = rng.uniform(0.55, 0.98)
            params = ModelParameters(
                a1=rng.uniform(0.02, 0.98), a2=a2, p1=1.0,
                p2=rng.uniform(0.05, 2.0), d3=rng.uniform(0.05, 2.0), k=1e-9,
            )
            e1 = steady_state_E1(params)
            assert e1 is not None
            eigs = eigenvalues_at(params, e1)
            # at most the decoupled stem eigenvalue can be unstable
            assert eigs[1].real < 0.0 and eigs[2].real < 0.0

    def test_residuals(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            params = draw_basic_admissible(rng)
            coeffs = char_poly_E2(params)
            for z in eigenvalues_at(params, steady_state_E2(params)):
                residual = ((z + coeffs.b1) * z + coeffs.b2) * z + coeffs.b3
                assert abs(residual) < 1e-8 * max(1.0, abs(coeffs.b3))

    def test_sorted_by_real_part_descending(self):
        params = showcase_params(p2=0.3)
        eigs = eigenvalues_at(params, steady_state_E2(params))
        assert eigs[0].real >= eigs[1].real >= eigs[2].real


class TestReports:
    def test_report_classification_matches_eigenvalues(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            params = draw_basic_admissible(rng)
            report = stability_report(params, "E2")
            top = max(z.real for z in report.eigenvalues)
            if report.classification == "stable":
                assert top < 0.0
            elif report.classification == "unstable":
                assert top > 0.0

    def test_reports_cover_all_equilibria(self):
        reports = stability_reports(REFERENCE_PARAMETERS)
        assert set(reports) == {"E0", "E1", "E2"}
        assert reports["E2"].classification == "stable"
        assert reports["E0"].classification == "unstable"

    @pytest.mark.parametrize("draw", [draw_basic_admissible, draw_extended_admissible],
                             ids=["basic", "extended"])
    def test_reports_match_public_route(self, draw):
        # a report's coefficients and eigenvalues are what the public functions
        # give, bit for bit (repr keeps the sign of a zero)
        rng = np.random.default_rng(43)
        e1_exists = set()
        for _ in range(300):
            params = draw(rng)
            reports = stability_reports(params)
            e1_exists.add(reports["E1"].equilibrium is not None)
            for label, report in reports.items():
                eq = report.equilibrium
                if eq is None:
                    continue
                expected = eigenvalues_at(params, eq)
                assert [repr(z) for z in report.eigenvalues] == [repr(z) for z in expected]
                coeffs = char_poly_E2(params) if label == "E2" else char_poly_at(params, eq.state)
                assert repr(report.coeffs) == repr(coeffs)
        assert e1_exists == {True, False}

    def test_overflowing_polynomial_is_refused(self):
        # E2's margin overflows to inf here, which used to read "marginal"
        params = REFERENCE_PARAMETERS.with_(p2=1e103, d3=1e103)
        with pytest.raises(ValueError, match="^the characteristic polynomial at E2 overflows for these rates$"):
            stability_report(params, "E2")

    @pytest.mark.parametrize("label", ["E0", "E1", "E2"])
    def test_each_state_refuses_an_overflowing_polynomial(self, label):
        # at these rates every state's coefficients overflow; none may be
        # classified from a NaN or infinite margin
        params = REFERENCE_PARAMETERS.with_(p2=1e160, d3=1e160)
        with pytest.raises(ValueError, match=f"^the characteristic polynomial at {label} overflows for these rates$"):
            stability_report(params, label)

    # the basic variant's regimes in (a1, a2): which states exist and how E0
    # and E1 behave follow from the two fractions alone, whatever the rates
    @pytest.mark.parametrize("a1, a2, e0, e1, e2_exists", [
        (0.4, 0.3, "stable", "nonexistent", False),
        (0.4, 0.7, "unstable", "stable", False),
        (0.7, 0.3, "unstable", "nonexistent", True),
        (0.85, 0.841, "unstable", "unstable", True),
        (0.6, 0.8, "unstable", "stable", False),
    ], ids=["washout", "progenitor-dominated", "stem-only", "stem-dominated", "progenitors-above-stem"])
    def test_regimes_follow_the_fractions(self, a1, a2, e0, e1, e2_exists):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p1, p2, d3 = rng.uniform(0.01, 2.0, size=3).tolist()
            k = 10.0 ** rng.uniform(-10.0, -6.0)
            reports = stability_reports(ModelParameters(a1=a1, a2=a2, p1=p1, p2=p2, d3=d3, k=k))
            assert reports["E0"].classification == e0
            assert reports["E1"].classification == e1
            assert (reports["E2"].equilibrium is not None) == e2_exists

    def test_nonexistent_reported_as_such(self):
        params = ModelParameters(a1=0.4, a2=0.3, p1=1.0, p2=0.5, d3=0.5, k=1e-9)
        reports = stability_reports(params)
        assert reports["E1"].classification == "nonexistent"
        assert reports["E2"].classification == "nonexistent"


class TestInstabilityRegion:
    def test_showcase_intercepts(self):
        d3_cut, p2_cut = instability_region_bounds(0.7, 0.5)
        assert d3_cut == pytest.approx(SHOWCASE_D3_MAX, rel=1e-12)
        assert p2_cut == pytest.approx(0.7875, rel=1e-4)

    @given(
        a1=st.floats(min_value=0.501, max_value=0.999),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_intercepts_below_two(self, a1, frac):
        d3_cut, p2_cut = instability_region_bounds(a1, frac * a1)
        assert 0.0 < d3_cut < 2.0
        assert 0.0 < p2_cut < 2.0

    # where E2 exists it is unstable exactly in the open triangle, on the
    # rates rescaled by p1, also near the corners of the admissible (a1, a2)
    @pytest.mark.parametrize("a1, a2, p1", [
        (0.7, 0.5, 0.1),
        (0.999, 0.5, 1.0),
        (0.51, 0.3, 1.0),
        (0.8, 0.01, 1.0),
        (0.9, 0.899, 1.0),
        (0.6, 0.45, 2.5),
    ], ids=["showcase-slow-p1", "a1-near-one", "a1-near-half", "a2-near-zero", "a2-near-a1", "fast-p1"])
    def test_unstable_set_is_the_open_triangle(self, a1, a2, p1):
        d3_cut, p2_cut = instability_region_bounds(a1, a2)
        rng = np.random.default_rng(47)
        unstable = 0
        for _ in range(400):
            p2, d3 = (rng.uniform(0.0, 1.5, size=2) * (p2_cut, d3_cut)).tolist()
            reach = p2 / p2_cut + d3 / d3_cut
            params = ModelParameters(a1=a1, a2=a2, p1=p1, p2=p1 * p2, d3=p1 * d3, k=1e-8)
            report = stability_report(params, "E2")
            assert report.classification == ("unstable" if reach < 1.0 else "stable"), (p2, d3)
            unstable += report.classification == "unstable"
        assert unstable > 0


class TestTwoCompartmentReduction:
    """The two-compartment model has no Hopf bifurcation.

    Stem cells u1 feed mature cells u2 directly, and the mature count
    throttles stem self-renewal through s = 1/(1 + k*u2):

        u1' = (2*a1*s - 1)*p1*u1 - d1*u1
        u2' = 2*(1 - a1*s)*p1*u1 - d2*u2

    d2 > 0 is mature clearance; without it there is no positive state. The
    stem balance pins s* = (p1 + d1)/(2*a1*p1), which must lie below 1, so
    u2* = (1/s* - 1)/k and u1* = d2*u2* / (2*(1 - a1*s*)*p1). With
    s' = -k*s^2 the Jacobian there is

        [ 0                    -2*a1*p1*k*s*^2*u1* ]
        [ 2*(1 - a1*s*)*p1      2*a1*p1*k*s*^2*u1* - d2 ]

    Its determinant is positive, and its trace is
    d2*(d1/p1 - a1*s*^2)/(1 - a1*s*), negative since
    4*a1*p1*d1 < (p1 + d1)^2 for a1 < 1. Both eigenvalues then have negative
    real parts, and no parameter change can bring a pair onto the
    imaginary axis: the Hopf bifurcation needs the third compartment.
    """

    @staticmethod
    def reduced_rhs(a1, p1, d1, d2, k, u1, u2):
        # int literals, so exact on Fraction rates
        s = 1 / (1 + k * u2)
        return np.array([
            (2 * a1 * s - 1) * p1 * u1 - d1 * u1,
            2 * (1 - a1 * s) * p1 * u1 - d2 * u2,
        ])

    def test_positive_state_is_a_stable_node_or_focus(self):
        rng = np.random.default_rng(2018)
        for draw in range(400):
            a1 = rng.uniform(0.52, 0.98)
            p1 = rng.uniform(0.05, 1.0)
            # half the draws without stem death; s* < 1 needs d1 < (2*a1 - 1)*p1
            d1 = 0.0 if draw % 2 else rng.uniform(0.0, 0.9) * (2.0 * a1 - 1.0) * p1
            d2 = rng.uniform(0.01, 3.0)
            k = 10.0 ** rng.uniform(-10, -6)
            s = (p1 + d1) / (2.0 * a1 * p1)
            assert s < 1.0
            u2 = (1.0 / s - 1.0) / k
            u1 = d2 * u2 / (2.0 * (1.0 - a1 * s) * p1)
            assert u1 > 0.0 and u2 > 0.0
            residual = self.reduced_rhs(a1, p1, d1, d2, k, u1, u2)
            assert np.all(np.abs(residual) <= 1e-12 * np.array([p1 * u1, d2 * u2]))

            gain = 2.0 * a1 * p1 * k * s * s * u1
            jac = np.array([[0.0, -gain], [2.0 * (1.0 - a1 * s) * p1, gain - d2]])
            # the closed-form entries against central differences of the rhs
            for col, step in enumerate((1e-6 * u1, 1e-6 * u2)):
                shift = np.zeros(2)
                shift[col] = step
                plus = self.reduced_rhs(a1, p1, d1, d2, k, u1 + shift[0], u2 + shift[1])
                minus = self.reduced_rhs(a1, p1, d1, d2, k, u1 - shift[0], u2 - shift[1])
                scale = np.abs(jac).max()
                assert (plus - minus) / (2.0 * step) == pytest.approx(jac[:, col], abs=1e-6 * scale)

            trace, det = np.trace(jac), np.linalg.det(jac)
            assert trace == pytest.approx(d2 * (d1 / p1 - a1 * s * s) / (1.0 - a1 * s), rel=1e-9)
            assert trace < 0.0, (a1, p1, d1, d2, k)
            assert det > 0.0, (a1, p1, d1, d2, k)
            assert np.all(np.linalg.eigvals(jac).real < 0.0)

    def test_trace_and_determinant_signs_are_exact(self):
        # the same draws' ranges on exact rational rates: the state is an
        # equilibrium, and the trace identity and both signs hold unrounded
        rng = np.random.default_rng(2019)
        for draw in range(300):
            a1 = Fraction(rng.uniform(0.52, 0.98))
            p1 = Fraction(rng.uniform(0.05, 1.0))
            d1 = Fraction(0) if draw % 2 else Fraction(rng.uniform(0.0, 0.9)) * (2 * a1 - 1) * p1
            d2 = Fraction(rng.uniform(0.01, 3.0))
            k = Fraction(10.0 ** rng.uniform(-10, -6))
            s = (p1 + d1) / (2 * a1 * p1)
            assert s < 1
            u2 = (1 / s - 1) / k
            u1 = d2 * u2 / (2 * (1 - a1 * s) * p1)
            assert u1 > 0 and u2 > 0
            assert self.reduced_rhs(a1, p1, d1, d2, k, u1, u2).tolist() == [0, 0]

            gain = 2 * a1 * p1 * k * s * s * u1
            j11, j12 = (2 * a1 * s - 1) * p1 - d1, -gain
            j21, j22 = 2 * (1 - a1 * s) * p1, gain - d2
            trace, det = j11 + j22, j11 * j22 - j12 * j21
            assert trace == d2 * (d1 / p1 - a1 * s * s) / (1 - a1 * s)
            assert trace < 0 < det, (a1, p1, d1, d2, k)
