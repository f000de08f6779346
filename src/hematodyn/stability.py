"""Linear stability of the steady states, in closed form.

For the basic variant (d1 = d2 = 0) the characteristic polynomial at the
positive steady state has fully explicit coefficients once time is rescaled
by p1, and the Routh-Hurwitz margin b1*b2 - b3 factorizes. That yields an
explicit stability boundary, the line closing the triangle of
`instability_region_bounds` in the (p2, d3) plane, and an explicit bifurcation
point p2_star at which a conjugate eigenvalue pair crosses the imaginary
axis. The extended variant keeps closed-form coefficients too, just bulkier;
its crossing in p2 is found numerically, by `bifurcation_bracket`.

Sign conventions: the characteristic polynomial is written
lambda^3 + b1*lambda^2 + b2*lambda + b3, so b1 = -trace(J),
b2 = sum of principal 2x2 minors, b3 = -det(J). With b1, b3 > 0 (always true
at an existing positive steady state), the sign of b1*b2 - b3 decides
stability: positive means all eigenvalues in the left half plane, zero means
a pure imaginary pair, negative means the pair has crossed to the right.

Each closed form keeps its entry checks in the public function and its
arithmetic in a private kernel of plain + - * / with int literals: the
same bits on floats and float64 arrays as float literals give, and exact
values on `fractions.Fraction` rates, on which criterion 13 proves the
closed forms' identities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .cubic import solve_cubic
from .model import (
    CellState,
    ModelParameters,
    SteadyState,
    _basic_ratio,
    _jacobian_entries,
    _positive,
    steady_state_E0,
    steady_state_E1,
    steady_state_E2,
)

__all__ = [
    "BetaGamma",
    "CharPolyCoeffs",
    "HopfReport",
    "StabilityReport",
    "beta_gamma",
    "char_poly_E2",
    "char_poly_at",
    "hurwitz_value",
    "hurwitz_classify",
    "hurwitz_codes",
    "hurwitz_factored",
    "hopf_point",
    "bifurcation_bracket",
    "eigenvalues_at",
    "stability_report",
    "stability_reports",
    "instability_region_bounds",
]

# |b1*b2 - b3| below this (relative to max(1, |b1*b2|)) counts as marginal
MARGINAL_TOL = 1e-12

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"
NONEXISTENT = "nonexistent"
# class names indexed by the codes of `hurwitz_codes`; 3 marks a missing E2
CLASS_NAMES = (STABLE, UNSTABLE, MARGINAL, NONEXISTENT)


@dataclass(frozen=True)
class BetaGamma:
    """Shape constants of the rescaled stability boundary (basic variant)."""

    beta: float
    gamma: float


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Coefficients of lambda^3 + b1*lambda^2 + b2*lambda + b3 (per-day units)."""

    b1: float
    b2: float
    b3: float


@dataclass(frozen=True)
class HopfReport:
    """Bifurcation point in p2 and the quantities certifying it.

    p2_star and omega are in original per-day units; lambda3 is the third
    (real) eigenvalue at the crossing; mu_prime is the derivative of the
    crossing pair's real part with respect to p2 (invariant under the time
    rescaling, hence comparable across unit systems).
    """

    p2_star: float
    d3_max: float
    omega: float
    lambda3: float
    mu_prime: float


@dataclass(frozen=True)
class StabilityReport:
    label: str
    equilibrium: Optional[SteadyState]
    coeffs: Optional[CharPolyCoeffs]
    hurwitz: Optional[float]
    eigenvalues: Optional[Tuple[complex, complex, complex]]
    classification: str


def beta_gamma(a1: float, a2: float) -> BetaGamma:
    """Boundary constants for the basic variant; needs 1/2 < a1 < 1, 0 < a2 < a1.

    In rescaled units the positive state is unstable iff
    p2 < (1/gamma - beta*d3) / (1 - a2/a1), so beta/gamma fix the straight
    stability boundary in the (d3, p2) plane.
    """
    a1, r = _basic_ratio(a1, a2)
    _, beta, gamma = _shape_constants(a1, r)
    return BetaGamma(beta=beta, gamma=gamma)


def _shape_constants(a1, r):
    # (e, beta, gamma) of the basic variant from a1 and r = a2/a1, with
    # e = 1 - 1/(2*a1); meaningful for 1/2 < a1 < 1, 0 < r < 1
    e = 1 - 1 / (2 * a1)
    beta = 1 - r * e / (2 - r)
    gamma = (1 / (2 * a1)) / e + r / ((2 - r) * (1 - r))
    return e, beta, gamma


def _basic_coeffs_rescaled(a1, a2, p2, d3):
    # characteristic coefficients at E2 for d1 = d2 = 0, time rescaled by p1;
    # E2's existence already puts (a1, a2) in the domain of `_shape_constants`
    r = a2 / a1
    e, beta, _ = _shape_constants(a1, r)
    b1 = (1 - r) * p2 + beta * d3
    b2 = ((1 - r) * beta - e * (1 - 2 * r)) * d3 * p2
    b3 = e * (1 - r) * d3 * p2
    return b1, b2, b3


def _extended_coeffs(a1, a2, p1, p2, d1, d2, d3):
    # characteristic coefficients at the extended E2, original units;
    # array-safe (plain arithmetic only). q = 2*a2*s and w = p1*(1 - s)
    # where s is the equilibrium feedback level (p1 + d1)/(2*a1*p1).
    growth = (d1 + p1) / p1
    q = (a2 / a1) * growth
    w = (1 - 1 / (2 * a1)) * p1 - d1 / (2 * a1)
    t = 1 + w * q / ((q - 2) * p1)
    dd = p2 * (q - 1) - d2
    b1 = d2 - (q - 1) * p2 + d3 * t
    b2 = d3 * w * growth * (a2 * p2 / (a1 * p1) + dd / (p1 - d1)) - dd * d3 * t
    b3 = -dd * w * growth * d3
    return b1, b2, b3


def char_poly_E2(params: ModelParameters) -> CharPolyCoeffs:
    """Closed-form characteristic coefficients at the positive steady state.

    Basic variant: rescaled closed forms mapped back to per-day units by
    (p1, p1^2, p1^3). Extended variant: the explicit dimensional formulas.
    Both equal the characteristic polynomial of `jacobian` at E2 as rational
    functions of the rates, and the extended path reduces to the basic one
    at d1 = d2 = 0 (criterion 13); in floats they differ by rounding only.
    """
    if steady_state_E2(params) is None:
        raise ValueError("the positive steady state does not exist for these parameters")
    return _char_poly_E2(params)


def _char_poly_E2(params: ModelParameters) -> CharPolyCoeffs:
    # `char_poly_E2` without its existence check, for a caller that has found E2
    if params.is_basic:
        p1 = params.p1
        b1, b2, b3 = _basic_coeffs_rescaled(
            params.a1, params.a2, params.p2 / p1, params.d3 / p1
        )
        return CharPolyCoeffs(b1 * p1, b2 * p1 * p1, b3 * p1 * p1 * p1)
    b1, b2, b3 = _extended_coeffs(
        params.a1, params.a2, params.p1, params.p2, params.d1, params.d2, params.d3
    )
    return CharPolyCoeffs(b1, b2, b3)


def char_poly_at(params: ModelParameters, state: CellState) -> CharPolyCoeffs:
    """Characteristic coefficients of the Jacobian at an arbitrary state."""
    j11, j13, j21, j22, j23, j32, j33 = _jacobian_entries(params, state)
    # the full 3x3 expressions, structural zeros included, so that -0.0,
    # inf*0 and NaN give the bits the ndarray of `jacobian` gives (an int 0
    # meets a float as 0.0, and keeps a Fraction exact)
    j12 = j31 = 0
    b1 = -(j11 + j22 + j33)
    b2 = (
        (j22 * j33 - j23 * j32)
        + (j11 * j33 - j13 * j31)
        + (j11 * j22 - j12 * j21)
    )
    det = (
        j11 * (j22 * j33 - j23 * j32)
        - j12 * (j21 * j33 - j23 * j31)
        + j13 * (j21 * j32 - j22 * j31)
    )
    return CharPolyCoeffs(b1, b2, -det)


def hurwitz_value(coeffs: CharPolyCoeffs) -> float:
    """The Routh-Hurwitz margin b1*b2 - b3."""
    return coeffs.b1 * coeffs.b2 - coeffs.b3


def hurwitz_classify(coeffs: CharPolyCoeffs) -> str:
    """'stable' / 'unstable' / 'marginal' from the sign of b1*b2 - b3.

    Requires b1 > 0 and b3 > 0, which hold at any existing positive steady
    state; other inputs are outside the criterion's scope and rejected.
    """
    if not (coeffs.b1 > 0.0 and coeffs.b3 > 0.0):
        raise ValueError(
            f"sign criterion needs b1 > 0 and b3 > 0, got b1={coeffs.b1}, b3={coeffs.b3}"
        )
    prod = coeffs.b1 * coeffs.b2
    return CLASS_NAMES[hurwitz_codes(prod - coeffs.b3, prod)]


def hurwitz_codes(h, prod):
    """Class codes of margins h = b1*b2 - b3 given prod = b1*b2.

    0 stable (h > 0), 1 unstable, 2 marginal (|h| within MARGINAL_TOL of
    max(1, |prod|)); the codes index CLASS_NAMES. Plain operators only, so
    floats give an int and ndarrays an integer array.
    """
    marginal = (abs(h) <= MARGINAL_TOL) | (abs(h) <= MARGINAL_TOL * abs(prod))
    return 2 * marginal + (1 - marginal) * (1 - (h > 0.0))


def hurwitz_factored(a1: float, a2: float, p2: float, d3: float) -> float:
    """Factored form of b1*b2 - b3 for the basic variant, rescaled units.

    Equals (1 - 1/(2a1)) * (1 - a2/a1) * ([(1 - a2/a1)*p2 + beta*d3]*gamma - 1)
    * d3 * p2, which matches hurwitz_value(char_poly_E2(...)) identically on
    p1 = 1 parameters. Useful as an independent route to the stability sign.
    """
    p2, d3 = _positive("p2", p2), _positive("d3", d3)
    a1, r = _basic_ratio(a1, a2)
    return _hurwitz_factored(a1, r, p2, d3)


def _hurwitz_factored(a1, r, p2, d3):
    # `hurwitz_factored` after its entry checks, with r = a2/a1
    e, beta, gamma = _shape_constants(a1, r)
    return e * (1 - r) * (((1 - r) * p2 + beta * d3) * gamma - 1) * d3 * p2


def hopf_point(a1: float, a2: float, d3: float, p1: float = 1.0) -> HopfReport:
    """Bifurcation point p2_star of the basic variant, original units.

    Exists iff d3 < d3_max = p1/(beta*gamma). At p2_star the conjugate pair
    sits exactly on the imaginary axis (+-i*omega), the third eigenvalue is
    -p1/gamma, and the pair's real part decreases in p2 at rate mu_prime < 0,
    so lowering p2 through p2_star destabilizes the positive state.
    p2_star does not depend on the feedback strength k.
    """
    p1, d3 = _positive("p1", p1), _positive("d3", d3)
    a1, r = _basic_ratio(a1, a2)
    e, beta, gamma = _shape_constants(a1, r)
    d3_max = p1 / (beta * gamma)
    if not d3 < d3_max:
        raise ValueError(
            f"no positive bifurcation point: d3={d3} is not below d3_max={d3_max}"
        )
    d3t = d3 / p1
    p2_star, lambda3, omega_sq = _hopf_rescaled(r, e, beta, gamma, d3t)
    omega = math.sqrt(omega_sq)
    # omega * omega, the rounded root squared, not omega_sq: the `hopf`
    # output digests pin these bits
    mu_prime = -(
        e * (1 - r) ** 2 * gamma * d3t * p2_star
    ) / (2 * (lambda3 * lambda3 + omega * omega))
    return HopfReport(
        p2_star=p2_star * p1,
        d3_max=d3_max,
        omega=omega * p1,
        lambda3=lambda3 * p1,
        mu_prime=mu_prime,
    )


def _hopf_rescaled(r, e, beta, gamma, d3):
    # (p2*, lambda3, omega^2) of the basic variant in rescaled units, from
    # r = a2/a1 and `_shape_constants`; the square root stays with the caller
    p2_star = (1 / gamma - beta * d3) / (1 - r)
    lambda3 = -1 / gamma
    omega_sq = (1 / gamma - beta * d3) * gamma * e * d3
    return p2_star, lambda3, omega_sq


def bifurcation_bracket(params: ModelParameters, low_p2: float, high_p2: float) -> float:
    """Bisect the Routh-Hurwitz margin in p2 down to a 1e-10 interval.

    Endpoints must have an existing positive state and margins of opposite
    sign. For the basic variant the result matches the closed-form
    bifurcation point to high accuracy; for the extended variant it is the
    only route to the crossing.
    """

    def margin(p2: float) -> float:
        candidate = params.with_(p2=p2)
        if steady_state_E2(candidate) is None:
            raise ValueError(f"positive steady state does not exist at p2={p2}")
        return hurwitz_value(_char_poly_E2(candidate))

    if not low_p2 < high_p2:
        raise ValueError(f"need low_p2 < high_p2, got {low_p2}, {high_p2}")
    h_low = margin(low_p2)
    h_high = margin(high_p2)
    if h_low == 0.0:
        return low_p2
    if h_high == 0.0:
        return high_p2
    if (h_low > 0.0) == (h_high > 0.0):
        raise ValueError(
            f"margin has the same sign at both endpoints: {h_low} and {h_high}"
        )
    lo, hi, h_lo = low_p2, high_p2, h_low
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        h_mid = margin(mid)
        if h_mid == 0.0:
            return mid
        if (h_mid > 0.0) == (h_lo > 0.0):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sorted_roots(c: CharPolyCoeffs) -> Tuple[complex, complex, complex]:
    # the roots of c by real part descending, then imaginary part descending
    roots = solve_cubic(c.b1, c.b2, c.b3)
    return tuple(sorted(roots, key=lambda z: (-z.real, -z.imag)))  # type: ignore[return-value]


def eigenvalues_at(
    params: ModelParameters, equilibrium: SteadyState
) -> Tuple[complex, complex, complex]:
    """Eigenvalues at a steady state, sorted by real part descending.

    The closed-form cubic roots of `char_poly_at` at the state; ties in the
    real part are broken by descending imaginary part, so a conjugate pair
    appears as (mu + i*omega, mu - i*omega). `stability_report` gives the
    same tuple, bit for bit.
    """
    return _sorted_roots(char_poly_at(params, equilibrium.state))


def _classify_by_eigenvalues(eigenvalues) -> str:
    # the Hurwitz rule on -(largest real part), marginal relative to max |lambda|
    top = max(z.real for z in eigenvalues)
    return CLASS_NAMES[hurwitz_codes(-top, max(abs(z) for z in eigenvalues))]


def stability_report(params: ModelParameters, label: str) -> StabilityReport:
    """Full report (coefficients, eigenvalues, classification) for one state.

    The eigenvalues are those of `eigenvalues_at`. E0 and E1 report the
    `char_poly_at` coefficients their eigenvalues are the roots of, and are
    classified by the eigenvalue real parts (their b1, b3 need not be
    positive). E2 reports the closed-form `char_poly_E2` coefficients and is
    classified by their Routh-Hurwitz sign. Each polynomial is built once,
    and E2's existence is checked once. Rates so large that the polynomial
    overflows (a margin or eigenvalue that is not finite) raise ValueError.
    """
    if label == "E0":
        eq = steady_state_E0()
    elif label == "E1":
        eq = steady_state_E1(params)
    elif label == "E2":
        eq = steady_state_E2(params)
    else:
        raise ValueError(f"unknown steady state label {label!r}")
    if eq is None:
        return StabilityReport(label, None, None, None, None, NONEXISTENT)
    at_state = char_poly_at(params, eq.state)
    eigenvalues = _sorted_roots(at_state)
    coeffs = _char_poly_E2(params) if label == "E2" else at_state
    hurwitz = hurwitz_value(coeffs)
    if not (math.isfinite(hurwitz) and all(map(cmath.isfinite, eigenvalues))):
        raise ValueError(f"the characteristic polynomial at {label} overflows for these rates")
    if label == "E2":
        classification = hurwitz_classify(coeffs)
    else:
        classification = _classify_by_eigenvalues(eigenvalues)
    return StabilityReport(
        label=label,
        equilibrium=eq,
        coeffs=coeffs,
        hurwitz=hurwitz,
        eigenvalues=eigenvalues,
        classification=classification,
    )


def stability_reports(params: ModelParameters) -> Dict[str, StabilityReport]:
    """Reports for E0, E1 and E2 keyed by label."""
    return {label: stability_report(params, label) for label in ("E0", "E1", "E2")}


def instability_region_bounds(a1: float, a2: float) -> Tuple[float, float]:
    """Axis intercepts (d3, p2) of the instability triangle, rescaled units.

    The basic variant's E2 is unstable exactly in the open triangle
    p2/p2_cut + d3/d3_cut < 1, under the line gamma*[(1 - a2/a1)*p2 +
    beta*d3] = 1 (criterion 10). Both intercepts are below 2 for every
    admissible (a1, a2).
    """
    a1, r = _basic_ratio(a1, a2)
    _, beta, gamma = _shape_constants(a1, r)
    return 1 / (beta * gamma), 1 / ((1 - r) * gamma)
