"""Linear stability of the steady states, in closed form.

For the basic variant (d1 = d2 = 0) the characteristic polynomial at the
positive steady state has fully explicit coefficients once time is rescaled
by p1, and the Routh-Hurwitz margin b1*b2 - b3 factorizes. That yields an
explicit stability boundary in the (p2, d3) plane and an explicit bifurcation
point p2_star at which a conjugate eigenvalue pair crosses the imaginary
axis. The extended variant keeps closed-form coefficients too, just bulkier.

Sign conventions: the characteristic polynomial is written
lambda^3 + b1*lambda^2 + b2*lambda + b3, so b1 = -trace(J),
b2 = sum of principal 2x2 minors, b3 = -det(J). With b1, b3 > 0 (always true
at an existing positive steady state), the sign of b1*b2 - b3 decides
stability: positive means all eigenvalues in the left half plane, zero means
a pure imaginary pair, negative means the pair has crossed to the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cubic import solve_cubic
from .model import (
    CellState,
    ModelParameters,
    SteadyState,
    jacobian,
    steady_state_E0,
    steady_state_E1,
    steady_state_E2,
)

__all__ = [
    "BetaGamma",
    "CharPolyCoeffs",
    "HopfReport",
    "StabilityReport",
    "RegimeSummary",
    "beta_gamma",
    "char_poly_E2",
    "char_poly_at",
    "hurwitz_value",
    "hurwitz_classify",
    "hurwitz_codes",
    "hurwitz_factored",
    "hopf_point",
    "eigenvalues_at",
    "stability_report",
    "stability_reports",
    "regime_table",
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


@dataclass(frozen=True)
class RegimeSummary:
    """Existence/stability of E0, E1, E2 as decided by (a1, a2) alone.

    Values are 'stable', 'unstable', 'nonexistent', or 'exists' (for E2,
    whose stability additionally depends on p2 and d3).
    """

    e0: str
    e1: str
    e2: str


def beta_gamma(a1: float, a2: float) -> BetaGamma:
    """Boundary constants for the basic variant; needs a1 > 1/2, 0 < a2 < a1.

    In rescaled units the positive state is unstable iff
    p2 < (1/gamma - beta*d3) / (1 - a2/a1), so beta/gamma fix the straight
    stability boundary in the (d3, p2) plane.
    """
    if not a1 > 0.5:
        raise ValueError(f"boundary constants need a1 > 1/2, got a1={a1}")
    if not 0.0 < a2 < a1:
        raise ValueError(f"boundary constants need 0 < a2 < a1, got a1={a1}, a2={a2}")
    r = a2 / a1
    e = 1.0 - 1.0 / (2.0 * a1)
    beta = 1.0 - r * e / (2.0 - r)
    gamma = (1.0 / (2.0 * a1)) / e + r / ((2.0 - r) * (1.0 - r))
    return BetaGamma(beta=beta, gamma=gamma)


def _basic_coeffs_rescaled(a1, a2, p2, d3):
    # characteristic coefficients at E2 for d1 = d2 = 0, time rescaled by p1
    r = a2 / a1
    e = 1.0 - 1.0 / (2.0 * a1)
    beta = 1.0 - r * e / (2.0 - r)
    b1 = (1.0 - r) * p2 + beta * d3
    b2 = ((1.0 - r) * beta - e * (1.0 - 2.0 * r)) * d3 * p2
    b3 = e * (1.0 - r) * d3 * p2
    return b1, b2, b3


def _extended_coeffs(a1, a2, p1, p2, d1, d2, d3):
    # characteristic coefficients at the extended E2, original units;
    # array-safe (plain arithmetic only). q = 2*a2*s and w = p1*(1 - s)
    # where s is the equilibrium feedback level (p1 + d1)/(2*a1*p1).
    growth = (d1 + p1) / p1
    q = (a2 / a1) * growth
    w = (1.0 - 1.0 / (2.0 * a1)) * p1 - d1 / (2.0 * a1)
    t = 1.0 + w * q / ((q - 2.0) * p1)
    dd = p2 * (q - 1.0) - d2
    b1 = d2 - (q - 1.0) * p2 + d3 * t
    b2 = d3 * w * growth * (a2 * p2 / (a1 * p1) + dd / (p1 - d1)) - dd * d3 * t
    b3 = -dd * w * growth * d3
    return b1, b2, b3


def char_poly_E2(params: ModelParameters) -> CharPolyCoeffs:
    """Closed-form characteristic coefficients at the positive steady state.

    Basic variant: rescaled closed forms mapped back to per-day units by
    (p1, p1^2, p1^3). Extended variant: the explicit dimensional formulas.
    Both agree with the characteristic polynomial of `jacobian` at E2 to
    floating point accuracy, and the extended path reduces to the basic one
    at d1 = d2 = 0.
    """
    if steady_state_E2(params) is None:
        raise ValueError("the positive steady state does not exist for these parameters")
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
    return CharPolyCoeffs(float(b1), float(b2), float(-det))


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
    return CLASS_NAMES[int(hurwitz_codes(prod - coeffs.b3, prod))]


def hurwitz_codes(h, prod):
    """Class codes of margins h = b1*b2 - b3 given prod = b1*b2; array-safe.

    0 stable (h > 0), 1 unstable, 2 marginal (|h| within MARGINAL_TOL of
    max(1, |prod|)); the codes index CLASS_NAMES.
    """
    marginal = np.abs(h) <= MARGINAL_TOL * np.maximum(1.0, np.abs(prod))
    return np.where(marginal, 2, np.where(h > 0.0, 0, 1))


def hurwitz_factored(a1: float, a2: float, p2: float, d3: float) -> float:
    """Factored form of b1*b2 - b3 for the basic variant, rescaled units.

    Equals (1 - 1/(2a1)) * (1 - a2/a1) * ([(1 - a2/a1)*p2 + beta*d3]*gamma - 1)
    * d3 * p2, which matches hurwitz_value(char_poly_E2(...)) identically on
    p1 = 1 parameters. Useful as an independent route to the stability sign.
    """
    bg = beta_gamma(a1, a2)
    r = a2 / a1
    e = 1.0 - 1.0 / (2.0 * a1)
    return e * (1.0 - r) * (((1.0 - r) * p2 + bg.beta * d3) * bg.gamma - 1.0) * d3 * p2


def hopf_point(a1: float, a2: float, d3: float, p1: float = 1.0) -> HopfReport:
    """Bifurcation point p2_star of the basic variant, original units.

    Exists iff d3 < d3_max = p1/(beta*gamma). At p2_star the conjugate pair
    sits exactly on the imaginary axis (+-i*omega), the third eigenvalue is
    -p1/gamma, and the pair's real part decreases in p2 at rate mu_prime < 0,
    so lowering p2 through p2_star destabilizes the positive state.
    p2_star does not depend on the feedback strength k.
    """
    if not (p1 > 0.0 and d3 > 0.0):
        raise ValueError(f"rates must be positive, got p1={p1}, d3={d3}")
    bg = beta_gamma(a1, a2)
    d3_max = p1 / (bg.beta * bg.gamma)
    if not d3 < d3_max:
        raise ValueError(
            f"no positive bifurcation point: d3={d3} is not below d3_max={d3_max}"
        )
    r = a2 / a1
    e = 1.0 - 1.0 / (2.0 * a1)
    d3t = d3 / p1
    p2_star = (1.0 / bg.gamma - bg.beta * d3t) / (1.0 - r)
    lambda3 = -1.0 / bg.gamma
    omega = math.sqrt((1.0 / bg.gamma - bg.beta * d3t) * bg.gamma * e * d3t)
    mu_prime = -(
        e * (1.0 - r) ** 2 * bg.gamma * d3t * p2_star
    ) / (2.0 * (lambda3 * lambda3 + omega * omega))
    return HopfReport(
        p2_star=p2_star * p1,
        d3_max=d3_max,
        omega=omega * p1,
        lambda3=lambda3 * p1,
        mu_prime=mu_prime,
    )


def eigenvalues_at(
    params: ModelParameters, equilibrium: SteadyState
) -> Tuple[complex, complex, complex]:
    """Eigenvalues at a steady state, sorted by real part descending.

    Closed-form cubic solve of the characteristic polynomial; ties in the
    real part are broken by descending imaginary part, so a conjugate pair
    appears as (mu + i*omega, mu - i*omega).
    """
    c = char_poly_at(params, equilibrium.state)
    roots = solve_cubic(c.b1, c.b2, c.b3)
    return tuple(sorted(roots, key=lambda z: (-z.real, -z.imag)))  # type: ignore[return-value]


def _classify_by_eigenvalues(eigenvalues) -> str:
    top = max(z.real for z in eigenvalues)
    scale = max(1.0, max(abs(z) for z in eigenvalues))
    if abs(top) <= MARGINAL_TOL * scale:
        return MARGINAL
    return STABLE if top < 0.0 else UNSTABLE


def stability_report(params: ModelParameters, label: str) -> StabilityReport:
    """Full report (coefficients, eigenvalues, classification) for one state.

    E2 is classified through the Routh-Hurwitz sign; E0 and E1 through
    eigenvalue real parts (their b1, b3 need not be positive).
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
    coeffs = char_poly_E2(params) if label == "E2" else char_poly_at(params, eq.state)
    eigenvalues = eigenvalues_at(params, eq)
    if label == "E2":
        classification = hurwitz_classify(coeffs)
    else:
        classification = _classify_by_eigenvalues(eigenvalues)
    return StabilityReport(
        label=label,
        equilibrium=eq,
        coeffs=coeffs,
        hurwitz=hurwitz_value(coeffs),
        eigenvalues=eigenvalues,
        classification=classification,
    )


def stability_reports(params: ModelParameters) -> Dict[str, StabilityReport]:
    """Reports for E0, E1 and E2 keyed by label."""
    return {label: stability_report(params, label) for label in ("E0", "E1", "E2")}


def regime_table(a1: float, a2: float) -> RegimeSummary:
    """Which steady states exist, and how E0/E1 behave, from (a1, a2) alone.

    Basic variant. The degenerate boundaries a1 = 1/2, a2 = 1/2 and a1 = a2
    are rejected. E2's entry is 'exists' when a1 > 1/2 and a2 < a1; its
    stability then depends on (p2, d3) through `hurwitz_classify`.
    """
    if not (0.0 < a1 < 1.0 and 0.0 < a2 < 1.0):
        raise ValueError(f"fractions must lie in (0, 1), got a1={a1}, a2={a2}")
    if a1 == 0.5 or a2 == 0.5 or a1 == a2:
        raise ValueError(
            f"degenerate case: regime table needs a1 != 1/2, a2 != 1/2, a1 != a2, "
            f"got a1={a1}, a2={a2}"
        )
    if a1 < 0.5:
        if a2 < 0.5:
            return RegimeSummary(e0=STABLE, e1=NONEXISTENT, e2=NONEXISTENT)
        return RegimeSummary(e0=UNSTABLE, e1=STABLE, e2=NONEXISTENT)
    if a2 < a1:
        e1 = NONEXISTENT if a2 < 0.5 else UNSTABLE
        return RegimeSummary(e0=UNSTABLE, e1=e1, e2="exists")
    return RegimeSummary(e0=UNSTABLE, e1=STABLE, e2=NONEXISTENT)


def instability_region_bounds(a1: float, a2: float) -> Tuple[float, float]:
    """Axis intercepts (d3, p2) of the instability triangle, rescaled units.

    The unstable region of the basic variant lies inside the triangle cut
    off by the line gamma*[(1 - a2/a1)*p2 + beta*d3] = 1; both intercepts
    are below 2 for every admissible (a1, a2).
    """
    bg = beta_gamma(a1, a2)
    return 1.0 / (bg.beta * bg.gamma), 1.0 / ((1.0 - a2 / a1) * bg.gamma)
