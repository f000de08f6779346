"""Three-stage cell formation model: right-hand side, steady states, Jacobian.

The model tracks stem cells (u1), progenitor cells (u2) and mature cells (u3),
in cells per kg of body weight. Mature cells throttle self-renewal of the two
immature stages through a feedback signal

    s(u3) = 1 / (1 + k*u3),

so a high mature count suppresses self-renewal. With self-renewal fractions
a1, a2, proliferation rates p1, p2, death rates d1, d2 (immature stages) and
d3 (mature clearance), the dynamics are

    u1' = (2*a1*s - 1)*p1*u1 - d1*u1
    u2' = (2*a2*s - 1)*p2*u2 + 2*(1 - a1*s)*p1*u1 - d2*u2
    u3' = 2*(1 - a2*s)*p2*u2 - d3*u3

All rates are per day. The d1 = d2 = 0 case is referred to as the "basic"
variant throughout; it admits fully explicit steady states and stability
boundaries (see `stability`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "PARAM_NAMES",
    "REFERENCE_PARAMETERS",
    "ModelParameters",
    "CellState",
    "InvariantBox",
    "rhs",
    "rhs_closure",
    "nondimensionalize",
    "steady_state_E0",
    "steady_state_E1",
    "steady_state_E2",
    "e2_conditions",
    "steady_states",
    "jacobian",
    "invariant_box",
]


# the eight model parameters in their CLI and JSON order
PARAM_NAMES = ("a1", "a2", "p1", "p2", "d1", "d2", "d3", "k")


def _real(name: str, value) -> float:
    """value as a finite float; a ValueError naming the field for anything else.

    One rule for every numeric input: a bool (an int subclass), anything
    that is not a real number, NaN and +-inf are refused (range checks
    compare, and NaN fails every comparison), and a numpy scalar is stored
    as a float, so arithmetic on it stays plain float64.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        # an int or Fraction too large for a float
        raise ValueError(f"{name} must be finite, got a number beyond float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value) -> float:
    """value as a finite float above zero: the number rule of `_real`, then the sign."""
    value = _real(name, value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class ModelParameters:
    """Rates and fractions defining one model instance.

    Parameters
    ----------
    a1, a2 : float
        Self-renewal fractions of stem and progenitor divisions, in (0, 1).
    p1, p2 : float
        Proliferation rates of the two immature stages (1/day), positive.
    d3 : float
        Clearance rate of mature cells (1/day), positive.
    k : float
        Feedback strength (kg/cells), positive. Sets the scale of the
        positive steady state: counts are proportional to 1/k.
    d1, d2 : float, optional
        Death rates of the immature stages (1/day), nonnegative. Both zero
        selects the basic variant.
    """

    a1: float
    a2: float
    p1: float
    p2: float
    d3: float
    k: float
    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        # a finite float passes without a call: x - x is 0.0 exactly when x
        # is finite (NaN for NaN and +-inf); anything else meets `_real`
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if type(value) is not float or value - value != 0.0:
                object.__setattr__(self, name, _real(name, value))
        if not (0.0 < self.a1 < 1.0 and 0.0 < self.a2 < 1.0):
            raise ValueError(
                f"self-renewal fractions must lie in (0, 1), got a1={self.a1}, a2={self.a2}"
            )
        if not (self.p1 > 0.0 and self.p2 > 0.0):
            raise ValueError(f"proliferation rates must be positive, got p1={self.p1}, p2={self.p2}")
        if not self.d3 > 0.0:
            raise ValueError(f"mature clearance d3 must be positive, got {self.d3}")
        if not self.k > 0.0:
            raise ValueError(f"feedback strength k must be positive, got {self.k}")
        if self.d1 < 0.0 or self.d2 < 0.0:
            raise ValueError(f"death rates must be nonnegative, got d1={self.d1}, d2={self.d2}")

    @property
    def is_basic(self) -> bool:
        """True when d1 = d2 = 0."""
        return self.d1 == 0.0 and self.d2 == 0.0

    def with_(self, **changes) -> "ModelParameters":
        """Copy with the given fields replaced (validates the result)."""
        return replace(self, **changes)


# reference operating point of the plausible box (healthy granulopoiesis)
REFERENCE_PARAMETERS = ModelParameters(
    a1=0.85, a2=0.841, p1=0.1, p2=0.4, d3=2.7, k=1.75e-9, d1=0.0, d2=0.0
)


@dataclass(frozen=True)
class CellState:
    """Nonnegative cell counts (cells/kg) of the three stages."""

    u1: float
    u2: float
    u3: float

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            value = getattr(self, name)
            if type(value) is not float or value - value != 0.0:  # as in ModelParameters
                object.__setattr__(self, name, _real(name, value))
        if self.u1 < 0.0 or self.u2 < 0.0 or self.u3 < 0.0:
            raise ValueError(f"cell counts must be nonnegative, got ({self.u1}, {self.u2}, {self.u3})")

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.u1, self.u2, self.u3)

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3], dtype=float)


@dataclass(frozen=True)
class InvariantBox:
    """Componentwise bounds on a trajectory, [0,c1] x [0,c2] x [0,c3].

    b1, b2 bound the ratios u1/u2 and u2/u3; k1..k3 are the asymptotic
    count bounds derived from them; c_i = max(k_i, u_i(0)) also covers the
    given initial state.
    """

    c1: float
    c2: float
    c3: float
    b1: float
    b2: float
    k1: float
    k2: float
    k3: float

    def contains(self, state: CellState) -> bool:
        """Componentwise check against the upper bounds c1, c2, c3."""
        return state.u1 <= self.c1 and state.u2 <= self.c2 and state.u3 <= self.c3


def rhs_closure(params: ModelParameters):
    """The right-hand side as a plain-float function f(u1, u2, u3) -> derivatives.

    No validation and no array overhead. `rhs` evaluates it at one
    `CellState`, and `integrate` for its first slope, its startup step
    guess and the slope after a clamp. The DP5 stages in `integrate` write
    these operations out in this order (2*a1*s is (2*a1)*s, so the hoisted
    a1x2 changes no bit); tests/test_integrator.py checks that the two
    agree bit for bit.
    """
    a1, a2 = params.a1, params.a2
    p1, p2 = params.p1, params.p2
    d1, d2, d3 = params.d1, params.d2, params.d3
    fb = params.k
    a1x2 = 2.0 * a1
    a2x2 = 2.0 * a2

    def f(x, y, z):
        s = 1.0 / (1.0 + fb * z)
        return (
            ((a1x2 * s - 1.0) * p1 - d1) * x,
            ((a2x2 * s - 1.0) * p2 - d2) * y + 2.0 * (1.0 - a1 * s) * p1 * x,
            2.0 * (1.0 - a2 * s) * p2 * y - d3 * z,
        )

    return f


def rhs(params: ModelParameters, state: CellState) -> Tuple[float, float, float]:
    """Time derivatives (u1', u2', u3') at the given state.

    The closed first octant is forward invariant: any component at zero has a
    nonnegative derivative, since a1*s < 1 and a2*s < 1 for s in (0, 1].
    """
    return rhs_closure(params)(state.u1, state.u2, state.u3)


def nondimensionalize(params: ModelParameters) -> ModelParameters:
    """Rescale time by the stem proliferation rate so that p1 = 1.

    Rates divide by p1; fractions and the feedback strength are unchanged.
    Trajectories map as y_rescaled(p1 * t) = y(t). Positivity of p1 is
    enforced at construction.
    """
    q = params.p1
    return params.with_(
        p1=1.0, p2=params.p2 / q, d1=params.d1 / q, d2=params.d2 / q, d3=params.d3 / q
    )


def _counted(label: str, k: float, u1: float, u2: float, u3: float) -> CellState:
    # the counts scale as 1/k; one beyond float range is refused naming the
    # state and k, not the count, which the caller never gave
    try:
        return CellState(u1, u2, u3)
    except ValueError:
        raise ValueError(f"{label}'s cell counts overflow at k={k}: they scale as 1/k") from None


def steady_state_E0() -> CellState:
    """The extinction state E0 = (0, 0, 0); always a steady state."""
    return CellState(0.0, 0.0, 0.0)


def steady_state_E1(params: ModelParameters) -> Optional[CellState]:
    """Stem-free steady state E1 = (0, u2, u3), or None when it does not exist.

    The progenitor balance pins the feedback level at (p2 + d2)/(2*a2*p2),
    which lies below 1 (so u3 > 0) exactly when d2 < (2*a2 - 1)*p2; for
    d2 = 0 this is the familiar a2 > 1/2 condition.
    """
    u3 = (2.0 * params.a2 * params.p2 / (params.p2 + params.d2) - 1.0) / params.k
    if not u3 > 0.0:
        return None
    # p2 - d2 > 0 is implied by the existence condition
    u2 = params.d3 * u3 / (params.p2 - params.d2)
    return _counted("E1", params.k, 0.0, u2, u3)


def e2_conditions(a1, a2, p1, p2, d1, d2):
    """Feedback level s, a2*s, excess and existence mask of E2; array-safe.

    s = (p1 + d1)/(2*a1*p1) is the level the stem balance pins, excess is
    d2 - (2*a2*s - 1)*p2, and E2 exists where s < 1, a2*s < 1 and
    excess > 0. Plain arithmetic with int literals only, so floats and
    arrays both work, and `fractions.Fraction` rates give exact values.

    The sign of excess is judged on excess*a1*p1 = d2*a1*p1 -
    (a2*(p1 + d1) - a1*p1)*p2, which has no rounded s in it: at a2 = a1
    with d1 = d2 = 0 that is exactly 0, where a2*s can round just below 1/2
    and leave excess a tiny positive number.
    """
    s = (p1 + d1) / (2 * a1 * p1)
    a2s = a2 * s
    excess = d2 - (2 * a2s - 1) * p2
    a1p1 = a1 * p1
    signed = d2 * a1p1 > (a2 * (p1 + d1) - a1p1) * p2
    return s, a2s, excess, (s < 1) & (a2s < 1) & (excess > 0) & signed


def _basic_ratio(a1, a2) -> Tuple[float, float]:
    """(a1, r = a2/a1) as floats on the basic closed forms' domain 1/2 < a1 < 1, 0 < a2 < a1.

    a1 and a2 meet the `_real` number rule first; outside the domain, a ValueError.
    """
    a1, a2 = _real("a1", a1), _real("a2", a2)
    if not 0.5 < a1 < 1.0:
        raise ValueError(f"the basic closed forms need 1/2 < a1 < 1, got a1={a1}")
    if not 0.0 < a2 < a1:
        raise ValueError(f"the basic closed forms need 0 < a2 < a1, got a1={a1}, a2={a2}")
    return a1, a2 / a1


def steady_state_E2(params: ModelParameters) -> Optional[CellState]:
    """Fully positive steady state E2, or None when it does not exist.

    The stem balance pins the feedback level at s = (p1 + d1)/(2*a1*p1);
    the three positivity conditions are s < 1, a2*s < 1 and
    d2 > (2*a2*s - 1)*p2. For d1 = d2 = 0 they reduce to a1 > 1/2 and
    a2 < a1, with

        u3 = (2*a1 - 1)/k,
        u2 = d3*u3 / ((2 - a2/a1)*p2),
        u1 = (1 - a2/a1)*(p2/p1)*u2.
    """
    s, a2s, excess, exists = e2_conditions(
        params.a1, params.a2, params.p1, params.p2, params.d1, params.d2
    )
    if not exists:
        return None
    return _counted("E2", params.k, *_e2_counts(params, s, a2s, excess))


def _e2_counts(params, s, a2s, excess):
    # (u1, u2, u3) of E2 from the s, a2*s and excess of `e2_conditions`;
    # int literals only, so exact when the rates of params are Fractions
    u3 = (1 / s - 1) / params.k
    u2 = params.d3 * u3 / (2 * (1 - a2s) * params.p2)
    # s < 1 forces d1 < (2*a1 - 1)*p1 < p1, so the denominator is positive
    u1 = excess * u2 / (params.p1 - params.d1)
    return u1, u2, u3


def steady_states(params: ModelParameters) -> Dict[str, CellState]:
    """The existing steady states keyed by label, in (E0, E1, E2) order.

    E0 is extinction, E1 the stem-free state, E2 the fully positive state.
    """
    found = {
        "E0": steady_state_E0(),
        "E1": steady_state_E1(params),
        "E2": steady_state_E2(params),
    }
    return {label: state for label, state in found.items() if state is not None}


def _jacobian_entries(params: ModelParameters, state: CellState):
    # the seven entries (j11, j13, j21, j22, j23, j32, j33) of `jacobian` that
    # are not identically zero, as Python floats; int literals only, so
    # exact when the rates and counts are Fractions
    s = 1 / (1 + params.k * state.u3)
    ds = -params.k * s * s
    a1, a2 = params.a1, params.a2
    p1, p2 = params.p1, params.p2
    j11 = (2 * a1 * s - 1) * p1 - params.d1
    j13 = 2 * a1 * p1 * state.u1 * ds
    j21 = 2 * (1 - a1 * s) * p1
    j22 = (2 * a2 * s - 1) * p2 - params.d2
    j23 = (2 * a2 * p2 * state.u2 - 2 * a1 * p1 * state.u1) * ds
    j32 = 2 * (1 - a2 * s) * p2
    j33 = -2 * a2 * p2 * state.u2 * ds - params.d3
    return j11, j13, j21, j22, j23, j32, j33


def jacobian(params: ModelParameters, state: CellState) -> np.ndarray:
    """3x3 Jacobian of the right-hand side at `state`.

    Uses s = 1/(1 + k*u3) and ds/du3 = -k*s^2. The (1,2) and (3,1)
    entries vanish identically: stem cells do not react to progenitors,
    mature cells not to stem cells.
    """
    j11, j13, j21, j22, j23, j32, j33 = _jacobian_entries(params, state)
    return np.array([[j11, 0.0, j13], [j21, j22, j23], [0.0, j32, j33]])


def invariant_box(params: ModelParameters, initial: CellState) -> InvariantBox:
    """Box that trajectories from `initial` do not leave.

    Constants are computed on the rescaled (p1 = 1) parameters; rescaling
    only reparametrizes time, so the bounds apply to the original system as
    well. b1 bounds the ratio u1/u2 via

        (u1/u2)' < [1 + p2 + d2 - d1 - 2*(1 - a1)*(u1/u2)] * (u1/u2),

    b2 bounds u2/u3 analogously, and the count bounds follow from the
    feedback dropping below the self-renewal break-even once counts are
    large. If u2(0) or u3(0) is zero the ratio bounds are infinite and the
    box degenerates (still correct, just not informative).
    """
    q = nondimensionalize(params)
    v1 = initial.u1 / initial.u2 if initial.u2 > 0.0 else math.inf
    v2 = initial.u2 / initial.u3 if initial.u3 > 0.0 else math.inf
    b1 = (1.0 + q.p2 + q.d2 - q.d1) / (2.0 * (1.0 - q.a1))
    b2 = (2.0 * b1 + q.d3 + q.p2) / (2.0 * (1.0 - q.a2))
    m1 = max(b1, v1)
    m2 = max(b2, v2)
    k1 = m2 * m1 * (2.0 * q.a1 - 1.0) / q.k
    k2 = max((4.0 * q.a2 - 1.0) * m2 / q.k, 4.0 * k1 / q.p2)
    k3 = 2.0 * q.p2 * k2 / q.d3
    return InvariantBox(
        c1=max(k1, initial.u1),
        c2=max(k2, initial.u2),
        c3=max(k3, initial.u3),
        b1=b1,
        b2=b2,
        k1=k1,
        k2=k2,
        k3=k3,
    )
