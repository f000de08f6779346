"""Adaptive explicit time stepping for the three-compartment model.

Embedded Dormand-Prince 5(4) pair with proportional-integral step-size
control and a quartic interpolant for dense output, specialized to the
three-component right-hand side (plain float arithmetic, no array
overhead in the inner loop). The model is non-stiff across the studied
parameter ranges (rates stay below ~27 in rescaled units); if a caller
ever pushes it into a stiff corner, reducing max_step is the escape hatch.

Positivity: the closed positive octant is invariant for the exact flow,
so negative values can only be discretization or roundoff noise. Small
undershoots (within abs_tol * 1e-3) are clamped to zero; a step that
dips below that band is rejected and retried at half the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import CellState, ModelParameters, rhs_closure

__all__ = ["IntegrationConfig", "Trajectory", "IntegrationError", "integrate"]

# Dormand-Prince coefficients. A/B/C define the embedded 5(4) pair; E is
# the difference between the 5th and 4th order weights; P maps stage
# slopes to the quartic dense-output polynomial in the step fraction.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# PI controller exponents for a 5th order error estimate
_PI_ALPHA = 0.17
_PI_BETA = 0.04
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerance and sampling settings for one integration run.

    rel_tol is dimensionless, abs_tol is in cells/kg; the local error per
    step is held below abs_tol + rel_tol * ||state||. Times are in days
    (or rescaled units if the parameters are rescaled). output_stride is
    the sampling interval of the returned trajectory; None means
    t_end / 2000. initial_step None means an automatic startup guess.
    """

    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-3
    max_step: Optional[float] = None
    initial_step: Optional[float] = None
    output_stride: Optional[float] = None

    def __post_init__(self):
        if not (isinstance(self.t_end, (int, float)) and math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 1e-12 <= self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must lie in [1e-12, 1e-3], got {self.rel_tol}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        for name in ("max_step", "initial_step", "output_stride"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite when given, got {value}")

    @property
    def stride(self) -> float:
        return self.output_stride if self.output_stride is not None else self.t_end / 2000.0


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, nonnegative states.

    states has one row (u1, u2, u3) per time, in cells/kg.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape != (self.times.size, 3):
            raise ValueError("times must be 1-d and states of matching (n, 3) shape")
        if self.times.size and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.states.size and not np.all(self.states >= 0.0):
            raise ValueError("states must be componentwise nonnegative")

    def __len__(self) -> int:
        return int(self.times.size)

    def state_at(self, index: int) -> CellState:
        row = self.states[index]
        return CellState(float(row[0]), float(row[1]), float(row[2]))

    @property
    def final(self) -> CellState:
        return self.state_at(-1)


class IntegrationError(RuntimeError):
    """Integration aborted; carries the last valid time/state and any samples."""

    def __init__(self, reason: str, time: float, state: Tuple[float, float, float],
                 trajectory: Optional[Trajectory] = None):
        super().__init__(f"{reason} at t={time}, state={state}")
        self.reason = reason
        self.time = time
        self.state = state
        self.trajectory = trajectory


def integrate(params: ModelParameters, initial: CellState, config: IntegrationConfig) -> Trajectory:
    """Integrate from t = 0 to t = config.t_end and sample at the stride.

    Reentrant and stateless; any number of calls may run concurrently.
    Negative overshoots within abs_tol * 1e-3 of zero are clamped to zero;
    a step that dips past that band is retried with half the step size.
    Raises IntegrationError on step-size underflow (below 1e-14 * t_end),
    a step-count blowup, or non-finite arithmetic; the exception carries
    the samples collected so far.
    """
    if not isinstance(initial, CellState):
        raise TypeError(f"initial must be a CellState, got {type(initial).__name__}")
    f = rhs_closure(params)

    t_end = float(config.t_end)
    stride = config.stride
    band = config.abs_tol * 1e-3
    h_min = 1e-14 * t_end
    max_step = config.max_step if config.max_step is not None else math.inf

    x, y, z = initial.as_tuple()
    t = 0.0
    times = [0.0]
    samples = [(x, y, z)]
    next_sample = stride
    # interior samples stop just short of t_end; the endpoint is appended once
    interior_end = t_end - 1e-9 * stride

    k1x, k1y, k1z = f(x, y, z)
    if not (math.isfinite(k1x) and math.isfinite(k1y) and math.isfinite(k1z)):
        raise IntegrationError("non-finite derivative", t, (x, y, z), _partial(times, samples))

    scale = config.abs_tol + config.rel_tol * max(abs(x), abs(y), abs(z))
    h = _initial_step(f, (x, y, z), (k1x, k1y, k1z), scale) if config.initial_step is None \
        else float(config.initial_step)
    h = min(h, max_step, t_end)

    err_prev = 1e-4
    fac_cap = _FAC_MAX
    steps = 0
    while t < t_end:
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegrationError("step limit exceeded", t, (x, y, z), _partial(times, samples))
        if h < h_min:
            raise IntegrationError("step size underflow", t, (x, y, z), _partial(times, samples))
        if t + 1.01 * h >= t_end:
            h = t_end - t

        u = x + h * (_A21 * k1x)
        v = y + h * (_A21 * k1y)
        w = z + h * (_A21 * k1z)
        k2x, k2y, k2z = f(u, v, w)
        u = x + h * (_A31 * k1x + _A32 * k2x)
        v = y + h * (_A31 * k1y + _A32 * k2y)
        w = z + h * (_A31 * k1z + _A32 * k2z)
        k3x, k3y, k3z = f(u, v, w)
        u = x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        v = y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
        w = z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z)
        k4x, k4y, k4z = f(u, v, w)
        u = x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        v = y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
        w = z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z)
        k5x, k5y, k5z = f(u, v, w)
        u = x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
        v = y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y)
        w = z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z)
        k6x, k6y, k6z = f(u, v, w)
        xn = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        yn = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        zn = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        k7x, k7y, k7z = f(xn, yn, zn)

        ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
        norm_old = max(abs(x), abs(y), abs(z))
        norm_new = max(abs(xn), abs(yn), abs(zn))
        scale = config.abs_tol + config.rel_tol * max(norm_old, norm_new)
        err = max(abs(ex), abs(ey), abs(ez)) / scale

        if not math.isfinite(err):
            h *= 0.1
            fac_cap = 1.0
            continue
        if err > 1.0:
            h *= max(_FAC_MIN, _SAFETY * err ** (-0.2))
            fac_cap = 1.0
            continue

        # a dip past the clamp band is treated as an overlong step, not an
        # error: the octant is invariant for the exact flow, so shrinking h
        # shrinks the undershoot. Only step underflow turns it fatal.
        low = min(xn, yn, zn)
        if low < -band:
            h *= 0.5
            fac_cap = 1.0
            continue
        t_new = t + h

        if next_sample <= t_new and next_sample < interior_end:
            # dense-output polynomial: y(theta) = y + h * sum_j q_j * theta^(j+1)
            qx = _dense_coeffs(k1x, k2x, k3x, k4x, k5x, k6x, k7x)
            qy = _dense_coeffs(k1y, k2y, k3y, k4y, k5y, k6y, k7y)
            qz = _dense_coeffs(k1z, k2z, k3z, k4z, k5z, k6z, k7z)
            pending = []
            sample_t = next_sample
            while sample_t <= t_new and sample_t < interior_end:
                theta = (sample_t - t) / h
                sx = x + h * _poly(qx, theta)
                sy = y + h * _poly(qy, theta)
                sz = z + h * _poly(qz, theta)
                if min(sx, sy, sz) < -band:
                    pending = None
                    break
                pending.append((sample_t, (max(sx, 0.0), max(sy, 0.0), max(sz, 0.0))))
                sample_t += stride
            if pending is None:
                h *= 0.5
                fac_cap = 1.0
                continue
            for sample_time, row in pending:
                times.append(sample_time)
                samples.append(row)
            next_sample = sample_t

        if low < 0.0:
            xn, yn, zn = max(xn, 0.0), max(yn, 0.0), max(zn, 0.0)
            k7x, k7y, k7z = f(xn, yn, zn)
        x, y, z = xn, yn, zn
        k1x, k1y, k1z = k7x, k7y, k7z
        t = t_new

        if err > 0.0:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        else:
            factor = fac_cap
        h = min(h * min(fac_cap, max(_FAC_MIN, factor)), max_step)
        err_prev = max(err, 1e-4)
        fac_cap = _FAC_MAX

    times.append(t_end)
    samples.append((x, y, z))
    return Trajectory(np.array(times), np.array(samples))


def _partial(times, samples) -> Trajectory:
    return Trajectory(np.array(times), np.array(samples))


def _dense_coeffs(k1, k2, k3, k4, k5, k6, k7):
    ks = (k1, k2, k3, k4, k5, k6, k7)
    return tuple(
        sum(ks[s] * _P[s][j] for s in range(7)) for j in range(4)
    )


def _poly(q, theta):
    return theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))


def _initial_step(f, state, slope, scale) -> float:
    # startup heuristic: match the scale of the solution and its first
    # derivative, then correct with a crude second-derivative probe
    x, y, z = state
    fx, fy, fz = slope
    d0 = max(abs(x), abs(y), abs(z)) / scale
    d1 = max(abs(fx), abs(fy), abs(fz)) / scale
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    gx, gy, gz = f(x + h0 * fx, y + h0 * fy, z + h0 * fz)
    d2 = max(abs(gx - fx), abs(gy - fy), abs(gz - fz)) / scale / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)
